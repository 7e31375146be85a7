package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"pyquery/internal/colorcoding"
	"pyquery/internal/governor"
	"pyquery/internal/parallel"
	"pyquery/internal/query"
	"pyquery/internal/relation"
	"pyquery/internal/yannakakis"
)

// Program is a compiled Theorem 2 query: the hash-independent prepared
// state (reduced relations with the pushed conjuncts applied, the join
// tree, the Y-sets of Lemma 1) plus the hash family for the query's k.
// Everything is read-only after Compile, so one Program may execute
// concurrently; each execution re-runs only the per-hash passes.
type Program struct {
	p   *prepared
	fam []colorcoding.Func
	// successes is the most recently finished execution's count of hash
	// functions with nonempty Q_h (Stats reports it).
	successes atomic.Int64
}

// Compile prepares q against db for repeated execution: its ≠ atoms become
// the conjunction φ = ∧ q.Ineqs, compiled as by CompileFormula.
func Compile(q *query.CQ, db *query.DB, opts Options) (*Program, error) {
	return compile(q, FromConjunction(q.Ineqs), db, opts)
}

// CompileFormula prepares an acyclic pure conjunctive query under an
// arbitrary ∧/∨ formula φ of inequality atoms (the parameter-q extension of
// Theorem 2). The query must carry no ≠ or comparison atoms of its own.
func CompileFormula(q *query.CQ, phi IneqFormula, db *query.DB, opts Options) (*Program, error) {
	if len(q.Ineqs) > 0 || len(q.Cmps) > 0 {
		return nil, fmt.Errorf("core: move the query's inequality atoms into φ")
	}
	vars, _ := ineqFormulaVars(phi)
	body := q.BodyVars()
	for _, v := range vars {
		if !slices.Contains(body, v) {
			return nil, fmt.Errorf("core: φ variable x%d does not occur in the query body", v)
		}
	}
	return compile(q, phi, db, opts)
}

// compile reduces the atoms, applies the conjunct rule to φ, builds the
// join tree and constructs the hash family the options select.
func compile(q *query.CQ, phi IneqFormula, db *query.DB, opts Options) (*Program, error) {
	if opts.C == 0 {
		opts.C = 3
	}
	p, err := prepare(q, phi, db, opts)
	if err != nil {
		return nil, err
	}
	pr := &Program{p: p}
	if p.trivialEmpty {
		return pr, nil
	}
	if pr.fam, err = family(p, opts); err != nil {
		return nil, err
	}
	return pr, nil
}

// Stats reports what the program is and did: K, I1, I2, and FamilySize are
// fixed at Compile; Successes is that of the most recently finished
// execution (zero before the first).
func (pr *Program) Stats() Stats {
	return Stats{K: pr.p.k, I1: len(pr.p.colored), I2: pr.p.pushed, FamilySize: len(pr.fam),
		Successes: int(pr.successes.Load())}
}

// Exec computes Q(d) = ⋃_h Q_h(d) over the compiled family. The program
// takes no bound values. The context/meter is checked at every trial-batch
// boundary (the color-coding round) and at each pass step inside a trial,
// and the meter is charged for the passes' materialized relations and each
// trial's result, so a row/byte budget (or an injected fault) trips with
// the typed governor error.
func (pr *Program) Exec(ctx context.Context, _ []relation.Value, m *governor.Meter) (*relation.Relation, error) {
	p := pr.p
	if err := governor.Check(ctx, m, "start"); err != nil {
		return nil, err
	}
	if p.trivialEmpty {
		return query.NewTable(len(p.q.Head)), nil
	}
	outer, inner := parallel.Split(parallel.Workers(p.opts.Parallelism), len(pr.fam))
	acc, successes, err := union(ctx, m, outer, len(pr.fam), func(i int) *relation.Relation {
		pstar, ok := p.runHash(ctx, m, pr.fam[i], true, inner)
		if !ok {
			return nil
		}
		return pstar
	})
	if err != nil {
		return nil, err
	}
	pr.successes.Store(int64(successes))
	if acc == nil {
		return query.NewTable(len(p.q.Head)), nil
	}
	return yannakakis.HeadTuples(p.q, acc), nil
}

// ExecBool decides Q(d) ≠ ∅ (Algorithm 1 only), stopping at the first hash
// function that succeeds. The meter is checked between trials and merges;
// the decision pass materializes no output, so only checkpoint trips —
// context, injected faults — can fire.
func (pr *Program) ExecBool(ctx context.Context, _ []relation.Value, m *governor.Meter) (bool, error) {
	p := pr.p
	if err := governor.Check(ctx, m, "start"); err != nil {
		return false, err
	}
	if p.trivialEmpty {
		return false, nil
	}
	var found atomic.Bool
	outer, inner := parallel.Split(parallel.Workers(p.opts.Parallelism), len(pr.fam))
	err := parallel.ForEachCtx(ctx, outer, len(pr.fam), func(i int) {
		if found.Load() || governor.Check(ctx, m, "trial") != nil {
			return
		}
		if _, ok := p.runHash(ctx, m, pr.fam[i], false, inner); ok {
			found.Store(true)
		}
	})
	if !found.Load() {
		// A trial cut short by a trip reads as a miss; surface the trip.
		if cerr := governor.Check(ctx, m, "finish"); cerr != nil {
			err = cerr
		}
	}
	if err != nil {
		return false, err
	}
	var successes int64
	if found.Load() {
		successes = 1
	}
	pr.successes.Store(successes)
	return found.Load(), nil
}

// union runs the independent trials run(0)…run(n−1) across the worker
// budget in batches of the outer width and accumulates the non-nil results
// in trial order into one relation, deduplicated through one TupleSet, so
// the result is identical to a serial loop at any parallelism and peak
// memory stays O(|result| + outer·|trial|). It also returns the number of
// non-nil results. The context/meter is checked between batches (the
// color-coding round boundary) and once at the end, and the meter is
// charged per trial result; a canceled or tripped run returns the
// corresponding error.
func union(ctx context.Context, m *governor.Meter, outer, n int, run func(i int) *relation.Relation) (*relation.Relation, int, error) {
	var acc *relation.Relation
	var seen *relation.TupleSet
	var cols []int
	successes := 0
	results := make([]*relation.Relation, outer)
	for start := 0; start < n; start += outer {
		if err := governor.Check(ctx, m, "trial-batch"); err != nil {
			return nil, 0, err
		}
		batch := results[:min(outer, n-start)]
		clear(batch) // run may leave slots untouched
		parallel.ForEach(outer, len(batch), func(i int) {
			batch[i] = run(start + i)
		})
		for _, pstar := range batch {
			if pstar == nil {
				continue
			}
			if err := m.Charge(int64(pstar.Len()), governor.RelBytes(pstar.Len(), pstar.Width()), "trial-result"); err != nil {
				return nil, 0, err
			}
			successes++
			if acc == nil {
				acc = relation.New(pstar.Schema())
				seen = relation.NewTupleSetSized(pstar.Width(), pstar.Len())
				for c := range pstar.Width() {
					cols = append(cols, c)
				}
			}
			for r := 0; r < pstar.Len(); r++ {
				if seen.AddRel(pstar, r, cols) {
					acc.AppendRowOf(pstar, r)
				}
			}
		}
	}
	if err := governor.Check(ctx, m, "finish"); err != nil {
		return nil, 0, err
	}
	return acc, successes, nil
}

// family constructs the hash family for a prepared query per the options.
func family(p *prepared, opts Options) ([]colorcoding.Func, error) {
	k := p.k
	switch opts.Strategy {
	case MonteCarlo:
		return colorcoding.Trials(k, opts.C, opts.Seed), nil
	case Exact:
		return colorcoding.ExactPerfect(p.relevant, k)
	case WHP:
		return colorcoding.WHPPerfect(len(p.relevant), k, whpDelta, opts.Seed), nil
	case Auto:
		// Keep the exact family for genuinely small instances; beyond the
		// budget its construction cost dwarfs the evaluation.
		const autoBudget = 50_000
		if colorcoding.ExactFeasible(len(p.relevant), k, autoBudget) {
			return colorcoding.ExactPerfect(p.relevant, k)
		}
		return colorcoding.WHPPerfect(len(p.relevant), k, whpDelta, opts.Seed), nil
	}
	return nil, fmt.Errorf("core: unknown strategy %d", opts.Strategy)
}

// RunSingleHash runs Algorithm 1 with exactly one hash function h and
// reports whether Q_h(d) ≠ ∅. The function's color count should equal the
// query's hash range (|V₁|, from Partition). This is the probe behind the
// Monte-Carlo success-rate experiments (E3c, A4): the paper guarantees a
// single random h succeeds with probability > e^{−k} on satisfiable
// instances.
func RunSingleHash(q *query.CQ, db *query.DB, h colorcoding.Func) (bool, error) {
	p, err := prepare(q, FromConjunction(q.Ineqs), db, Options{})
	if err != nil {
		return false, err
	}
	if p.trivialEmpty {
		return false, nil
	}
	_, ok := p.runHash(nil, nil, h, false, 1)
	return ok, nil
}
