package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"pyquery/internal/colorcoding"
	"pyquery/internal/governor"
	"pyquery/internal/parallel"
	"pyquery/internal/query"
	"pyquery/internal/relation"
	"pyquery/internal/yannakakis"
)

// Program is a compiled Theorem 2 query: the hash-independent prepared
// state (reduced relations with the I₂ pushdown applied, the join tree, the
// Y-sets of Lemma 1) plus the hash family for the query's k. Everything is
// read-only after Compile, so one Program may execute concurrently; each
// execution re-runs only the per-hash passes.
type Program struct {
	p   *prepared
	fam []colorcoding.Func
	// successes is the most recently finished execution's count of hash
	// functions with nonempty Q_h (Stats reports it).
	successes atomic.Int64
}

// Compile prepares q against db for repeated execution: partition the
// inequalities, reduce the atoms (with the I₂ pushdown), build the join
// tree, and construct the hash family the options select.
func Compile(q *query.CQ, db *query.DB, opts Options) (*Program, error) {
	opts = opts.withDefaults()
	p, err := prepare(q, db, opts)
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
	return Stats{K: pr.p.k, I1: len(pr.p.i1), I2: len(pr.p.i2), FamilySize: len(pr.fam),
		Successes: int(pr.successes.Load())}
}

// Exec computes Q(d) = ⋃_h Q_h(d) over the compiled family. The program
// takes no bound values. The context/meter is checked at every trial-batch
// boundary (the color-coding round) and the meter is charged for each
// trial's materialized result, so a row/byte budget (or an injected fault)
// trips between rounds with the typed governor error.
func (pr *Program) Exec(ctx context.Context, _ []relation.Value, m *governor.Meter) (*relation.Relation, error) {
	p := pr.p
	if err := governor.Check(ctx, m, "start"); err != nil {
		return nil, err
	}
	if p.trivialEmpty {
		return query.NewTable(len(p.q.Head)), nil
	}
	successes := int64(0)
	outer, inner := parallel.Split(parallel.Workers(p.opts.Parallelism), len(pr.fam))
	acc, err := batchedUnion(ctx, m, outer, len(pr.fam), func(i int) *relation.Relation {
		pstar, ok := p.runHash(pr.fam[i], true, inner)
		if !ok {
			return nil
		}
		return pstar
	}, func() { successes++ })
	if err != nil {
		return nil, err
	}
	pr.successes.Store(successes)
	if acc == nil {
		return query.NewTable(len(p.q.Head)), nil
	}
	return yannakakis.HeadTuples(p.q, acc), nil
}

// ExecBool decides Q(d) ≠ ∅ (Algorithm 1 only), stopping at the first hash
// function that succeeds. The meter is checked between trials; the decision
// pass materializes no output, so only checkpoint trips — context, injected
// faults — can fire.
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
	if outer <= 1 {
		for _, h := range pr.fam {
			if err := governor.Check(ctx, m, "trial"); err != nil {
				return false, err
			}
			if _, ok := p.runHash(h, false, inner); ok {
				found.Store(true)
				break
			}
		}
	} else {
		err := parallel.ForEachCtx(ctx, outer, len(pr.fam), func(i int) {
			if found.Load() || m.Tripped() {
				return
			}
			if m.Check("trial") != nil {
				return
			}
			if _, ok := p.runHash(pr.fam[i], false, inner); ok {
				found.Store(true)
			}
		})
		if err != nil {
			return false, err
		}
		if err := m.Err(); err != nil {
			return false, err
		}
	}
	var successes int64
	if found.Load() {
		successes = 1
	}
	pr.successes.Store(successes)
	return found.Load(), nil
}

// batchedUnion runs the independent trials run(0)…run(n−1) across the
// worker budget in batches of the outer width, unioning each batch's
// non-nil results in trial order (deduplicated by Union). The merge order
// makes the result identical to a serial loop at any parallelism, and peak
// memory stays O(outer·|result|) instead of buffering all n results.
// onSuccess, if non-nil, is called once per non-nil result, in order. The
// context/meter is checked between batches (the color-coding round
// boundary) and the meter is charged per materialized trial result; a
// canceled or tripped run returns the corresponding error.
func batchedUnion(ctx context.Context, m *governor.Meter, outer, n int, run func(i int) *relation.Relation, onSuccess func()) (*relation.Relation, error) {
	var acc *relation.Relation
	results := make([]*relation.Relation, outer)
	for start := 0; start < n; start += outer {
		if err := governor.Check(ctx, m, "trial-batch"); err != nil {
			return nil, err
		}
		k := n - start
		if k > outer {
			k = outer
		}
		batch := results[:k]
		for i := range batch {
			batch[i] = nil // reset: run may leave slots untouched
		}
		parallel.ForEach(outer, k, func(i int) {
			batch[i] = run(start + i)
		})
		for _, pstar := range batch {
			if pstar == nil {
				continue
			}
			if err := m.Charge(int64(pstar.Len()), governor.RelBytes(pstar.Len(), pstar.Width()), "trial-result"); err != nil {
				return nil, err
			}
			if onSuccess != nil {
				onSuccess()
			}
			if acc == nil {
				acc = pstar
			} else {
				acc = relation.Union(acc, pstar)
			}
		}
	}
	return acc, nil
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
		return colorcoding.WHPPerfect(len(p.relevant), k, opts.Delta, opts.Seed), nil
	case Auto:
		// Keep the exact family for genuinely small instances; beyond the
		// budget its construction cost dwarfs the evaluation.
		const autoBudget = 50_000
		if colorcoding.ExactFeasible(len(p.relevant), k, autoBudget) {
			return colorcoding.ExactPerfect(p.relevant, k)
		}
		return colorcoding.WHPPerfect(len(p.relevant), k, opts.Delta, opts.Seed), nil
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
	p, err := prepare(q, db, Options{}.withDefaults())
	if err != nil {
		return false, err
	}
	if p.trivialEmpty {
		return false, nil
	}
	_, ok := p.runHash(h, false, 1)
	return ok, nil
}
