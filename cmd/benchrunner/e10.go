package main

import (
	"fmt"
	"io"
	"time"

	"pyquery"
	"pyquery/internal/bench"
	"pyquery/internal/eval"
	"pyquery/internal/relation"
	"pyquery/internal/wcoj"
	"pyquery/internal/workload"
)

// e10Specs are the dense cyclic workloads of E10/A7: triangle and K4 clique
// queries on skewed hub graphs. The hub vertex gives the backtracker a
// Θ(leaves²) dead-end sweep (every leaf pair shares the hub but almost no
// pair closes a cycle), while the leapfrog engine intersects sorted ranges
// in O(|E| log |E|) — the structural gap the AGM-vs-worst-case gate
// predicts.
func e10Specs(quick bool) []struct {
	label  string
	q      *pyquery.CQ
	leaves int
	clique int
} {
	specs := []struct {
		label  string
		q      *pyquery.CQ
		leaves int
		clique int
	}{
		{"triangle hub", workload.TriangleQuery(), 900, 8},
		{"triangle hub L", workload.TriangleQuery(), 1800, 8},
		{"K4 clique hub", workload.CliqueQuery(4), 900, 8},
		{"K4 clique hub L", workload.CliqueQuery(4), 1500, 8},
	}
	if quick {
		specs = specs[:0]
		specs = append(specs, struct {
			label  string
			q      *pyquery.CQ
			leaves int
			clique int
		}{"triangle hub", workload.TriangleQuery(), 400, 6})
		specs = append(specs, struct {
			label  string
			q      *pyquery.CQ
			leaves int
			clique int
		}{"K4 clique hub", workload.CliqueQuery(4), 400, 6})
	}
	return specs
}

// runE10 measures the worst-case-optimal engine's routing class: dense
// cyclic pure queries whose AGM bound beats the backtracker's skew-aware
// worst case. Both sides run one-shot at Parallelism 1 — planning plus
// execution — so the trie build is charged to the leapfrog engine.
func runE10(w io.Writer, quick bool) {
	var rows [][]string
	for _, spec := range e10Specs(quick) {
		db := workload.HubGraphDB(spec.leaves, spec.clique)
		r, err := pyquery.PlanDB(spec.q, db)
		if err != nil {
			panic(err)
		}
		if r.Engine != pyquery.EngineWCOJ {
			panic(fmt.Sprintf("E10 %s: routed to %v, want wcoj", spec.label, r.Engine))
		}
		var want, got *relation.Relation
		tWCOJ := bench.Seconds(50*time.Millisecond, func() {
			rt, err := wcoj.PlanFor(spec.q, db)
			if err != nil {
				panic(err)
			}
			if got, err = run(wcoj.Compile(spec.q, rt, 1)); err != nil {
				panic(err)
			}
		})
		tGen := bench.Seconds(50*time.Millisecond, func() {
			var err error
			want, err = run(eval.Compile(spec.q, db, eval.Options{Parallelism: 1}, nil))
			if err != nil {
				panic(err)
			}
		})
		if !relation.EqualSet(got, want) {
			panic("E10: leapfrog triejoin changed the answer")
		}
		rows = append(rows, []string{
			spec.label, fmt.Sprintf("%d", db.Size()), fmt.Sprintf("%d", want.Len()),
			bench.FmtFloat(r.AGMCost), bench.FmtFloat(r.WorstCost),
			bench.FmtSeconds(tWCOJ), bench.FmtSeconds(tGen), bench.FmtFloat(tGen / tWCOJ),
		})
	}
	fmt.Fprint(w, bench.Table([]string{"query", "|db|", "|out|", "AGM", "worst-case",
		"wcoj", "backtracker", "speedup"}, rows))
	fmt.Fprintln(w, "(identical answers; the acceptance bar is ≥2x on the triangle and K4 rows —")
	fmt.Fprintln(w, "the hub's quadratic dead-end sweep is what the AGM gate prices out)")
}

// runA7 ablates the wcoj routing through the facade: the same hub-graph
// queries via EvaluateOpts, auto routing (EngineWCOJ) vs Options.NoWCOJ
// (the generic backtracker, since the decomposition gate already rejected).
// Both paths amortize planning through the prepared-statement cache, so the
// gap is pure execution.
func runA7(w io.Writer, quick bool) {
	var rows [][]string
	for _, spec := range e10Specs(quick) {
		db := workload.HubGraphDB(spec.leaves, spec.clique)
		want, err := pyquery.EvaluateOpts(spec.q, db, pyquery.Options{Parallelism: 1, NoWCOJ: true})
		if err != nil {
			panic(err)
		}
		got, err := pyquery.EvaluateOpts(spec.q, db, pyquery.Options{Parallelism: 1})
		if err != nil || !relation.EqualSet(got, want) {
			panic("A7: wcoj ablation changed the answer")
		}
		tOn := bench.Seconds(50*time.Millisecond, func() {
			if _, err := pyquery.EvaluateOpts(spec.q, db, pyquery.Options{Parallelism: 1}); err != nil {
				panic(err)
			}
		})
		tOff := bench.Seconds(50*time.Millisecond, func() {
			if _, err := pyquery.EvaluateOpts(spec.q, db, pyquery.Options{Parallelism: 1, NoWCOJ: true}); err != nil {
				panic(err)
			}
		})
		rows = append(rows, []string{
			spec.label, fmt.Sprintf("%d", want.Len()),
			bench.FmtSeconds(tOn), bench.FmtSeconds(tOff), bench.FmtFloat(tOff / tOn),
		})
	}
	fmt.Fprint(w, bench.Table([]string{"query", "|out|", "wcoj", "NoWCOJ (backtracker)", "speedup"}, rows))
	fmt.Fprintln(w, "(identical answers; NoWCOJ is ablation A7)")
}
