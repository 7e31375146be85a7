package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"pyquery/internal/bench"
	"pyquery/internal/core"
	"pyquery/internal/eval"
	"pyquery/internal/query"
	"pyquery/internal/relation"
	"pyquery/internal/workload"
	"pyquery/internal/yannakakis"
)

// runA1 ablates the I₂ pushdown: the paper pushes same-hyperedge
// inequalities into the σ selections; the ablation routes every inequality
// through hashed color columns instead (the q-parameter variant), paying
// weaker filters and a possibly larger hash range.
func runA1(w io.Writer, quick bool) {
	width := 30
	if quick {
		width = 15
	}
	db := workload.LayeredPathDB(8, width, 3, 31)
	var rows [][]string
	for _, k := range []int{3, 4} {
		q := workload.SimplePathQuery(k)
		on, err := core.Compile(q, db, serialCore)
		if err != nil {
			panic(err)
		}
		sOn := on.Stats()
		tOn := bench.Seconds(20*time.Millisecond, func() {
			if _, err := runBool(core.Compile(q, db, serialCore)); err != nil {
				panic(err)
			}
		})
		off, err := core.Compile(q, db, core.Options{Parallelism: 1, NoPushdown: true})
		if err != nil {
			panic(err)
		}
		sOff := off.Stats()
		tOff := bench.Seconds(20*time.Millisecond, func() {
			if _, err := runBool(core.Compile(q, db, core.Options{Parallelism: 1, NoPushdown: true})); err != nil {
				panic(err)
			}
		})
		rows = append(rows, []string{
			fmt.Sprintf("simple %d-path", k),
			fmt.Sprintf("%d/%d", sOn.I1, sOn.I2), bench.FmtSeconds(tOn),
			fmt.Sprintf("%d/%d", sOff.I1, sOff.I2), bench.FmtSeconds(tOff),
			bench.FmtFloat(tOff / tOn),
		})
	}
	fmt.Fprint(w, bench.Table([]string{"query",
		"I1/I2 (pushdown)", "time", "I1/I2 (all hashed)", "time", "slowdown"}, rows))
	fmt.Fprintln(w, "(answers identical; the pushdown keeps adjacent-pair checks exact and filters early)")
}

// runA2 ablates the Yannakakis full reducer on the classical bad case: the
// root joins a multiplying child before a selective child. With the
// reducer, the selective branch shrinks the root by semijoin before any
// multiplication; without it, the root inflates by the fan-out first and
// the dead tuples are discarded only afterwards.
func runA2(w io.Writer, quick bool) {
	m, fanOut := 250, 40
	if quick {
		m, fanOut = 120, 20
	}
	db := query.NewDB()
	// Root  R(x1,x2): the m×m core.
	r := query.NewTable(2)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			r.Append(relation.Value(i), relation.Value(j))
		}
	}
	db.Set("R", r)
	// Mul M(x1,x0): fanOut values of x0 per x1 — the multiplier branch.
	mul := query.NewTable(2)
	for i := 0; i < m; i++ {
		for a := 0; a < fanOut; a++ {
			mul.Append(relation.Value(i), relation.Value(10_000+a))
		}
	}
	db.Set("M", mul)
	// Sel S(x2,x3): only x2 = 0 survives — the selective branch.
	sel := query.NewTable(2)
	sel.Append(relation.Value(0), relation.Value(99_999))
	db.Set("S", sel)

	q := &query.CQ{
		Head: []query.Term{query.V(0)},
		Atoms: []query.Atom{
			query.NewAtom("R", query.V(1), query.V(2)),
			query.NewAtom("M", query.V(1), query.V(0)),
			query.NewAtom("S", query.V(2), query.V(3)),
		},
	}
	want, err := run(yannakakis.Compile(q, db, serialYan))
	if err != nil {
		panic(err)
	}
	got, err := run(yannakakis.Compile(q, db, yannakakis.Options{Parallelism: 1, NoFullReducer: true}))
	if err != nil || !relation.EqualSet(got, want) {
		panic("full reducer ablation changed the answer")
	}
	tOn := bench.Seconds(20*time.Millisecond, func() {
		if _, err := run(yannakakis.Compile(q, db, serialYan)); err != nil {
			panic(err)
		}
	})
	tOff := bench.Seconds(20*time.Millisecond, func() {
		if _, err := run(yannakakis.Compile(q, db, yannakakis.Options{Parallelism: 1, NoFullReducer: true})); err != nil {
			panic(err)
		}
	})
	fmt.Fprint(w, bench.Table([]string{"variant", "time"}, [][]string{
		{"full reducer (paper)", bench.FmtSeconds(tOn)},
		{"no reducer", bench.FmtSeconds(tOff)},
		{"slowdown", bench.FmtFloat(tOff / tOn)},
	}))
	fmt.Fprintf(w, "(identical answers, |output| = %d; the reducer realizes the input+output\n", want.Len())
	fmt.Fprintln(w, "polynomial bound of [18] by deleting dangling tuples before any join)")
}

// runA3 ablates the generic evaluator's greedy join order on a query
// written in adversarial atom order (selective atom last).
func runA3(w io.Writer, quick bool) {
	nodes, edges := 3000, 12000
	if quick {
		nodes, edges = 800, 3200
	}
	db := workload.GraphDB(nodes, edges, 33)
	// L holds just two nodes; written last, it should be evaluated first.
	l := query.NewTable(1)
	l.Append(relation.Value(1))
	l.Append(relation.Value(2))
	db.Set("L", l)
	// Head variables force full evaluation (no early exit), so the written
	// order pays for scanning every edge before the selective L applies.
	q := &query.CQ{
		Head: []query.Term{query.V(0), query.V(2)},
		Atoms: []query.Atom{
			query.NewAtom("E", query.V(0), query.V(1)),
			query.NewAtom("E", query.V(1), query.V(2)),
			query.NewAtom("L", query.V(0)),
		},
	}
	tOn := bench.Seconds(20*time.Millisecond, func() {
		if _, err := run(eval.Compile(q, db, eval.Options{Parallelism: 1}, nil)); err != nil {
			panic(err)
		}
	})
	tOff := bench.Seconds(20*time.Millisecond, func() {
		if _, err := run(eval.Compile(q, db, eval.Options{Parallelism: 1, NoReorder: true}, nil)); err != nil {
			panic(err)
		}
	})
	fmt.Fprint(w, bench.Table([]string{"variant", "time"}, [][]string{
		{"greedy order", bench.FmtSeconds(tOn)},
		{"written order", bench.FmtSeconds(tOff)},
		{"slowdown", bench.FmtFloat(tOff / tOn)},
	}))
}

// runA4 sweeps the Monte-Carlo confidence c and compares the measured
// success rate to the paper's 1−e^{−c} guarantee. The instance is the
// hardest satisfiable one — a star with exactly four leaves and the
// 4-leaf star query, so the unique witness set must be colored injectively
// (per-trial success 4!/4⁴ ≈ 0.094).
func runA4(w io.Writer, quick bool) {
	q := workload.StarQuery(4)
	db := query.NewDB()
	e := query.NewTable(2)
	for leaf := 1; leaf <= 4; leaf++ {
		e.Append(0, relation.Value(leaf))
	}
	db.Set("E", e)
	exact, err := run(core.Compile(q, db, core.Options{Parallelism: 1, Strategy: core.Exact}))
	if err != nil {
		panic(err)
	}
	if exact.Empty() {
		panic("A4 instance should have answers")
	}
	runs := 300
	if quick {
		runs = 80
	}
	var rows [][]string
	for _, c := range []float64{0.05, 0.1, 0.25, 1, 3} {
		succ := 0
		for i := 0; i < runs; i++ {
			got, err := runBool(core.Compile(q, db,
				core.Options{Parallelism: 1, Strategy: core.MonteCarlo, C: c, Seed: int64(500 + i)}))
			if err != nil {
				panic(err)
			}
			if got {
				succ++
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", c),
			fmt.Sprintf("%.3f", float64(succ)/float64(runs)),
			fmt.Sprintf("%.3f", 1-math.Exp(-c)),
		})
	}
	fmt.Fprint(w, bench.Table([]string{"c", "measured success", "paper bound 1-e^-c"}, rows))
	fmt.Fprintln(w, "(measured ≥ bound: the paper's analysis is conservative — the true")
	fmt.Fprintln(w, "per-trial success l!/l^k usually beats e^-k)")
}
