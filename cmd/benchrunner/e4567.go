package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"pyquery"
	"pyquery/internal/bench"
	"pyquery/internal/core"
	"pyquery/internal/datalog"
	"pyquery/internal/eval"
	"pyquery/internal/graph"
	"pyquery/internal/order"
	"pyquery/internal/reductions"
	"pyquery/internal/workload"
)

// runE4 measures Theorem 3: acyclic queries with comparisons embed clique,
// and generic evaluation pays n in the exponent.
func runE4(w io.Writer, quick bool) {
	// Validation sweep.
	sweep := 25
	if quick {
		sweep = 8
	}
	rnd := rand.New(rand.NewSource(4))
	agree := 0
	for i := 0; i < sweep; i++ {
		g := graph.Random(4+rnd.Intn(4), 0.4+0.4*rnd.Float64(), rnd.Int63())
		k := 2 + rnd.Intn(2)
		q, db := reductions.CliqueToComparisons(g, k)
		got, err := pyquery.EvaluateBoolOpts(q, db, serialNoCache)
		if err == nil && got == g.HasClique(k) && order.IsAcyclicWithComparisons(q) {
			agree++
		}
	}
	fmt.Fprintf(w, "reduction validated on %d/%d random instances (acyclic + answer agrees with clique oracle)\n\n", agree, sweep)

	// Timing: Turán graphs (no k-clique → full search).
	sizes := map[int][]int{2: {8, 12, 16, 24}, 3: {6, 9, 12}}
	if quick {
		sizes = map[int][]int{2: {6, 9, 12}, 3: {5, 7, 9}}
	}
	var rows [][]string
	for _, k := range []int{2, 3} {
		var s bench.Series
		for _, n := range sizes[k] {
			g := turan(n, k-1)
			q, db := reductions.CliqueToComparisons(g, k)
			secs := bench.Seconds(10*time.Millisecond, func() {
				ok, err := pyquery.EvaluateBoolOpts(q, db, serialNoCache)
				if err != nil || ok {
					panic("turán instance must be negative")
				}
			})
			s.Add(float64(n), secs)
		}
		rows = append(rows, []string{fmt.Sprintf("%d", k), fmt.Sprintf("%v", sizes[k]),
			bench.FmtSeconds(s.Points[len(s.Points)-1].Y), bench.FmtFloat(s.Slope())})
	}
	fmt.Fprint(w, bench.Table([]string{"k", "n sweep", "time @max", "slope vs n"}, rows))
	fmt.Fprintln(w, "(database is Θ(n³) tuples; slope grows with k — no f(k)·poly algorithm, unlike E3)")
}

// runE5 reproduces the Section 5 example queries and compares the Theorem 2
// engine against the generic backtracking baseline.
func runE5(w io.Writer, quick bool) {
	sizes := []int{500, 1000, 2000, 4000}
	if quick {
		sizes = []int{200, 400, 800}
	}
	var rows [][]string
	for _, n := range sizes {
		org := workload.OrgChart(n, 40, 3, 21)
		q := workload.MultiProjectQuery()
		tCore := bench.Seconds(20*time.Millisecond, func() {
			if _, err := run(core.Compile(q, org, serialCore)); err != nil {
				panic(err)
			}
		})
		tGen := bench.Seconds(20*time.Millisecond, func() {
			if _, err := run(eval.Compile(q, org, serialEval, nil)); err != nil {
				panic(err)
			}
		})
		reg := workload.Registrar(n, 60, 8, 3, 22)
		qr := workload.OutsideDeptQuery()
		tCoreR := bench.Seconds(20*time.Millisecond, func() {
			if _, err := run(core.Compile(qr, reg, serialCore)); err != nil {
				panic(err)
			}
		})
		tGenR := bench.Seconds(20*time.Millisecond, func() {
			if _, err := run(eval.Compile(qr, reg, serialEval, nil)); err != nil {
				panic(err)
			}
		})
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			bench.FmtSeconds(tCore), bench.FmtSeconds(tGen), bench.FmtFloat(tGen / tCore),
			bench.FmtSeconds(tCoreR), bench.FmtSeconds(tGenR), bench.FmtFloat(tGenR / tCoreR),
		})
	}
	fmt.Fprint(w, bench.Table([]string{"scale",
		"org core", "org generic", "gen/core", "reg core", "reg generic", "gen/core"}, rows))
	fmt.Fprintln(w, "(identical answers; at k=2 the generic evaluator's n^q is effectively")
	fmt.Fprintln(w, "quadratic-with-tiny-degree, so it wins — the paper's claim is worst-case)")

	// (b) the worst case: the k-path query with x₀ ≠ x_k over dead-end
	// layers. The single I₁ inequality keeps the hash range at 2 (family of
	// a handful of functions), while backtracking still enumerates
	// ~width^(k-1) prefixes before concluding "no path" — the crossover the
	// FPT bound promises.
	fmt.Fprintln(w, "\n(b) worst-case family: k-path with x0≠xk, dense dead-end layers:")
	k := 4
	widths := []int{20, 40, 80, 160}
	if quick {
		widths = []int{10, 20, 40}
	}
	q := workload.EndpointsDistinctPathQuery(k)
	// Monte-Carlo family: on negative instances one-sided error means the
	// answer is always exact, and the family size is independent of n —
	// the clean way to exhibit the f(k)·n shape.
	mc := core.Options{Parallelism: 1, Strategy: core.MonteCarlo, C: 3, Seed: 9}
	var brows [][]string
	var genS, coreS bench.Series
	for _, width := range widths {
		db := workload.DeadEndPathDB(width, k)
		tCore := bench.Seconds(20*time.Millisecond, func() {
			got, err := runBool(core.Compile(q, db, mc))
			if err != nil || got {
				panic("dead-end instance must be negative")
			}
		})
		tGen := bench.Seconds(20*time.Millisecond, func() {
			got, err := runBool(eval.Compile(q, db, serialEval, nil))
			if err != nil || got {
				panic("dead-end instance must be negative")
			}
		})
		coreS.Add(float64(db.Size()), tCore)
		genS.Add(float64(db.Size()), tGen)
		brows = append(brows, []string{
			fmt.Sprintf("%d", width), fmt.Sprintf("%d", db.Size()),
			bench.FmtSeconds(tCore), bench.FmtSeconds(tGen), bench.FmtFloat(tGen / tCore),
		})
	}
	fmt.Fprint(w, bench.Table([]string{"width", "|db|", "core (Thm 2)", "generic", "gen/core"}, brows))
	fmt.Fprintf(w, "slope vs |db|: core %s (≈1, FPT), generic %s (≈(k-1)/2: width^(k-1) with |db|=width²)\n",
		bench.FmtFloat(coreS.Slope()), bench.FmtFloat(genS.Slope()))
}

// runE6 shows the Section 5 caveat: when the query grows with the database
// (Hamiltonian path), fixed-parameter tractability buys nothing — time
// explodes in n for every method.
func runE6(w io.Writer, quick bool) {
	maxN := 8
	if quick {
		maxN = 6
	}
	var rows [][]string
	var engine, dp bench.Series
	for n := 4; n <= maxN; n++ {
		g := graph.Random(n, 0.5, int64(100+n))
		q, db := reductions.HamPathToIneqCQ(g)
		_, wantOK := g.HamiltonianPath()
		tEng := bench.Seconds(5*time.Millisecond, func() {
			got, err := runBool(core.Compile(q, db, serialCore))
			if err != nil || got != wantOK {
				panic(fmt.Sprintf("engine disagrees with Held–Karp: %v %v", got, err))
			}
		})
		tDP := bench.Seconds(5*time.Millisecond, func() {
			g.HamiltonianPath()
		})
		engine.Add(float64(n), tEng)
		dp.Add(float64(n), tDP)
		rows = append(rows, []string{fmt.Sprintf("%d", n), fmt.Sprintf("%v", wantOK),
			bench.FmtSeconds(tEng), bench.FmtSeconds(tDP)})
	}
	fmt.Fprint(w, bench.Table([]string{"n", "has ham path", "Theorem 2 engine", "Held–Karp DP"}, rows))
	fmt.Fprintf(w, "per-step growth: engine ×%s, DP ×%s — k = n puts the parameter in the\n",
		bench.FmtFloat(engine.GrowthRatio()), bench.FmtFloat(dp.GrowthRatio()))
	fmt.Fprintln(w, "exponent for both (combined complexity is NP-complete; paper §5).")
}

// runE7 reproduces Vardi's point: an arity-k IDB materializes Θ(n^k)
// tuples, so the parameter provably sits in the exponent for Datalog.
func runE7(w io.Writer, quick bool) {
	sizes := map[int][]int{
		1: {20, 40, 80},
		2: {8, 16, 32},
		3: {4, 8, 12},
	}
	if quick {
		sizes = map[int][]int{1: {10, 20, 40}, 2: {5, 10, 20}, 3: {3, 6, 9}}
	}
	var rows [][]string
	for _, k := range []int{1, 2, 3} {
		p := datalog.VardiFamily(k)
		var s bench.Series
		exact := true
		for _, n := range sizes[k] {
			db := workload.CompleteDigraphDB(n)
			var derived int
			secs := bench.Seconds(10*time.Millisecond, func() {
				goal, _, err := datalog.EvalGoal(p, db, datalog.Options{Parallelism: 1})
				if err != nil {
					panic(err)
				}
				derived = goal.Len()
			})
			want := 1
			for i := 0; i < k; i++ {
				want *= n
			}
			if derived != want {
				exact = false
			}
			s.Add(float64(n), secs)
		}
		status := "|T| = n^k exactly"
		if !exact {
			status = "MISMATCH"
		}
		rows = append(rows, []string{fmt.Sprintf("%d", k), fmt.Sprintf("%v", sizes[k]),
			bench.FmtSeconds(s.Points[len(s.Points)-1].Y), bench.FmtFloat(s.Slope()), status})
	}
	fmt.Fprint(w, bench.Table([]string{"k", "n sweep", "time @max", "slope vs n", "tuple count"}, rows))
	fmt.Fprintln(w, "(expected slope ≈ max(2,k): the n² input relation dominates for k≤2,")
	fmt.Fprintln(w, "the n^k IDB for k>2 — the arity is provably in the exponent, no")
	fmt.Fprintln(w, "complexity assumption needed)")
}
