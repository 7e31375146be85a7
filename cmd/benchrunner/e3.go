package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"pyquery/internal/bench"
	"pyquery/internal/colorcoding"
	"pyquery/internal/core"
	"pyquery/internal/query"
	"pyquery/internal/relation"
	"pyquery/internal/workload"
)

// runE3 measures the Theorem 2 engine: (a) near-linear scaling in the
// database size at fixed k; (b) the k-dependence isolated in the constant;
// (c) the Monte-Carlo success-rate prediction 1−e^{−c}; (d) the three hash
// families on one instance.
func runE3(w io.Writer, quick bool) {
	// (a) time vs n at fixed k=2 on both Section 5 workloads.
	sizes := []int{2000, 4000, 8000, 16000}
	if quick {
		sizes = []int{500, 1000, 2000}
	}
	fmt.Fprintln(w, "(a) scaling with database size at fixed parameter (k=2):")
	var rows [][]string
	var orgSeries, regSeries bench.Series
	for _, n := range sizes {
		org := workload.OrgChart(n, 50, 3, 11)
		qOrg := workload.MultiProjectQuery()
		tOrg := bench.Seconds(20*time.Millisecond, func() {
			if _, err := run(core.Compile(qOrg, org, serialCore)); err != nil {
				panic(err)
			}
		})
		orgSeries.Add(float64(org.Size()), tOrg)

		reg := workload.Registrar(n, 80, 8, 3, 12)
		qReg := workload.OutsideDeptQuery()
		tReg := bench.Seconds(20*time.Millisecond, func() {
			if _, err := run(core.Compile(qReg, reg, serialCore)); err != nil {
				panic(err)
			}
		})
		regSeries.Add(float64(reg.Size()), tReg)
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", org.Size()), bench.FmtSeconds(tOrg),
			fmt.Sprintf("%d", reg.Size()), bench.FmtSeconds(tReg),
		})
	}
	fmt.Fprint(w, bench.Table(
		[]string{"scale", "|org db|", "org-chart t", "|reg db|", "registrar t"}, rows))
	fmt.Fprintf(w, "log-log slope vs |db|: org-chart %s, registrar %s (paper: ≈1, n log n)\n\n",
		bench.FmtFloat(orgSeries.Slope()), bench.FmtFloat(regSeries.Slope()))

	// (b) time vs k at fixed n: simple-path queries, Monte-Carlo family.
	fmt.Fprintln(w, "(b) scaling with the parameter at fixed database (simple k-path):")
	db := workload.LayeredPathDB(10, 40, 3, 13)
	maxK := 6
	if quick {
		maxK = 5
	}
	var krows [][]string
	var kSeries bench.Series
	for k := 2; k <= maxK; k++ {
		q := workload.SimplePathQuery(k)
		mc, err := core.Compile(q, db, core.Options{Parallelism: 1, Strategy: core.MonteCarlo, C: 2, Seed: 7})
		if err != nil {
			panic(err)
		}
		stats := mc.Stats()
		secs := bench.Seconds(20*time.Millisecond, func() {
			if _, err := runBool(core.Compile(q, db, serialCore)); err != nil {
				panic(err)
			}
		})
		kSeries.Add(float64(k), secs)
		krows = append(krows, []string{
			fmt.Sprintf("%d", k), fmt.Sprintf("%d", stats.K),
			fmt.Sprintf("%d", stats.FamilySize), bench.FmtSeconds(secs),
		})
	}
	fmt.Fprint(w, bench.Table([]string{"path len", "hash range k", "family size", "time"}, krows))
	fmt.Fprintf(w, "per-step time growth ratio: %s (exponential in k only — the f(k) factor)\n\n",
		bench.FmtFloat(kSeries.GrowthRatio()))

	// (c) Monte-Carlo success probability vs the paper's bound, on the
	// hardest satisfiable instance: a single chain, so exactly one
	// satisfying instantiation exists and a hash succeeds only if it colors
	// those k specific values injectively (probability k!/k^k > e^-k).
	fmt.Fprintln(w, "(c) Monte-Carlo analysis on a single-witness instance (simple 3-path on a 4-chain):")
	q := workload.SimplePathQuery(3)
	small := chainDB(4)
	exact, err := runBool(core.Compile(q, small, core.Options{Parallelism: 1, Strategy: core.Exact}))
	if err != nil || !exact {
		panic(fmt.Sprintf("instance should be satisfiable: %v %v", exact, err))
	}
	_, _, v1, _ := core.Partition(q)
	k := len(v1)
	trials := 3000
	runs := 300
	if quick {
		trials, runs = 600, 80
	}
	hit := 0
	for i := 0; i < trials; i++ {
		h := colorcoding.Seeded(k, int64(i))
		ok, err := core.RunSingleHash(q, small, h)
		if err != nil {
			panic(err)
		}
		if ok {
			hit++
		}
	}
	singleRate := float64(hit) / float64(trials)
	fmt.Fprintf(w, "single-hash success rate: %.3f (paper lower bound e^-k = %.3f, k=%d)\n",
		singleRate, math.Exp(-float64(k)), k)
	for _, c := range []float64{0.5, 1, 2} {
		succ := 0
		for i := 0; i < runs; i++ {
			ok, err := runBool(core.Compile(q, small,
				core.Options{Parallelism: 1, Strategy: core.MonteCarlo, C: c, Seed: int64(1000 + i)}))
			if err != nil {
				panic(err)
			}
			if ok {
				succ++
			}
		}
		fmt.Fprintf(w, "full run success rate at c=%.1f: %.3f (paper bound ≥ 1-e^-c = %.3f)\n",
			c, float64(succ)/float64(runs), 1-math.Exp(-c))
	}
	fmt.Fprintln(w)

	// (d) the three hash families on one mid-size instance.
	fmt.Fprintln(w, "(d) hash family comparison (registrar query, k=2):")
	reg := workload.Registrar(4000, 60, 8, 3, 15)
	qr := workload.OutsideDeptQuery()
	var frows [][]string
	var exactAnswer *relation.Relation
	for _, st := range []struct {
		name string
		opts core.Options
	}{
		{"exact perfect", core.Options{Parallelism: 1, Strategy: core.Exact}},
		{"whp perfect", core.Options{Parallelism: 1, Strategy: core.WHP, Seed: 5}},
		{"monte carlo c=3", core.Options{Parallelism: 1, Strategy: core.MonteCarlo, C: 3, Seed: 5}},
	} {
		var stats core.Stats
		var res *relation.Relation
		secs := bench.Seconds(20*time.Millisecond, func() {
			pr, err := core.Compile(qr, reg, st.opts)
			if err != nil {
				panic(err)
			}
			if res, err = run(pr, nil); err != nil {
				panic(err)
			}
			stats = pr.Stats()
		})
		match := "—"
		if exactAnswer == nil {
			exactAnswer = res
		} else if relation.EqualSet(res, exactAnswer) {
			match = "matches exact"
		} else {
			match = "DIFFERS"
		}
		frows = append(frows, []string{st.name, fmt.Sprintf("%d", stats.FamilySize),
			fmt.Sprintf("%d", res.Len()), bench.FmtSeconds(secs), match})
	}
	fmt.Fprint(w, bench.Table([]string{"family", "size", "|answer|", "time", "answer"}, frows))
}

// chainDB is the directed chain 0→1→…→(n−1): exactly one simple
// (n−1)-path, the adversarial case for color-coding success rates.
func chainDB(n int) *query.DB {
	db := query.NewDB()
	e := query.NewTable(2)
	for i := 0; i+1 < n; i++ {
		e.Append(relation.Value(i), relation.Value(i+1))
	}
	db.Set("E", e)
	return db
}
