package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"pyquery"
	"pyquery/internal/bench"
	"pyquery/internal/core"
	"pyquery/internal/datalog"
	"pyquery/internal/eval"
	"pyquery/internal/governor"
	"pyquery/internal/reductions"
	"pyquery/internal/relation"
	"pyquery/internal/workload"
	"pyquery/internal/yannakakis"
)

// Serial pins for the legacy experiments: E1–E7 and A1–A4 measure the
// serial engines so their numbers stay comparable with the BENCH_1 capture
// and across hosts with different core counts; the PAR experiment owns the
// scaling measurements.
var (
	serialEval = eval.Options{Parallelism: 1}
	serialCore = core.Options{Parallelism: 1}
	serialYan  = yannakakis.Options{Parallelism: 1}
	// serialNoCache is the facade's from-scratch serial path, for
	// experiments that want routing (the comparisons class is the collapse
	// rewrite in front of the backtracker — there is no engine to force).
	serialNoCache = pyquery.Options{Parallelism: 1, NoCache: true}
)

// program is the compiled form every engine exports.
type program interface {
	Exec(context.Context, []relation.Value, *governor.Meter) (*relation.Relation, error)
	ExecBool(context.Context, []relation.Value, *governor.Meter) (bool, error)
}

// run and runBool wrap an engine's Compile call into the one-shot the
// experiments time — compile plus a single ungoverned execution:
// run(eval.Compile(q, db, serialEval, nil)).
func run(p program, err error) (*relation.Relation, error) {
	if err != nil {
		return nil, err
	}
	return p.Exec(context.Background(), nil, nil)
}

func runBool(p program, err error) (bool, error) {
	if err != nil {
		return false, err
	}
	return p.ExecBool(context.Background(), nil, nil)
}

// runPAR sweeps the Parallelism option across every engine and the
// partitioned relational kernel, reporting wall time per level and the
// speedup over the serial path (p=1). The sweep is the scaling curve the
// BENCH_N.json captures track; on a single-core host the curve is flat by
// construction (there is nothing to scale onto) and the sweep then mostly
// measures partitioning overhead.
func runPAR(w io.Writer, quick bool) {
	fmt.Fprintf(w, "GOMAXPROCS=%d NumCPU=%d\n\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	levels := []int{1, 2, 4, 8}
	minDur := 200 * time.Millisecond
	if quick {
		levels = []int{1, 2, 4}
		minDur = 30 * time.Millisecond
	}

	// Workloads, one per layer: the raw partitioned join kernel, the
	// generic backtracker (E1 clique), Yannakakis (path query), the
	// Theorem 2 color-coding engine (org chart), and Datalog (Vardi k=2).
	joinN := 60000
	orgN, vardiN := 2000, 16
	if quick {
		joinN = 20000
		orgN = 1000
	}
	lhs := relation.New(relation.Schema{0, 1})
	rhs := relation.New(relation.Schema{1, 2})
	for i := 0; i < joinN; i++ {
		lhs.Append(relation.Value(i%500), relation.Value(i%1000))
		rhs.Append(relation.Value(i%1000), relation.Value(i%250))
	}
	cliqueQ, cliqueDB := reductions.CliqueToCQ(turan(24, 3), 4)
	pathDB := workload.LayeredPathDB(8, 60, 3, 35)
	pathQ := workload.PathQuery(5)
	orgDB := workload.OrgChart(orgN, 50, 3, 11)
	orgQ := workload.MultiProjectQuery()
	vardi := datalog.VardiFamily(2)
	vardiDB := workload.CompleteDigraphDB(vardiN)

	type target struct {
		name string
		run  func(p int)
	}
	targets := []target{
		{"relation.NaturalJoinPar", func(p int) { relation.NaturalJoinPar(lhs, rhs, p) }},
		{"generic E1 4-clique", func(p int) {
			if ok, err := runBool(eval.Compile(cliqueQ, cliqueDB, eval.Options{Parallelism: p}, nil)); err != nil || ok {
				panic("negative clique instance expected")
			}
		}},
		{"yannakakis path-5", func(p int) {
			if _, err := run(yannakakis.Compile(pathQ, pathDB, yannakakis.Options{Parallelism: p})); err != nil {
				panic(err)
			}
		}},
		{"core org-chart", func(p int) {
			if _, err := run(core.Compile(orgQ, orgDB, core.Options{Parallelism: p})); err != nil {
				panic(err)
			}
		}},
		{"datalog vardi k=2", func(p int) {
			if _, _, err := datalog.EvalGoal(vardi, vardiDB, datalog.Options{Parallelism: p}); err != nil {
				panic(err)
			}
		}},
	}

	headers := []string{"workload"}
	for _, p := range levels {
		headers = append(headers, fmt.Sprintf("p=%d", p), "speedup")
	}
	var rows [][]string
	for _, tg := range targets {
		row := []string{tg.name}
		var base float64
		for _, p := range levels {
			secs := bench.Seconds(minDur, func() { tg.run(p) })
			if p == 1 {
				base = secs
			}
			row = append(row, bench.FmtSeconds(secs), fmt.Sprintf("%.2fx", base/secs))
		}
		rows = append(rows, row)
	}
	fmt.Fprint(w, bench.Table(headers, rows))
	fmt.Fprintln(w, "\nspeedup is serial-time / parallel-time at each level (p=1 ≡ 1.00x).")
}
