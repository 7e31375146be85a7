// Benchmarks, one per experiment of EXPERIMENTS.md (E1–E13, A1–A4, A6) plus
// engine micro-benchmarks. cmd/benchrunner produces the full sweep tables;
// these targets pin each experiment's workload into `go test -bench`.
package pyquery_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pyquery"
	"pyquery/internal/core"
	"pyquery/internal/datalog"
	"pyquery/internal/eval"
	"pyquery/internal/governor"
	"pyquery/internal/graph"
	"pyquery/internal/parser"
	"pyquery/internal/query"
	"pyquery/internal/reductions"
	"pyquery/internal/relation"
	"pyquery/internal/server"
	"pyquery/internal/stats"
	"pyquery/internal/workload"
	"pyquery/internal/yannakakis"
)

// Serial pins: the legacy experiment benchmarks measure the serial engines
// so captures stay comparable with BENCH_1.json and across hosts with
// different core counts; the *Par benchmarks below own the scaling sweeps.
var (
	serialEval = eval.Options{Parallelism: 1}
	serialCore = core.Options{Parallelism: 1}
	serialYan  = yannakakis.Options{Parallelism: 1}
)

// program is the compiled form every engine exports; run and runBool wrap an
// engine's Compile call into the one-shot the experiment benchmarks time —
// compile plus a single ungoverned execution.
type program interface {
	Exec(context.Context, []relation.Value, *governor.Meter) (*relation.Relation, error)
	ExecBool(context.Context, []relation.Value, *governor.Meter) (bool, error)
}

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

// turan builds the Turán graph T(n,r) (no (r+1)-clique).
func turan(n, r int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if u%r != v%r {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// --- E1: generic evaluation of the k-clique query (parameter in exponent) -

func BenchmarkE1_CliqueQuery(b *testing.B) {
	for _, tc := range []struct{ k, n int }{{3, 45}, {4, 24}, {5, 14}} {
		q, db := reductions.CliqueToCQ(turan(tc.n, tc.k-1), tc.k)
		b.Run(fmt.Sprintf("k=%d/n=%d", tc.k, tc.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ok, err := runBool(eval.Compile(q, db, serialEval, nil))
				if err != nil || ok {
					b.Fatal("negative instance expected")
				}
			}
		})
	}
}

// --- E1 upper bound: the CQ → weighted 2-CNF pipeline ---------------------

func BenchmarkE1_CQTo2CNF(b *testing.B) {
	q, db := reductions.CliqueToCQ(graph.Random(16, 0.5, 3), 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		red, err := reductions.CQToWeighted2CNF(q, db)
		if err != nil {
			b.Fatal(err)
		}
		red.Formula.WeightedSatisfiable(red.K)
	}
}

// --- E2: the four parameterizations on one decision -----------------------

func BenchmarkE2_Parameterizations(b *testing.B) {
	// The identity reduction means all four parameterizations share the
	// same instance; this pins the shared decision cost.
	q, db := reductions.CliqueToCQ(turan(30, 2), 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok, err := runBool(eval.Compile(q, db, serialEval, nil)); err != nil || ok {
			b.Fatal("negative instance expected")
		}
	}
}

// --- E3: the Theorem 2 engine ----------------------------------------------

func BenchmarkE3_OrgChart(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		db := workload.OrgChart(n, 50, 3, 11)
		q := workload.MultiProjectQuery()
		b.Run(fmt.Sprintf("core/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run(core.Compile(q, db, serialCore)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("generic/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run(eval.Compile(q, db, serialEval, nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE3_SimplePathByK(b *testing.B) {
	db := workload.LayeredPathDB(10, 40, 3, 13)
	for k := 2; k <= 5; k++ {
		q := workload.SimplePathQuery(k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runBool(core.Compile(q, db, serialCore)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE3_Registrar(b *testing.B) {
	db := workload.Registrar(4000, 80, 8, 3, 12)
	q := workload.OutsideDeptQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(core.Compile(q, db, serialCore)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: Theorem 3 comparison queries --------------------------------------

func BenchmarkE4_Comparisons(b *testing.B) {
	for _, tc := range []struct{ k, n int }{{2, 12}, {3, 8}} {
		q, db := reductions.CliqueToComparisons(turan(tc.n, tc.k-1), tc.k)
		b.Run(fmt.Sprintf("k=%d/n=%d", tc.k, tc.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ok, err := pyquery.EvaluateBoolOpts(q, db, pyquery.Options{Parallelism: 1, NoCache: true})
				if err != nil || ok {
					b.Fatal("negative instance expected")
				}
			}
		})
	}
}

// --- E5: Section 5 example queries -----------------------------------------

func BenchmarkE5_Examples(b *testing.B) {
	org := workload.OrgChart(2000, 40, 3, 21)
	qOrg := workload.MultiProjectQuery()
	reg := workload.Registrar(2000, 60, 8, 3, 22)
	qReg := workload.OutsideDeptQuery()
	b.Run("orgchart/core", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := run(core.Compile(qOrg, org, serialCore)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("orgchart/generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := run(eval.Compile(qOrg, org, serialEval, nil)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("registrar/core", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := run(core.Compile(qReg, reg, serialCore)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("registrar/generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := run(eval.Compile(qReg, reg, serialEval, nil)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E6: Hamiltonian path as a query ---------------------------------------

func BenchmarkE6_HamPath(b *testing.B) {
	for _, n := range []int{5, 6, 7} {
		g := graph.Random(n, 0.5, int64(100+n))
		q, db := reductions.HamPathToIneqCQ(g)
		b.Run(fmt.Sprintf("engine/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runBool(core.Compile(q, db, serialCore)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("heldkarp/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.HamiltonianPath()
			}
		})
	}
}

// --- E7: Vardi's n^k Datalog family -----------------------------------------

func BenchmarkE7_Vardi(b *testing.B) {
	for _, tc := range []struct{ k, n int }{{1, 40}, {2, 16}, {3, 8}} {
		p := datalog.VardiFamily(tc.k)
		db := workload.CompleteDigraphDB(tc.n)
		b.Run(fmt.Sprintf("k=%d/n=%d", tc.k, tc.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := datalog.EvalGoal(p, db, datalog.Options{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: cyclic low-width queries via the decomposition engine -------------

func BenchmarkE8_CyclicLowWidth(b *testing.B) {
	for _, tc := range []struct {
		name string
		spec workload.CyclicLowWidthSpec
	}{
		{"cycle4", workload.CyclicLowWidthSpec{CycleLen: 4, Nodes: 150, Degree: 15, Seed: 81}},
		{"cycle6", workload.CyclicLowWidthSpec{CycleLen: 6, Nodes: 60, Degree: 6, Seed: 82}},
	} {
		q, db := workload.CyclicLowWidth(tc.spec)
		b.Run(tc.name+"/decomp", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pyquery.EvaluateOpts(q, db, pyquery.Options{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/nodecomp", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pyquery.EvaluateOpts(q, db, pyquery.Options{Parallelism: 1, NoDecomp: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9: prepared statements vs one-shot planning --------------------------

func BenchmarkE9_Prepared(b *testing.B) {
	db := workload.GraphDB(400, 4800, 90)
	lookup := &pyquery.CQ{
		Head: []pyquery.Term{pyquery.V(1)},
		Atoms: []pyquery.Atom{
			pyquery.NewAtom("E", pyquery.C(7), pyquery.V(0)),
			pyquery.NewAtom("E", pyquery.V(0), pyquery.V(1)),
		},
	}
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pyquery.EvaluateOpts(lookup, db, pyquery.Options{Parallelism: 1, NoCache: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		p, err := pyquery.Prepare(lookup, db, pyquery.Options{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Exec(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared/param", func(b *testing.B) {
		tmpl := &pyquery.CQ{
			Head: []pyquery.Term{pyquery.V(1)},
			Atoms: []pyquery.Atom{
				pyquery.NewAtom("E", pyquery.P("src"), pyquery.V(0)),
				pyquery.NewAtom("E", pyquery.V(0), pyquery.V(1)),
			},
		}
		p, err := pyquery.Prepare(tmpl, db, pyquery.Options{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Exec(ctx, pyquery.Bind("src", pyquery.Value(i%400))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E10: worst-case-optimal join on dense cyclic workloads ----------------

func BenchmarkE10_WCOJ(b *testing.B) {
	for _, tc := range []struct {
		name string
		q    *pyquery.CQ
		db   *pyquery.DB
	}{
		{"triangle-hub", workload.TriangleQuery(), workload.HubGraphDB(400, 6)},
		{"k4-hub", workload.CliqueQuery(4), workload.HubGraphDB(400, 6)},
	} {
		r, err := pyquery.PlanDB(tc.q, tc.db)
		if err != nil {
			b.Fatal(err)
		}
		if r.Engine != pyquery.EngineWCOJ {
			b.Fatalf("%s routed to %v, want wcoj", tc.name, r.Engine)
		}
		b.Run(tc.name+"/wcoj", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pyquery.EvaluateOpts(tc.q, tc.db, pyquery.Options{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/nowcoj", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pyquery.EvaluateOpts(tc.q, tc.db, pyquery.Options{Parallelism: 1, NoWCOJ: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E11: incremental view maintenance, 1-row update -----------------------

// BenchmarkE11_Refresh prices one 1-row update (alternating insert/delete of
// the same edge, so the database size is pinned) plus bringing a standing
// query's answer current: delta Refresh vs. full re-execution of the same
// prepared statement. cmd/benchrunner -exp E11 produces the full table.
func BenchmarkE11_Refresh(b *testing.B) {
	q := &pyquery.CQ{
		Head: []pyquery.Term{pyquery.V(0), pyquery.V(2)},
		Atoms: []pyquery.Atom{
			pyquery.NewAtom("E", pyquery.V(0), pyquery.V(1)),
			pyquery.NewAtom("E", pyquery.V(1), pyquery.V(2)),
		},
	}
	extra := []pyquery.Value{9001, 9002}
	ctx := context.Background()
	for _, mode := range []string{"refresh", "reexec"} {
		b.Run(mode, func(b *testing.B) {
			db := workload.GraphDB(400, 400*12, 93)
			p, err := pyquery.Prepare(q, db, pyquery.Options{Parallelism: 1})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := p.Refresh(ctx); err != nil {
				b.Fatal(err)
			}
			flip := false
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if flip {
					db.Delete("E", extra)
				} else {
					db.Insert("E", extra)
				}
				flip = !flip
				if mode == "refresh" {
					if _, _, err := p.Refresh(ctx); err != nil {
						b.Fatal(err)
					}
				} else {
					if _, err := p.Exec(ctx); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkE12_Columnar prices the columnar substrate's narrow-code
// representation on an interned workload: each sub-benchmark runs a hot
// kernel (stats scan, semijoin, natural join) over both representations —
// narrow 4-byte codes vs wide 8-byte cells — and reports the resident
// input bytes per arm. The wide arm is the same workload with every id
// shifted outside the int32 range, i.e. the widening the substrate selects
// from its input. cmd/benchrunner -exp E12 produces the full A/B table.
func BenchmarkE12_Columnar(b *testing.B) {
	const n = 100000
	build := func(base relation.Value) (lhs, rhs *relation.Relation) {
		lhs = relation.New(relation.Schema{0, 1})
		rhs = relation.New(relation.Schema{1, 2})
		for i := 0; i < n; i++ {
			lhs.Append(base+relation.Value(i%(n/40)), base+relation.Value(i%(n/20)))
			rhs.Append(base+relation.Value(i%(n/80)), base+relation.Value(i%250))
		}
		return lhs, rhs
	}
	for _, arm := range []struct {
		name string
		base relation.Value
	}{{"narrow", 0}, {"wide", 1 << 40}} {
		b.Run(arm.name, func(b *testing.B) {
			lhs, rhs := build(arm.base)
			// Reported per sub-benchmark: a parent with sub-benchmarks
			// emits no result line of its own.
			inputBytes := float64(lhs.Bytes() + rhs.Bytes())
			b.Run("scan", func(b *testing.B) {
				b.ReportAllocs()
				b.ReportMetric(inputBytes, "input-bytes")
				for i := 0; i < b.N; i++ {
					stats.Of(lhs)
				}
			})
			b.Run("semijoin", func(b *testing.B) {
				b.ReportAllocs()
				b.ReportMetric(inputBytes, "input-bytes")
				for i := 0; i < b.N; i++ {
					relation.Semijoin(lhs, rhs)
				}
			})
			b.Run("join", func(b *testing.B) {
				b.ReportAllocs()
				b.ReportMetric(inputBytes, "input-bytes")
				for i := 0; i < b.N; i++ {
					relation.NaturalJoin(lhs, rhs)
				}
			})
		})
	}
}

// --- E13: service layer, registry exec and batching ------------------------

// BenchmarkE13_Server prices one registry execution through the service
// layer — admission, fingerprint lookup, frozen-plan exec — against the
// same prepared statement called directly, and the batched path under a
// small hot-key fan-in. cmd/benchrunner -exp E13 produces the sustained
// HTTP load and full batching A/B.
func BenchmarkE13_Server(b *testing.B) {
	db := workload.GraphDB(150, 150*10, 131)
	src := "Q(y) :- E($src, x), E(x, y)."
	params := map[string]pyquery.Value{"src": 7}
	ctx := context.Background()
	b.Run("registry", func(b *testing.B) {
		s := server.New(db, server.Config{Parallelism: 1, NoBatch: true})
		if _, err := s.Register("adj", src); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Exec(ctx, "adj", params, server.ExecOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		q, err := parser.New().ParseCQ(src)
		if err != nil {
			b.Fatal(err)
		}
		p, err := pyquery.Prepare(q, db, pyquery.Options{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Exec(ctx, pyquery.Bind("src", 7)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batched-fanin", func(b *testing.B) {
		s := server.New(db, server.Config{Parallelism: 1, BatchWindow: 50 * time.Microsecond})
		if _, err := s.Register("adj", src); err != nil {
			b.Fatal(err)
		}
		const fanin = 4
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for c := 0; c < fanin; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, _, err := s.Exec(ctx, "adj", params, server.ExecOpts{}); err != nil {
						panic(err)
					}
				}()
			}
			wg.Wait()
		}
	})
}

// --- Ablations ---------------------------------------------------------------

func BenchmarkA1_Pushdown(b *testing.B) {
	db := workload.LayeredPathDB(8, 25, 3, 31)
	q := workload.SimplePathQuery(4)
	b.Run("pushdown", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runBool(core.Compile(q, db, serialCore)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("allhashed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runBool(core.Compile(q, db, core.Options{Parallelism: 1, NoPushdown: true})); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkA2_FullReducer(b *testing.B) {
	// Multiplier branch merges before selective branch (see cmd/benchrunner).
	m, fanOut := 150, 25
	db := a2DB(m, fanOut)
	q := a2Query()
	b.Run("reducer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := run(yannakakis.Compile(q, db, serialYan)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("noreducer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := run(yannakakis.Compile(q, db, yannakakis.Options{Parallelism: 1, NoFullReducer: true})); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkA3_JoinOrder(b *testing.B) {
	db := workload.GraphDB(2000, 8000, 33)
	l := workload.GraphDB(2, 1, 1).MustRel("E") // tiny relation
	db.Set("L", relation.Project(l, relation.Schema{0}))
	q := a3Query()
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runBool(eval.Compile(q, db, eval.Options{Parallelism: 1}, nil)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("written", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runBool(eval.Compile(q, db, eval.Options{Parallelism: 1, NoReorder: true}, nil)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkA4_FamilySize(b *testing.B) {
	db := workload.LayeredPathDB(8, 25, 3, 34)
	q := workload.SimplePathQuery(3)
	for _, c := range []float64{1, 4} {
		b.Run(fmt.Sprintf("mc/c=%v", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runBool(core.Compile(q, db,
					core.Options{Parallelism: 1, Strategy: core.MonteCarlo, C: c, Seed: 7})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The relevant domain here is too large for the exact family's subset
	// enumeration; the whp-perfect family is the deterministic option.
	b.Run("whp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runBool(core.Compile(q, db, core.Options{Parallelism: 1, Strategy: core.WHP, Seed: 7})); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- micro: relational substrate ------------------------------------------

func BenchmarkMicro_NaturalJoin(b *testing.B) {
	lhs := relation.New(relation.Schema{0, 1})
	rhs := relation.New(relation.Schema{1, 2})
	for i := 0; i < 20000; i++ {
		lhs.Append(relation.Value(i%500), relation.Value(i%1000))
		rhs.Append(relation.Value(i%1000), relation.Value(i%250))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relation.NaturalJoin(lhs, rhs)
	}
}

func BenchmarkMicro_Semijoin(b *testing.B) {
	lhs := relation.New(relation.Schema{0, 1})
	rhs := relation.New(relation.Schema{1, 2})
	for i := 0; i < 20000; i++ {
		lhs.Append(relation.Value(i%500), relation.Value(i%1000))
		rhs.Append(relation.Value(i%300), relation.Value(i%250))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relation.Semijoin(lhs, rhs)
	}
}

func BenchmarkMicro_YannakakisPath(b *testing.B) {
	db := workload.LayeredPathDB(8, 60, 3, 35)
	q := workload.PathQuery(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runBool(yannakakis.Compile(q, db, serialYan)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_ColorCodingPathNeq times one execution of a compiled
// Theorem 2 program on the benchmark's path-neq shape, E(x,y), E(y,z),
// x≠z over 100 nodes and 250 edges: Algorithm 1's colored merges and
// Algorithm 2's passes for every hash function of the family, plus the
// union of their answers. Compilation is outside the loop.
func BenchmarkMicro_ColorCodingPathNeq(b *testing.B) {
	db := pyquery.NewDB()
	db.Set("E", randEdges(rand.New(rand.NewSource(1)), 250, 100))
	q := &pyquery.CQ{
		Head: []pyquery.Term{pyquery.V(0), pyquery.V(2)},
		Atoms: []pyquery.Atom{
			pyquery.NewAtom("E", pyquery.V(0), pyquery.V(1)),
			pyquery.NewAtom("E", pyquery.V(1), pyquery.V(2)),
		},
		Ineqs: []pyquery.Ineq{pyquery.NeqVars(0, 2)},
	}
	pr, err := core.Compile(q, db, serialCore)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := pr.Exec(context.Background(), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_GovernorCheckpoint prices the PR 6 resource-governor
// checkpoints every engine loop now passes through: the nil-meter fast
// path (what ungoverned executions pay — must stay a pointer test), a
// live checkpoint poll, and a live accounting charge.
func BenchmarkMicro_GovernorCheckpoint(b *testing.B) {
	b.Run("nil-meter", func(b *testing.B) {
		var m *governor.Meter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := m.Check("emit"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("check", func(b *testing.B) {
		m := governor.New(nil, "generic", 1<<40, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := m.Check("emit"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("charge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := governor.New(nil, "generic", 1<<40, 1<<50)
			if err := m.Charge(64, 64*16, "emit"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- parallel scaling: the partitioned kernel and per-engine fan-outs ------

// parLevels is the Parallelism sweep of every *Par benchmark; p=1 is the
// serial path (the baseline the ≥2x scaling targets compare against on
// multi-core hosts).
var parLevels = []int{1, 2, 4}

func BenchmarkMicro_NaturalJoinPar(b *testing.B) {
	lhs := relation.New(relation.Schema{0, 1})
	rhs := relation.New(relation.Schema{1, 2})
	for i := 0; i < 20000; i++ {
		lhs.Append(relation.Value(i%500), relation.Value(i%1000))
		rhs.Append(relation.Value(i%1000), relation.Value(i%250))
	}
	for _, p := range parLevels {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				relation.NaturalJoinPar(lhs, rhs, p)
			}
		})
	}
}

func BenchmarkMicro_SemijoinPar(b *testing.B) {
	lhs := relation.New(relation.Schema{0, 1})
	rhs := relation.New(relation.Schema{1, 2})
	for i := 0; i < 20000; i++ {
		lhs.Append(relation.Value(i%500), relation.Value(i%1000))
		rhs.Append(relation.Value(i%300), relation.Value(i%250))
	}
	for _, p := range parLevels {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				relation.SemijoinPar(lhs, rhs, p)
			}
		})
	}
}

func BenchmarkE1_CliqueQueryPar(b *testing.B) {
	q, db := reductions.CliqueToCQ(turan(24, 3), 4)
	for _, p := range parLevels {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ok, err := runBool(eval.Compile(q, db, eval.Options{Parallelism: p}, nil))
				if err != nil || ok {
					b.Fatal("negative instance expected")
				}
			}
		})
	}
}

func BenchmarkE3_OrgChartPar(b *testing.B) {
	db := workload.OrgChart(2000, 50, 3, 11)
	q := workload.MultiProjectQuery()
	for _, p := range parLevels {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run(core.Compile(q, db, core.Options{Parallelism: p})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE7_VardiPar(b *testing.B) {
	prog := datalog.VardiFamily(2)
	db := workload.CompleteDigraphDB(16)
	for _, p := range parLevels {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := datalog.EvalGoal(prog, db, datalog.Options{Parallelism: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMicro_YannakakisPar(b *testing.B) {
	db := workload.LayeredPathDB(8, 60, 3, 35)
	q := workload.PathQuery(5)
	for _, p := range parLevels {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run(yannakakis.Compile(q, db, yannakakis.Options{Parallelism: p})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- shared fixtures ---------------------------------------------------------

// a2DB builds the A2 instance: an m×m core R, a multiplying branch M
// (fanOut x0 values per x1), and a selective branch S (only x2 = 0
// survives).
func a2DB(m, fanOut int) *query.DB {
	db := query.NewDB()
	r := query.NewTable(2)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			r.Append(relation.Value(i), relation.Value(j))
		}
	}
	mul := query.NewTable(2)
	for i := 0; i < m; i++ {
		for a := 0; a < fanOut; a++ {
			mul.Append(relation.Value(i), relation.Value(10_000+a))
		}
	}
	sel := query.NewTable(2)
	sel.Append(relation.Value(0), relation.Value(99_999))
	db.Set("R", r)
	db.Set("M", mul)
	db.Set("S", sel)
	return db
}

func a2Query() *query.CQ {
	return &query.CQ{
		Head: []query.Term{query.V(0)},
		Atoms: []query.Atom{
			query.NewAtom("R", query.V(1), query.V(2)),
			query.NewAtom("M", query.V(1), query.V(0)),
			query.NewAtom("S", query.V(2), query.V(3)),
		},
	}
}

// a3Query writes the selective atom last, so the written order is
// adversarial and the greedy reorder pays off.
func a3Query() *query.CQ {
	return &query.CQ{
		Atoms: []query.Atom{
			query.NewAtom("E", query.V(0), query.V(1)),
			query.NewAtom("E", query.V(1), query.V(2)),
			query.NewAtom("L", query.V(0)),
		},
	}
}
