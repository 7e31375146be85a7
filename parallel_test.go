package pyquery_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pyquery"
	"pyquery/internal/datalog"
	"pyquery/internal/decomp"
	"pyquery/internal/parallel"
	"pyquery/internal/relation"
	"pyquery/internal/wcoj"
	"pyquery/internal/workload"
)

// Determinism contract: for every engine and every query class,
// Parallelism: N must be set-equal to Parallelism: 1 (the serial engine).
// The suite drives the facade with randomized databases and queries from
// each planner class so all four engines are exercised.

// randEdges builds a random binary relation over a small domain.
func randEdges(rnd *rand.Rand, rows, domain int) *pyquery.Relation {
	r := pyquery.NewTable(2)
	for i := 0; i < rows; i++ {
		r.Append(pyquery.Value(rnd.Intn(domain)), pyquery.Value(rnd.Intn(domain)))
	}
	return r.Dedup()
}

// pathDB holds relations R0…R2 for three-step path queries.
func pathDB(rnd *rand.Rand) *pyquery.DB {
	db := pyquery.NewDB()
	for i := 0; i < 3; i++ {
		db.Set(fmt.Sprintf("R%d", i), randEdges(rnd, 20+rnd.Intn(60), 6+rnd.Intn(6)))
	}
	return db
}

// pathQuery is the acyclic chain R0(x0,x1), R1(x1,x2), R2(x2,x3).
func pathQuery() *pyquery.CQ {
	return &pyquery.CQ{
		Head: []pyquery.Term{pyquery.V(0), pyquery.V(3)},
		Atoms: []pyquery.Atom{
			pyquery.NewAtom("R0", pyquery.V(0), pyquery.V(1)),
			pyquery.NewAtom("R1", pyquery.V(1), pyquery.V(2)),
			pyquery.NewAtom("R2", pyquery.V(2), pyquery.V(3)),
		},
	}
}

// forceDecomp and forceWCOJ drive an engine directly — PlanFor, Compile
// with the worker budget par, one ungoverned execution — so its cost gate
// cannot route around it.
func forceDecomp(q *pyquery.CQ, db *pyquery.DB, par int) (*pyquery.Relation, error) {
	rt, err := decomp.PlanFor(q, db)
	if err != nil {
		return nil, err
	}
	prog, err := decomp.Compile(q, rt, parallel.Workers(par), nil)
	if err != nil {
		return nil, err
	}
	return prog.Exec(context.Background(), nil, nil)
}

func forceWCOJ(q *pyquery.CQ, db *pyquery.DB, par int) (*pyquery.Relation, error) {
	rt, err := wcoj.PlanFor(q, db)
	if err != nil {
		return nil, err
	}
	c, err := wcoj.Compile(q, rt, parallel.Workers(par))
	if err != nil {
		return nil, err
	}
	return c.Exec(context.Background(), nil, nil)
}

func assertParallelAgrees(t *testing.T, tag string, q *pyquery.CQ, db *pyquery.DB, wantEngine pyquery.Engine) {
	t.Helper()
	if got := pyquery.Plan(q); got != wantEngine {
		t.Fatalf("%s: planned %v, want %v", tag, got, wantEngine)
	}
	serial, err := pyquery.EvaluateOpts(q, db, pyquery.Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("%s serial: %v", tag, err)
	}
	serialOK, err := pyquery.EvaluateBoolOpts(q, db, pyquery.Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("%s serial bool: %v", tag, err)
	}
	for _, par := range []int{2, 3, 4} {
		got, err := pyquery.EvaluateOpts(q, db, pyquery.Options{Parallelism: par})
		if err != nil {
			t.Fatalf("%s par=%d: %v", tag, par, err)
		}
		if !relation.EqualSet(got, serial) {
			t.Fatalf("%s: Parallelism=%d answer differs from serial\nserial: %v\npar:    %v",
				tag, par, serial, got)
		}
		gotOK, err := pyquery.EvaluateBoolOpts(q, db, pyquery.Options{Parallelism: par})
		if err != nil {
			t.Fatalf("%s par=%d bool: %v", tag, par, err)
		}
		if gotOK != serialOK {
			t.Fatalf("%s: Parallelism=%d bool %v, serial %v", tag, par, gotOK, serialOK)
		}
	}
}

func TestParallelDeterminismYannakakis(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		assertParallelAgrees(t, fmt.Sprintf("yannakakis/seed=%d", seed),
			pathQuery(), pathDB(rnd), pyquery.EngineYannakakis)
	}
}

func TestParallelDeterminismColorCoding(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		q := pathQuery()
		// x0 and x3 never share an atom, so the ≠ lands in I₁ and the hash
		// family actually runs.
		q.Ineqs = []pyquery.Ineq{pyquery.NeqVars(0, 3)}
		assertParallelAgrees(t, fmt.Sprintf("colorcoding/seed=%d", seed),
			q, pathDB(rnd), pyquery.EngineColorCoding)
	}
}

func TestParallelDeterminismComparisons(t *testing.T) {
	for seed := int64(200); seed < 220; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		q := pathQuery()
		q.Cmps = []pyquery.Cmp{pyquery.Lt(pyquery.V(0), pyquery.V(3))}
		assertParallelAgrees(t, fmt.Sprintf("comparisons/seed=%d", seed),
			q, pathDB(rnd), pyquery.EngineComparisons)
	}
}

func TestParallelDeterminismGeneric(t *testing.T) {
	for seed := int64(300); seed < 325; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		db := pyquery.NewDB()
		// Big enough that the 3-atom plan clears the backtracker's
		// minFanWork gate and the fan-out genuinely runs. The ≠ atom keeps
		// the cyclic query with the backtracker (pure low-width cyclic
		// queries route to the decomposition engine since PR 4).
		db.Set("E", randEdges(rnd, 400+rnd.Intn(200), 25+rnd.Intn(10)))
		tri := &pyquery.CQ{
			Head: []pyquery.Term{pyquery.V(0), pyquery.V(1), pyquery.V(2)},
			Atoms: []pyquery.Atom{
				pyquery.NewAtom("E", pyquery.V(0), pyquery.V(1)),
				pyquery.NewAtom("E", pyquery.V(1), pyquery.V(2)),
				pyquery.NewAtom("E", pyquery.V(2), pyquery.V(0)),
			},
			Ineqs: []pyquery.Ineq{pyquery.NeqVars(0, 1)},
		}
		assertParallelAgrees(t, fmt.Sprintf("generic/seed=%d", seed),
			tri, db, pyquery.EngineGeneric)
	}
}

// TestParallelDeterminismDecomp drives the decomposition engine both
// through the facade (routing + cost gate) and directly, so the bag
// materialization fan-out and the shared Yannakakis passes run under every
// worker budget regardless of where the gate lands on a given seed.
func TestParallelDeterminismDecomp(t *testing.T) {
	for seed := int64(500); seed < 520; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		db := pyquery.NewDB()
		db.Set("E", randEdges(rnd, 300+rnd.Intn(200), 20+rnd.Intn(10)))
		cyc := workload.CycleQuery(4 + int(seed%2)*2) // 4- and 6-cycles
		tag := fmt.Sprintf("decomp/seed=%d", seed)
		assertParallelAgrees(t, tag, cyc, db, pyquery.EngineDecomp)

		serial, err := forceDecomp(cyc, db, 1)
		if err != nil {
			t.Fatalf("%s direct serial: %v", tag, err)
		}
		for _, par := range []int{2, 4} {
			got, err := forceDecomp(cyc, db, par)
			if err != nil {
				t.Fatalf("%s direct par=%d: %v", tag, par, err)
			}
			if !relation.EqualSet(got, serial) {
				t.Fatalf("%s: direct decomp Parallelism=%d differs from serial", tag, par)
			}
		}
	}
}

// TestParallelDeterminismWCOJ drives the leapfrog engine through the facade
// on skewed hub graphs (the routing is database-dependent, so PlanDB — not
// Plan — pins the class) and directly, so the top-level domain sharding
// runs at several worker budgets.
func TestParallelDeterminismWCOJ(t *testing.T) {
	for i, q := range []*pyquery.CQ{workload.TriangleQuery(), workload.CliqueQuery(4)} {
		db := workload.HubGraphDB(100+30*i, 6)
		tag := fmt.Sprintf("wcoj/case=%d", i)
		r, err := pyquery.PlanDB(q, db)
		if err != nil {
			t.Fatalf("%s plan: %v", tag, err)
		}
		if r.Engine != pyquery.EngineWCOJ {
			t.Fatalf("%s: routed to %v, want wcoj", tag, r.Engine)
		}
		serial, err := pyquery.EvaluateOpts(q, db, pyquery.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", tag, err)
		}
		if serial.Len() == 0 {
			t.Fatalf("%s: workload should have answers", tag)
		}
		for _, par := range []int{2, 3, 4} {
			got, err := pyquery.EvaluateOpts(q, db, pyquery.Options{Parallelism: par})
			if err != nil {
				t.Fatalf("%s par=%d: %v", tag, par, err)
			}
			if !relation.EqualSet(got, serial) {
				t.Fatalf("%s: Parallelism=%d answer differs from serial", tag, par)
			}
			direct, err := forceWCOJ(q, db, par)
			if err != nil {
				t.Fatalf("%s direct par=%d: %v", tag, par, err)
			}
			if !relation.EqualSet(direct, serial) {
				t.Fatalf("%s: direct wcoj Parallelism=%d differs from serial", tag, par)
			}
		}
	}
}

// The generic parallel evaluator must also agree on queries with ground
// atoms before the fan-out step and constraints attached mid-plan.
func TestParallelDeterminismGroundAtoms(t *testing.T) {
	db := pyquery.NewDB()
	db.Set("E", pyquery.Table(2,
		[]pyquery.Value{1, 2}, []pyquery.Value{2, 3}, []pyquery.Value{3, 1},
		[]pyquery.Value{1, 3}))
	q := &pyquery.CQ{
		Head: []pyquery.Term{pyquery.V(0), pyquery.V(1)},
		Atoms: []pyquery.Atom{
			pyquery.NewAtom("E", pyquery.C(1), pyquery.C(2)), // ground
			pyquery.NewAtom("E", pyquery.V(0), pyquery.V(1)),
			pyquery.NewAtom("E", pyquery.V(1), pyquery.V(2)),
			pyquery.NewAtom("E", pyquery.V(2), pyquery.V(0)),
		},
		Ineqs: []pyquery.Ineq{pyquery.NeqVars(0, 1)},
	}
	assertParallelAgrees(t, "ground", q, db, pyquery.EngineGeneric)
}

func TestParallelDeterminismDatalog(t *testing.T) {
	progs := map[string]*datalog.Program{
		"reach":   datalog.Reachability(),
		"vardi2":  datalog.VardiFamily(2),
		"samegen": nil, // filled below; needs Par EDB
	}
	for seed := int64(400); seed < 412; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		for name, p := range progs {
			db := pyquery.NewDB()
			if name == "samegen" {
				p = datalog.SameGeneration()
				db.Set("Par", randEdges(rnd, 25, 10))
			} else {
				db.Set("E", randEdges(rnd, 25, 8))
			}
			for _, naive := range []bool{false, true} {
				serial, _, err := datalog.Eval(p, db, datalog.Options{Naive: naive, Parallelism: 1})
				if err != nil {
					t.Fatalf("%s serial: %v", name, err)
				}
				par, _, err := datalog.Eval(p, db, datalog.Options{Naive: naive, Parallelism: 4})
				if err != nil {
					t.Fatalf("%s par: %v", name, err)
				}
				for rel, want := range serial {
					if !relation.EqualSet(par[rel], want) {
						t.Fatalf("%s naive=%v seed=%d: IDB %q differs at Parallelism=4",
							name, naive, seed, rel)
					}
				}
			}
		}
	}
}
