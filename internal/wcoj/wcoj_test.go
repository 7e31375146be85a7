package wcoj

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pyquery/internal/eval"
	"pyquery/internal/governor"
	"pyquery/internal/parallel"
	"pyquery/internal/query"
	"pyquery/internal/relation"
	"pyquery/internal/workload"
)

// run forces the engine past its cost gate: PlanFor, Compile with the worker
// budget par (0 = GOMAXPROCS), then one ungoverned execution.
func run(q *query.CQ, db *query.DB, par int) (*relation.Relation, error) {
	rt, err := PlanFor(q, db)
	if err != nil {
		return nil, err
	}
	c, err := Compile(q, rt, parallel.Workers(par))
	if err != nil {
		return nil, err
	}
	return c.Exec(context.Background(), nil, nil)
}

// reference is the suites' ground truth: the compiled backtracker in the
// written atom order (no shared planning code).
func reference(q *query.CQ, db *query.DB) (*relation.Relation, error) {
	c, err := eval.Compile(q, db, eval.Options{Parallelism: 1, NoReorder: true}, nil)
	if err != nil {
		return nil, err
	}
	return c.Exec(context.Background(), nil, nil)
}

// randGraphDB builds {E(·,·)} with the given density.
func randGraphDB(rnd *rand.Rand, rows, domain int) *query.DB {
	db := query.NewDB()
	e := query.NewTable(2)
	for i := 0; i < rows; i++ {
		e.Append(relation.Value(rnd.Intn(domain)), relation.Value(rnd.Intn(domain)))
	}
	db.Set("E", e.Dedup())
	return db
}

// randPureCyclicCQ builds a random pure cyclic query: a 3–6 cycle,
// sometimes with a chord, a constant argument, or a repeated-variable
// atom, plus occasionally a Boolean or constant-bearing head. No ≠ or
// comparison atoms — the engine's eligibility class.
func randPureCyclicCQ(rnd *rand.Rand) *query.CQ {
	n := 3 + rnd.Intn(4)
	q := workload.CycleQuery(n)
	if rnd.Intn(3) == 0 { // chord
		a, b := rnd.Intn(n), rnd.Intn(n)
		if a != b {
			q.Atoms = append(q.Atoms, query.NewAtom("E", query.V(query.Var(a)), query.V(query.Var(b))))
		}
	}
	if rnd.Intn(4) == 0 { // constant argument
		i := rnd.Intn(len(q.Atoms))
		q.Atoms[i].Args[rnd.Intn(2)] = query.C(relation.Value(rnd.Intn(6)))
	}
	if rnd.Intn(5) == 0 { // repeated variable (self-loop atom)
		v := query.Var(rnd.Intn(n))
		q.Atoms = append(q.Atoms, query.NewAtom("E", query.V(v), query.V(v)))
	}
	switch rnd.Intn(4) {
	case 0:
		q.Head = nil // Boolean
	case 1:
		q.Head = append(q.Head, query.C(7)) // constant head column
	}
	return q
}

// TestMatchesBacktracker pins answer-set equality between the leapfrog
// engine and the generic backtracker (written order — no shared planning
// code) on randomized cyclic instances, at several parallelism levels.
func TestMatchesBacktracker(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		db := randGraphDB(rnd, 20+rnd.Intn(60), 5+rnd.Intn(6))
		q := randPureCyclicCQ(rnd)
		tag := fmt.Sprintf("seed=%d q=%v", seed, q)
		want, err := reference(q, db)
		if err != nil {
			t.Fatalf("%s baseline: %v", tag, err)
		}
		for _, par := range []int{1, 3} {
			got, err := run(q, db, par)
			if err != nil {
				t.Fatalf("%s wcoj par=%d: %v", tag, par, err)
			}
			if !relation.EqualSet(got, want) {
				t.Fatalf("%s: wcoj par=%d disagrees\nwant %v\ngot %v", tag, par, want, got)
			}
		}
	}
}

// TestMatchesBacktrackerMixedArity covers non-graph shapes: a ternary atom
// in a cycle, so trie levels beyond two and interleaved participation
// depths are exercised.
func TestMatchesBacktrackerMixedArity(t *testing.T) {
	q := &query.CQ{
		Head: []query.Term{query.V(0), query.V(3)},
		Atoms: []query.Atom{
			query.NewAtom("R", query.V(0), query.V(1), query.V(2)),
			query.NewAtom("S", query.V(2), query.V(3)),
			query.NewAtom("T", query.V(3), query.V(0)),
		},
	}
	for seed := int64(0); seed < 20; seed++ {
		rnd := rand.New(rand.NewSource(1000 + seed))
		db := query.NewDB()
		r := query.NewTable(3)
		for i := 0; i < 40; i++ {
			r.Append(relation.Value(rnd.Intn(6)), relation.Value(rnd.Intn(6)), relation.Value(rnd.Intn(6)))
		}
		db.Set("R", r.Dedup())
		s := query.NewTable(2)
		tt := query.NewTable(2)
		for i := 0; i < 25; i++ {
			s.Append(relation.Value(rnd.Intn(6)), relation.Value(rnd.Intn(6)))
			tt.Append(relation.Value(rnd.Intn(6)), relation.Value(rnd.Intn(6)))
		}
		db.Set("S", s.Dedup())
		db.Set("T", tt.Dedup())
		want, err := reference(q, db)
		if err != nil {
			t.Fatalf("seed=%d baseline: %v", seed, err)
		}
		for _, par := range []int{1, 4} {
			got, err := run(q, db, par)
			if err != nil {
				t.Fatalf("seed=%d wcoj par=%d: %v", seed, par, err)
			}
			if !relation.EqualSet(got, want) {
				t.Fatalf("seed=%d par=%d: wcoj disagrees\nwant %v\ngot %v", seed, par, want, got)
			}
		}
	}
}

// TestRouteGate pins the bound-vs-bound routing policy: the skewed hub
// graph fires the gate (AGM ≪ worst-case backtracker), a sparse uniform
// graph keeps the backtracker, and a single atom never wins (AGM equals
// the scan).
func TestRouteGate(t *testing.T) {
	tri := workload.TriangleQuery()

	hub := workload.HubGraphDB(200, 4)
	rt, err := PlanFor(tri, hub)
	if err != nil {
		t.Fatalf("hub PlanFor: %v", err)
	}
	if !rt.Use {
		t.Fatalf("hub graph: gate should fire (AGM %g, worst %g)", rt.Cost, rt.WorstCost)
	}
	if len(rt.Order) != 3 {
		t.Fatalf("triangle order covers 3 vars, got %v", rt.Order)
	}

	sparse := workload.GraphDB(400, 800, 7)
	rt, err = PlanFor(tri, sparse)
	if err != nil {
		t.Fatalf("sparse PlanFor: %v", err)
	}
	if rt.Use {
		t.Fatalf("sparse graph: gate should keep the backtracker (AGM %g, worst %g)", rt.Cost, rt.WorstCost)
	}

	single := &query.CQ{
		Head:  []query.Term{query.V(0), query.V(1)},
		Atoms: []query.Atom{query.NewAtom("E", query.V(0), query.V(1))},
	}
	rt, err = PlanFor(single, sparse)
	if err != nil {
		t.Fatalf("single-atom PlanFor: %v", err)
	}
	if rt.Use {
		t.Fatalf("single atom: AGM %g should not beat the scan %g", rt.Cost, rt.WorstCost)
	}
}

// TestEligibility pins the structural boundary errors.
func TestEligibility(t *testing.T) {
	db := workload.GraphDB(10, 20, 1)
	ineq := workload.TriangleQuery()
	ineq.Ineqs = []query.Ineq{query.NeqVars(0, 1)}
	if _, err := PlanFor(ineq, db); err == nil {
		t.Fatal("≠ atoms must be rejected")
	}
	cmp := workload.TriangleQuery()
	cmp.Cmps = []query.Cmp{query.Lt(query.V(0), query.V(1))}
	if _, err := PlanFor(cmp, db); err == nil {
		t.Fatal("variable comparisons must be rejected")
	}
	if _, err := PlanFor(&query.CQ{}, db); err == nil {
		t.Fatal("atom-free queries must be rejected")
	}
}

// TestTrivialPlans pins the compile-time empty cases: an empty reduced
// atom, a false ground comparison, and a satisfied ground comparison.
func TestTrivialPlans(t *testing.T) {
	db := query.NewDB()
	db.Set("E", query.NewTable(2)) // empty
	tri := workload.TriangleQuery()
	res, err := run(tri, db, 1)
	if err != nil || res.Len() != 0 {
		t.Fatalf("empty relation: want empty answer, got %v err %v", res, err)
	}

	db2 := workload.HubGraphDB(5, 3)
	qf := workload.TriangleQuery()
	qf.Cmps = []query.Cmp{query.Lt(query.C(3), query.C(1))} // ground false
	res, err = run(qf, db2, 1)
	if err != nil || res.Len() != 0 {
		t.Fatalf("ground-false comparison: want empty answer, got %v err %v", res, err)
	}

	qt := workload.TriangleQuery()
	qt.Cmps = []query.Cmp{query.Lt(query.C(1), query.C(3))} // ground true
	res, err = run(qt, db2, 1)
	if err != nil || res.Len() == 0 {
		t.Fatalf("ground-true comparison: want nonempty answer, got %v err %v", res, err)
	}
}

// TestBoolAndDecision pins ExecBool against Exec emptiness on both
// outcomes.
func TestBoolAndDecision(t *testing.T) {
	tri := workload.TriangleQuery()
	tri.Head = nil // Boolean
	withTriangles := workload.HubGraphDB(10, 3)
	noTriangles := workload.HubGraphDB(10, 0) // hub-leaf edges only: no cycle of length 3
	for _, tc := range []struct {
		db   *query.DB
		want bool
	}{{withTriangles, true}, {noTriangles, false}} {
		rt, err := PlanFor(tri, tc.db)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(tri, rt, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ExecBool(context.Background(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("ExecBool = %v, want %v", got, tc.want)
		}
	}
}

// TestGovernorTrips pins the typed failure taxonomy at the engine level:
// the row budget trips ErrRowLimit from the emit checkpoint, and a
// canceled context surfaces ErrCanceled from the next checkpoint.
func TestGovernorTrips(t *testing.T) {
	db := workload.HubGraphDB(60, 5)
	tri := workload.TriangleQuery()
	rt, err := PlanFor(tri, db)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(tri, rt, 1)
	if err != nil {
		t.Fatal(err)
	}

	m := governor.New(context.Background(), "wcoj", 3, 0)
	if _, err := c.Exec(context.Background(), nil, m); !errors.Is(err, governor.ErrRowLimit) {
		t.Fatalf("row limit: got %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m = governor.New(ctx, "wcoj", 0, 0)
	if _, err := c.Exec(ctx, nil, m); !errors.Is(err, governor.ErrCanceled) {
		t.Fatalf("canceled ctx: got %v", err)
	}
	c4, err := Compile(tri, rt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c4.Exec(ctx, nil, governor.New(ctx, "wcoj", 0, 0)); !errors.Is(err, governor.ErrCanceled) {
		t.Fatalf("canceled ctx (parallel): got %v", err)
	}
}

// TestParallelDeterminism pins answer-set equality across worker counts on
// a workload large enough to shard.
func TestParallelDeterminism(t *testing.T) {
	db := workload.HubGraphDB(80, 6)
	for _, q := range []*query.CQ{workload.TriangleQuery(), workload.CliqueQuery(4)} {
		want, err := run(q, db, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 {
			t.Fatalf("workload should have answers for %v", q)
		}
		for _, par := range []int{2, 3, 8} {
			got, err := run(q, db, par)
			if err != nil {
				t.Fatal(err)
			}
			if !relation.EqualSet(got, want) {
				t.Fatalf("par=%d disagrees with serial on %v", par, q)
			}
		}
	}
}
