package decomp

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pyquery/internal/eval"
	"pyquery/internal/parallel"
	"pyquery/internal/query"
	"pyquery/internal/relation"
	"pyquery/internal/workload"
)

// compile forces the engine past its cost gate: PlanFor, then Compile with
// the worker budget par, ungoverned.
func compile(q *query.CQ, db *query.DB, par int) (*Program, error) {
	rt, err := PlanFor(q, db)
	if err != nil {
		return nil, err
	}
	return Compile(q, rt, parallel.Workers(par), nil)
}

func run(q *query.CQ, db *query.DB, par int) (*relation.Relation, error) {
	prog, err := compile(q, db, par)
	if err != nil {
		return nil, err
	}
	return prog.Exec(context.Background(), nil, nil)
}

func runBool(q *query.CQ, db *query.DB, par int) (bool, error) {
	prog, err := compile(q, db, par)
	if err != nil {
		return false, err
	}
	return prog.ExecBool(context.Background(), nil, nil)
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

// cycleCQ is the canonical n-cycle query (one construction for the whole
// repo — the E8/A6 benchmarks use the same family).
func cycleCQ(n int) *query.CQ { return workload.CycleQuery(n) }

// randCyclicCQ builds a random low-width cyclic query: a 3–6 cycle,
// sometimes with a chord atom, a constant argument, or a repeated
// variable, plus occasionally a Boolean or constant-bearing head.
func randCyclicCQ(rnd *rand.Rand) *query.CQ {
	n := 3 + rnd.Intn(4)
	q := cycleCQ(n)
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

// TestMatchesBacktracker pins answer-set equality between the
// decomposition engine and the generic backtracker (written order — no
// shared planning code) on randomized cyclic instances, at several
// parallelism levels.
func TestMatchesBacktracker(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		db := randGraphDB(rnd, 20+rnd.Intn(60), 5+rnd.Intn(6))
		q := randCyclicCQ(rnd)
		tag := fmt.Sprintf("seed=%d q=%v", seed, q)
		want, err := reference(q, db)
		if err != nil {
			t.Fatalf("%s baseline: %v", tag, err)
		}
		for _, par := range []int{1, 3} {
			got, err := run(q, db, par)
			if err != nil {
				t.Fatalf("%s decomp par=%d: %v", tag, par, err)
			}
			if !relation.EqualSet(got, want) {
				t.Fatalf("%s: decomp par=%d disagrees\nwant %v\ngot %v", tag, par, want, got)
			}
			ok, err := runBool(q, db, par)
			if err != nil {
				t.Fatalf("%s decomp bool par=%d: %v", tag, par, err)
			}
			if ok != want.Bool() {
				t.Fatalf("%s: decomp bool par=%d = %v, want %v", tag, par, ok, want.Bool())
			}
		}
	}
}

// TestProgramReportsBagRows pins the route's width and the per-bag actual
// cardinalities surfaced to qeval -explain.
func TestProgramReportsBagRows(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	db := randGraphDB(rnd, 50, 7)
	q := cycleCQ(4)
	rt, err := PlanFor(q, db)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(q, rt, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Width != 2 || len(prog.BagRows) != len(rt.Bags) {
		t.Fatalf("width %d, bag rows %v for %d bags", rt.Width, prog.BagRows, len(rt.Bags))
	}
}

// TestRejectsIneqAndVarCmp: shapes outside the engine's class error out.
func TestRejectsIneqAndVarCmp(t *testing.T) {
	db := randGraphDB(rand.New(rand.NewSource(1)), 10, 4)
	q := cycleCQ(3)
	q.Ineqs = []query.Ineq{query.NeqVars(0, 1)}
	if _, err := run(q, db, 0); err == nil {
		t.Fatal("≠ atoms must be rejected")
	}
	q2 := cycleCQ(3)
	q2.Cmps = []query.Cmp{query.Lt(query.V(0), query.V(1))}
	if _, err := run(q2, db, 0); err == nil {
		t.Fatal("variable comparisons must be rejected")
	}
}

// TestGroundCmpAndEmptyAtom: falsifying ground comparisons (head-binding
// markers) and empty reduced atoms short-circuit to the empty answer.
func TestGroundCmpAndEmptyAtom(t *testing.T) {
	db := randGraphDB(rand.New(rand.NewSource(2)), 12, 4)
	q := cycleCQ(3)
	q.Cmps = []query.Cmp{query.Lt(query.C(1), query.C(0))} // false
	res, err := run(q, db, 0)
	if err != nil || !res.Empty() {
		t.Fatalf("ground-false: %v %v", res, err)
	}
	q2 := cycleCQ(3)
	q2.Atoms[0].Args[0] = query.C(999_999) // matches nothing
	res, err = run(q2, db, 0)
	if err != nil || !res.Empty() {
		t.Fatalf("empty atom: %v %v", res, err)
	}
	ok, err := runBool(q2, db, 0)
	if err != nil || ok {
		t.Fatalf("empty atom bool: %v %v", ok, err)
	}
}

// TestDecomposable pins the structural routing predicate.
func TestDecomposable(t *testing.T) {
	if !Decomposable(cycleCQ(4)) {
		t.Fatal("4-cycle must be decomposable")
	}
	// K8 as a query: 28 atoms, ghw 4 — beyond MaxWidth.
	k8 := &query.CQ{}
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			k8.Atoms = append(k8.Atoms, query.NewAtom("E", query.V(query.Var(i)), query.V(query.Var(j))))
		}
	}
	if Decomposable(k8) {
		t.Fatal("K8 must not be decomposable at width ≤ 3")
	}
	withIneq := cycleCQ(4)
	withIneq.Ineqs = []query.Ineq{query.NeqVars(0, 2)}
	if Decomposable(withIneq) {
		t.Fatal("≠ atoms are outside the engine's class")
	}
}
