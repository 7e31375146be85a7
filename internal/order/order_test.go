package order

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pyquery/internal/eval"
	"pyquery/internal/query"
	"pyquery/internal/relation"
)

// collapsed is the comparisons engine: the Collapse rewrite in front of the
// compiled backtracker; nil means the constraints are inconsistent (the
// answer is empty).
func collapsed(q *query.CQ, db *query.DB) (*eval.Compiled, error) {
	qc, err := Collapse(q)
	if errors.Is(err, ErrInconsistent) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return eval.Compile(qc, db, eval.Options{}, nil)
}

func run(q *query.CQ, db *query.DB) (*relation.Relation, error) {
	c, err := collapsed(q, db)
	if c == nil {
		return query.NewTable(len(q.Head)), err
	}
	return c.Exec(context.Background(), nil, nil)
}

func runBool(q *query.CQ, db *query.DB) (bool, error) {
	c, err := collapsed(q, db)
	if c == nil {
		return false, err
	}
	return c.ExecBool(context.Background(), nil, nil)
}

func TestConsistentChain(t *testing.T) {
	// x0 < x1 ≤ x2: consistent.
	sys := NewSystem([]query.Cmp{
		query.Lt(query.V(0), query.V(1)),
		query.Le(query.V(1), query.V(2)),
	})
	if !sys.Consistent() {
		t.Fatal("chain should be consistent")
	}
	v2v, v2c, ok := sys.ImpliedEqualities()
	if !ok || len(v2v) != 0 || len(v2c) != 0 {
		t.Fatalf("chain implies no equalities: %v %v", v2v, v2c)
	}
}

func TestStrictCycleInconsistent(t *testing.T) {
	sys := NewSystem([]query.Cmp{
		query.Lt(query.V(0), query.V(1)),
		query.Le(query.V(1), query.V(0)),
	})
	if sys.Consistent() {
		t.Fatal("x0<x1≤x0 is inconsistent")
	}
	if _, _, ok := sys.ImpliedEqualities(); ok {
		t.Fatal("inconsistent system must report !ok")
	}
}

func TestWeakCycleImpliesEquality(t *testing.T) {
	// x0 ≤ x1 ≤ x2 ≤ x0: all equal; x2,x1 collapse to x0.
	sys := NewSystem([]query.Cmp{
		query.Le(query.V(0), query.V(1)),
		query.Le(query.V(1), query.V(2)),
		query.Le(query.V(2), query.V(0)),
	})
	if !sys.Consistent() {
		t.Fatal("weak cycle is consistent")
	}
	v2v, v2c, ok := sys.ImpliedEqualities()
	if !ok || len(v2c) != 0 {
		t.Fatalf("no constants involved: %v", v2c)
	}
	if v2v[1] != 0 || v2v[2] != 0 {
		t.Fatalf("all must map to x0: %v", v2v)
	}
}

func TestEqualityWithConstant(t *testing.T) {
	// 5 ≤ x0 ≤ 5 forces x0 = 5.
	sys := NewSystem([]query.Cmp{
		query.Le(query.C(5), query.V(0)),
		query.Le(query.V(0), query.C(5)),
	})
	v2v, v2c, ok := sys.ImpliedEqualities()
	if !ok || len(v2v) != 0 {
		t.Fatalf("unexpected var equalities %v", v2v)
	}
	if v2c[0] != 5 {
		t.Fatalf("x0 must equal 5: %v", v2c)
	}
}

func TestTwoConstantsForcedEqualInconsistent(t *testing.T) {
	// 1 ≤ x0 ≤ 1 and 2 ≤ x0: then 2 ≤ x0 ≤ 1, but also implicit 1 < 2 → cycle with strict arc.
	sys := NewSystem([]query.Cmp{
		query.Le(query.C(1), query.V(0)),
		query.Le(query.V(0), query.C(1)),
		query.Le(query.C(2), query.V(0)),
	})
	if sys.Consistent() {
		t.Fatal("x0=1 ∧ x0≥2 is inconsistent")
	}
}

func TestImplicitConstantOrder(t *testing.T) {
	// x0 ≤ 1 and 2 ≤ x0 is inconsistent purely through the constant chain.
	sys := NewSystem([]query.Cmp{
		query.Le(query.V(0), query.C(1)),
		query.Le(query.C(2), query.V(0)),
	})
	if sys.Consistent() {
		t.Fatal("x0≤1 ∧ x0≥2 inconsistent")
	}
}

func TestCollapseRewritesQuery(t *testing.T) {
	// G(x0,x2) :- R(x0,x1), S(x1,x2), x0 ≤ x1, x1 ≤ x0, x2 ≠ x0.
	// Collapse: x1 := x0.
	q := &query.CQ{
		Head: []query.Term{query.V(0), query.V(2)},
		Atoms: []query.Atom{
			query.NewAtom("R", query.V(0), query.V(1)),
			query.NewAtom("S", query.V(1), query.V(2)),
		},
		Cmps:  []query.Cmp{query.Le(query.V(0), query.V(1)), query.Le(query.V(1), query.V(0))},
		Ineqs: []query.Ineq{query.NeqVars(2, 0)},
	}
	qc, err := Collapse(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(qc.Cmps) != 0 {
		t.Fatalf("weak pair should vanish: %v", qc.Cmps)
	}
	if !qc.Atoms[0].Args[1].Equal(query.V(0)) || !qc.Atoms[1].Args[0].Equal(query.V(0)) {
		t.Fatalf("x1 not collapsed into x0: %v", qc)
	}
	if len(qc.Ineqs) != 1 {
		t.Fatalf("ineq lost: %v", qc.Ineqs)
	}
}

func TestCollapseDetectsIneqContradiction(t *testing.T) {
	// x0 ≤ x1 ≤ x0 collapses x1→x0; x0 ≠ x1 then is x0≠x0.
	q := &query.CQ{
		Atoms: []query.Atom{query.NewAtom("R", query.V(0), query.V(1))},
		Cmps:  []query.Cmp{query.Le(query.V(0), query.V(1)), query.Le(query.V(1), query.V(0))},
		Ineqs: []query.Ineq{query.NeqVars(0, 1)},
	}
	if _, err := Collapse(q); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("want ErrInconsistent, got %v", err)
	}
}

func TestIsAcyclicWithComparisons(t *testing.T) {
	// Cyclic triangle becomes acyclic after x2→x0 collapse? Build one:
	// R(x0,x1), R(x1,x2), R(x2,x0) with x0≤x2≤x0 → collapse x2:=x0 gives
	// R(x0,x1), R(x1,x0), R(x0,x0): edges {0,1},{0,1},{0} — acyclic.
	q := &query.CQ{
		Atoms: []query.Atom{
			query.NewAtom("R", query.V(0), query.V(1)),
			query.NewAtom("R", query.V(1), query.V(2)),
			query.NewAtom("R", query.V(2), query.V(0)),
		},
		Cmps: []query.Cmp{query.Le(query.V(0), query.V(2)), query.Le(query.V(2), query.V(0))},
	}
	if !IsAcyclicWithComparisons(q) {
		t.Fatal("collapsed triangle should be acyclic")
	}
	q.Cmps = nil
	if IsAcyclicWithComparisons(q) {
		t.Fatal("uncollapsed triangle is cyclic")
	}
}

func TestEvaluateWithComparisons(t *testing.T) {
	db := query.NewDB()
	db.Set("E", query.Table(2,
		[]relation.Value{1, 2}, []relation.Value{2, 1}, []relation.Value{2, 3}))
	// Increasing 2-paths: E(x0,x1), E(x1,x2), x0<x1<x2.
	q := &query.CQ{
		Head: []query.Term{query.V(0), query.V(2)},
		Atoms: []query.Atom{
			query.NewAtom("E", query.V(0), query.V(1)),
			query.NewAtom("E", query.V(1), query.V(2)),
		},
		Cmps: []query.Cmp{query.Lt(query.V(0), query.V(1)), query.Lt(query.V(1), query.V(2))},
	}
	got, err := run(q, db)
	if err != nil {
		t.Fatal(err)
	}
	want := query.Table(2, []relation.Value{1, 3})
	if !relation.EqualSet(got, want) {
		t.Fatalf("increasing paths = %v, want %v", got, want)
	}
	ok, err := runBool(q, db)
	if err != nil || !ok {
		t.Fatalf("bool: %v %v", ok, err)
	}
}

func TestEvaluateInconsistentIsEmpty(t *testing.T) {
	db := query.NewDB()
	db.Set("E", query.Table(2, []relation.Value{1, 2}))
	q := &query.CQ{
		Head:  []query.Term{query.V(0)},
		Atoms: []query.Atom{query.NewAtom("E", query.V(0), query.V(1))},
		Cmps:  []query.Cmp{query.Lt(query.V(0), query.V(1)), query.Lt(query.V(1), query.V(0))},
	}
	got, err := run(q, db)
	if err != nil || got.Bool() {
		t.Fatalf("inconsistent query must be empty: %v %v", got, err)
	}
	ok, err := runBool(q, db)
	if err != nil || ok {
		t.Fatalf("inconsistent bool: %v %v", ok, err)
	}
}

// Property: Collapse preserves semantics — the collapsed query evaluates to
// the same answer as the original, on random instances (via the generic
// evaluator, which handles comparisons directly).
func TestQuickCollapsePreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		db := query.NewDB()
		domain := 3 + rnd.Intn(3)
		r := query.NewTable(2)
		for i := 0; i < 2+rnd.Intn(10); i++ {
			r.Append(relation.Value(rnd.Intn(domain)), relation.Value(rnd.Intn(domain)))
		}
		r.Dedup()
		db.Set("E", r)
		nv := 3
		q := &query.CQ{
			Head: []query.Term{query.V(0)},
			Atoms: []query.Atom{
				query.NewAtom("E", query.V(0), query.V(1)),
				query.NewAtom("E", query.V(1), query.V(2)),
			},
		}
		for i := 0; i < 1+rnd.Intn(3); i++ {
			x, y := query.Var(rnd.Intn(nv)), query.Var(rnd.Intn(nv))
			var l, r query.Term
			if rnd.Intn(4) == 0 {
				l = query.C(relation.Value(rnd.Intn(domain)))
			} else {
				l = query.V(x)
			}
			if rnd.Intn(4) == 0 {
				r = query.C(relation.Value(rnd.Intn(domain)))
			} else {
				r = query.V(y)
			}
			q.Cmps = append(q.Cmps, query.Cmp{Left: l, Right: r, Strict: rnd.Intn(2) == 0})
		}
		want, err := eval.ConjunctiveBrute(q, db)
		if err != nil {
			return true
		}
		got, err := run(q, db)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !relation.EqualSet(got, want) {
			t.Logf("seed %d: mismatch on %v:\n got %v\nwant %v", seed, q, got, want)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 250, Rand: rand.New(rand.NewSource(81))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
