package eval

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pyquery/internal/query"
	"pyquery/internal/relation"
)

func TestMinimizeRemovesFoldableAtoms(t *testing.T) {
	// G(x0) :- E(x0,x1), E(x0,x2): the second atom folds onto the first.
	q := &query.CQ{
		Head: []query.Term{query.V(0)},
		Atoms: []query.Atom{
			query.NewAtom("E", query.V(0), query.V(1)),
			query.NewAtom("E", query.V(0), query.V(2)),
		},
	}
	m, err := Minimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Atoms) != 1 {
		t.Fatalf("minimized to %d atoms, want 1: %v", len(m.Atoms), m)
	}
	eq, err := Equivalent(q, m)
	if err != nil || !eq {
		t.Fatalf("minimization changed semantics: %v %v", eq, err)
	}
}

func TestMinimizeKeepsCore(t *testing.T) {
	// The triangle query is its own core: nothing removable.
	q := &query.CQ{Atoms: []query.Atom{
		query.NewAtom("E", query.V(0), query.V(1)),
		query.NewAtom("E", query.V(1), query.V(2)),
		query.NewAtom("E", query.V(2), query.V(0)),
	}}
	m, err := Minimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Atoms) != 3 {
		t.Fatalf("triangle core shrank: %v", m)
	}
	// Triangle plus a pendant edge from the triangle: the pendant folds.
	q2 := q.Clone()
	q2.Atoms = append(q2.Atoms, query.NewAtom("E", query.V(0), query.V(3)))
	m2, err := Minimize(q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Atoms) != 3 {
		t.Fatalf("pendant atom should fold into the triangle: %v", m2)
	}
}

func TestMinimizeRespectsHeadSafety(t *testing.T) {
	// G(x1) :- E(x0,x1), E(x0,x2): only the x2 atom may go — x1 is in the head.
	q := &query.CQ{
		Head: []query.Term{query.V(1)},
		Atoms: []query.Atom{
			query.NewAtom("E", query.V(0), query.V(1)),
			query.NewAtom("E", query.V(0), query.V(2)),
		},
	}
	m, err := Minimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Atoms) != 1 || !m.Atoms[0].Args[1].Equal(query.V(1)) {
		t.Fatalf("wrong atom survived: %v", m)
	}
}

func TestMinimizeRejectsConstraints(t *testing.T) {
	q := &query.CQ{
		Atoms: []query.Atom{query.NewAtom("E", query.V(0), query.V(1))},
		Ineqs: []query.Ineq{query.NeqVars(0, 1)},
	}
	if _, err := Minimize(q); err == nil {
		t.Fatal("≠ atoms accepted by Minimize")
	}
}

// Property: minimization preserves the answer on random instances.
func TestQuickMinimizePreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		q, db := randCQInstance(rnd)
		q.Ineqs, q.Cmps = nil, nil
		if err := q.Validate(db); err != nil {
			return true
		}
		m, err := Minimize(q)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(m.Atoms) > len(q.Atoms) {
			t.Logf("seed %d: minimization grew the query", seed)
			return false
		}
		want, err := run(q, db, Options{})
		if err != nil {
			return true
		}
		got, err := run(m, db, Options{})
		if err != nil {
			t.Logf("seed %d: minimized query fails to evaluate: %v", seed, err)
			return false
		}
		if !relation.EqualSet(got, want) {
			t.Logf("seed %d: answers differ after minimization:\n%v\n%v", seed, q, m)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(131))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
