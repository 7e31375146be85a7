package eval

import (
	"testing"

	"pyquery/internal/query"
	"pyquery/internal/relation"
)

// pathDB is a little directed graph: E = {(0,1),(1,2),(2,3),(1,4)}.
func pathDB() *query.DB {
	db := query.NewDB()
	db.Set("E", query.Table(2,
		[]relation.Value{0, 1}, []relation.Value{1, 2},
		[]relation.Value{2, 3}, []relation.Value{1, 4}))
	return db
}

func TestConjunctivePathQuery(t *testing.T) {
	// G(x0,x2) :- E(x0,x1), E(x1,x2): pairs at distance 2.
	q := &query.CQ{
		Head:  []query.Term{query.V(0), query.V(2)},
		Atoms: []query.Atom{query.NewAtom("E", query.V(0), query.V(1)), query.NewAtom("E", query.V(1), query.V(2))},
	}
	res, err := run(q, pathDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := query.Table(2,
		[]relation.Value{0, 2}, []relation.Value{0, 4},
		[]relation.Value{1, 3})
	if !relation.EqualSet(res, want) {
		t.Fatalf("distance-2 pairs = %v, want %v", res, want)
	}
}

func TestConjunctiveBooleanAndConstants(t *testing.T) {
	db := pathDB()
	// Boolean: is there an edge out of 2?
	q := &query.CQ{Atoms: []query.Atom{query.NewAtom("E", query.C(2), query.V(0))}}
	ok, err := runBool(q, db, Options{})
	if err != nil || !ok {
		t.Fatalf("edge out of 2 exists: %v %v", ok, err)
	}
	q2 := &query.CQ{Atoms: []query.Atom{query.NewAtom("E", query.C(3), query.V(0))}}
	ok, err = runBool(q2, db, Options{})
	if err != nil || ok {
		t.Fatalf("no edge out of 3: %v %v", ok, err)
	}
}

func TestConjunctiveRepeatedVariable(t *testing.T) {
	db := query.NewDB()
	db.Set("R", query.Table(2,
		[]relation.Value{1, 1}, []relation.Value{1, 2}, []relation.Value{3, 3}))
	// G(x0) :- R(x0,x0): diagonal.
	q := &query.CQ{
		Head:  []query.Term{query.V(0)},
		Atoms: []query.Atom{query.NewAtom("R", query.V(0), query.V(0))},
	}
	res, err := run(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := query.Table(1, []relation.Value{1}, []relation.Value{3})
	if !relation.EqualSet(res, want) {
		t.Fatalf("diagonal = %v", res)
	}
}

func TestConjunctiveWithIneqAndCmp(t *testing.T) {
	db := pathDB()
	// Distance-2 pairs with endpoints distinct and increasing.
	q := &query.CQ{
		Head: []query.Term{query.V(0), query.V(2)},
		Atoms: []query.Atom{
			query.NewAtom("E", query.V(0), query.V(1)),
			query.NewAtom("E", query.V(1), query.V(2)),
		},
		Ineqs: []query.Ineq{query.NeqVars(0, 2)},
		Cmps:  []query.Cmp{query.Lt(query.V(0), query.V(2))},
	}
	res, err := run(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := query.Table(2,
		[]relation.Value{0, 2}, []relation.Value{0, 4}, []relation.Value{1, 3})
	if !relation.EqualSet(res, want) {
		t.Fatalf("constrained pairs = %v", res)
	}
	// Now exclude via x2 ≠ 2 and x0 > 0 … i.e. 0 < x0.
	q.Ineqs = append(q.Ineqs, query.NeqConst(2, 2))
	q.Cmps = append(q.Cmps, query.Lt(query.C(0), query.V(0)))
	res, err = run(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want = query.Table(2, []relation.Value{1, 3})
	if !relation.EqualSet(res, want) {
		t.Fatalf("doubly constrained pairs = %v", res)
	}
}

func TestConjunctiveNoAtoms(t *testing.T) {
	db := pathDB()
	q := &query.CQ{Head: []query.Term{query.C(7)}}
	res, err := run(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Row(0)[0] != 7 {
		t.Fatalf("constant head query = %v", res)
	}
	// Ground false comparison makes it empty.
	q.Cmps = []query.Cmp{query.Lt(query.C(1), query.C(0))}
	res, err = run(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("ground-false query returned %v", res)
	}
}

func TestConjunctiveCrossProductComponents(t *testing.T) {
	db := query.NewDB()
	db.Set("A", query.Table(1, []relation.Value{1}, []relation.Value{2}))
	db.Set("B", query.Table(1, []relation.Value{10}, []relation.Value{20}))
	q := &query.CQ{
		Head:  []query.Term{query.V(0), query.V(1)},
		Atoms: []query.Atom{query.NewAtom("A", query.V(0)), query.NewAtom("B", query.V(1))},
	}
	res, err := run(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("cross product size %d, want 4", res.Len())
	}
}

func TestConjunctiveEmptyRelationShortCircuits(t *testing.T) {
	db := pathDB()
	db.Set("Z", query.NewTable(1))
	q := &query.CQ{
		Atoms: []query.Atom{query.NewAtom("E", query.V(0), query.V(1)), query.NewAtom("Z", query.V(0))},
	}
	ok, err := runBool(q, db, Options{})
	if err != nil || ok {
		t.Fatalf("empty atom must falsify query: %v %v", ok, err)
	}
}

func TestNoReorderOptionGivesSameAnswers(t *testing.T) {
	db := pathDB()
	q := &query.CQ{
		Head: []query.Term{query.V(0), query.V(2)},
		Atoms: []query.Atom{
			query.NewAtom("E", query.V(1), query.V(2)),
			query.NewAtom("E", query.V(0), query.V(1)),
		},
	}
	a, err := run(q, db, Options{NoReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualSet(a, b) {
		t.Fatalf("reorder changed the answer: %v vs %v", a, b)
	}
}

func TestReduceAtom(t *testing.T) {
	db := query.NewDB()
	db.Set("R", query.Table(3,
		[]relation.Value{1, 1, 5}, []relation.Value{1, 2, 5},
		[]relation.Value{2, 2, 5}, []relation.Value{2, 2, 6}))
	// R(x0, x0, 5): rows with col0==col1 and col2==5 → {1,2}... only (1,1,5) and (2,2,5).
	s, vars := ReduceAtom(query.NewAtom("R", query.V(0), query.V(0), query.C(5)), db)
	if len(vars) != 1 || vars[0] != 0 {
		t.Fatalf("vars = %v", vars)
	}
	if s.Len() != 2 || s.Width() != 1 {
		t.Fatalf("reduced = %v", s)
	}
	if !s.Contains([]relation.Value{1}) || !s.Contains([]relation.Value{2}) {
		t.Fatalf("reduced contents wrong: %v", s)
	}
}

func TestFirstOrderNegationAndForall(t *testing.T) {
	db := pathDB()
	// Sinks: x0 with no outgoing edge: ∀x1 ¬E(x0,x1).
	q := &query.FOQuery{
		Head: []query.Term{query.V(0)},
		Body: query.Forall{V: 1, Sub: query.Not{Sub: query.FAtom{Atom: query.NewAtom("E", query.V(0), query.V(1))}}},
	}
	res, err := FirstOrder(q, db)
	if err != nil {
		t.Fatal(err)
	}
	// Active domain {0,1,2,3,4}; sinks are 3 and 4.
	want := query.Table(1, []relation.Value{3}, []relation.Value{4})
	if !relation.EqualSet(res, want) {
		t.Fatalf("sinks = %v, want %v", res, want)
	}
}

func TestFirstOrderShadowing(t *testing.T) {
	db := pathDB()
	// ∃x0 (E(x0, x1) ∧ ∃x1 E(x1, x0)) — inner x1 shadows; free var x1.
	body := query.Exists{V: 0, Sub: query.Conj(
		query.FAtom{Atom: query.NewAtom("E", query.V(0), query.V(1))},
		query.Exists{V: 1, Sub: query.FAtom{Atom: query.NewAtom("E", query.V(1), query.V(0))}},
	)}
	q := &query.FOQuery{Head: []query.Term{query.V(1)}, Body: body}
	res, err := FirstOrder(q, db)
	if err != nil {
		t.Fatal(err)
	}
	// x1 such that some x0 has edge x0→x1 and x0 has an in-edge:
	// x0=1 (in-edge from 0): x1 ∈ {2,4}; x0=2 (in-edge 1): x1=3.
	want := query.Table(1, []relation.Value{2}, []relation.Value{3}, []relation.Value{4})
	if !relation.EqualSet(res, want) {
		t.Fatalf("shadowed query = %v, want %v", res, want)
	}
}

func TestFirstOrderBool(t *testing.T) {
	db := pathDB()
	// ∃x0∃x1∃x2: path of length 2.
	body := query.Exists{V: 0, Sub: query.Exists{V: 1, Sub: query.Exists{V: 2, Sub: query.Conj(
		query.FAtom{Atom: query.NewAtom("E", query.V(0), query.V(1))},
		query.FAtom{Atom: query.NewAtom("E", query.V(1), query.V(2))},
	)}}}
	ok, err := FirstOrderBool(&query.FOQuery{Body: body}, db)
	if err != nil || !ok {
		t.Fatalf("2-path exists: %v %v", ok, err)
	}
}

func TestPositiveRejectsNegation(t *testing.T) {
	db := pathDB()
	q := &query.FOQuery{Body: query.Not{Sub: query.FAtom{Atom: query.NewAtom("E", query.C(0), query.C(1))}}}
	if _, err := Positive(q, db); err == nil {
		t.Fatal("negation accepted by Positive")
	}
	if _, err := PositiveBool(q, db); err == nil {
		t.Fatal("negation accepted by PositiveBool")
	}
}

func TestPositiveDisjunction(t *testing.T) {
	db := pathDB()
	// x0 reachable from 0 in one or two steps.
	body := query.Disj(
		query.FAtom{Atom: query.NewAtom("E", query.C(0), query.V(0))},
		query.Exists{V: 1, Sub: query.Conj(
			query.FAtom{Atom: query.NewAtom("E", query.C(0), query.V(1))},
			query.FAtom{Atom: query.NewAtom("E", query.V(1), query.V(0))},
		)},
	)
	res, err := Positive(&query.FOQuery{Head: []query.Term{query.V(0)}, Body: body}, db)
	if err != nil {
		t.Fatal(err)
	}
	want := query.Table(1, []relation.Value{1}, []relation.Value{2}, []relation.Value{4})
	if !relation.EqualSet(res, want) {
		t.Fatalf("reachable≤2 = %v, want %v", res, want)
	}
}

func TestContainment(t *testing.T) {
	// Q2: G(x0) :- E(x0,x1),E(x1,x2)  (2-path from x0)
	// Q1: G(x0) :- E(x0,x1)           (1-path from x0)
	// Q2 ⊆ Q1 (having a 2-path implies having a 1-path).
	q1 := &query.CQ{Head: []query.Term{query.V(0)},
		Atoms: []query.Atom{query.NewAtom("E", query.V(0), query.V(1))}}
	q2 := &query.CQ{Head: []query.Term{query.V(0)},
		Atoms: []query.Atom{query.NewAtom("E", query.V(0), query.V(1)), query.NewAtom("E", query.V(1), query.V(2))}}
	ok, err := Contained(q2, q1)
	if err != nil || !ok {
		t.Fatalf("2-path ⊆ 1-path: %v %v", ok, err)
	}
	ok, err = Contained(q1, q2)
	if err != nil || ok {
		t.Fatalf("1-path ⊄ 2-path: %v %v", ok, err)
	}
	// Equivalence under variable renaming.
	q1r := &query.CQ{Head: []query.Term{query.V(5)},
		Atoms: []query.Atom{query.NewAtom("E", query.V(5), query.V(9))}}
	eq, err := Equivalent(q1, q1r)
	if err != nil || !eq {
		t.Fatalf("renamed queries must be equivalent: %v %v", eq, err)
	}
}

func TestContainmentWithConstantsAndErrors(t *testing.T) {
	qc := &query.CQ{Head: []query.Term{query.V(0)},
		Atoms: []query.Atom{query.NewAtom("E", query.V(0), query.C(3))}}
	qv := &query.CQ{Head: []query.Term{query.V(0)},
		Atoms: []query.Atom{query.NewAtom("E", query.V(0), query.V(1))}}
	// qc ⊆ qv (an edge to 3 is an edge).
	ok, err := Contained(qc, qv)
	if err != nil || !ok {
		t.Fatalf("constant query containment: %v %v", ok, err)
	}
	ok, err = Contained(qv, qc)
	if err != nil || ok {
		t.Fatalf("reverse containment should fail: %v %v", ok, err)
	}
	// Arity mismatch across queries → just "not contained".
	qarity := &query.CQ{Head: []query.Term{query.V(0)},
		Atoms: []query.Atom{query.NewAtom("E", query.V(0), query.V(1), query.V(2))}}
	ok, err = Contained(qv, qarity)
	if err != nil || ok {
		t.Fatalf("arity-mismatched containment should be false: %v %v", ok, err)
	}
	// Head arity mismatch is an error.
	if _, err := Contained(qv, &query.CQ{}); err == nil {
		t.Fatal("head arity mismatch accepted")
	}
	// Ineqs unsupported.
	if _, err := Contained(&query.CQ{Head: []query.Term{query.V(0)},
		Atoms: []query.Atom{query.NewAtom("E", query.V(0), query.V(1))},
		Ineqs: []query.Ineq{query.NeqVars(0, 1)}}, qv); err == nil {
		t.Fatal("≠ atoms accepted in containment")
	}
}

func TestValidationErrorsPropagate(t *testing.T) {
	db := pathDB()
	bad := &query.CQ{Atoms: []query.Atom{query.NewAtom("Nope", query.V(0))}}
	if _, err := run(bad, db, Options{}); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := ConjunctiveBrute(bad, db); err == nil {
		t.Fatal("unknown relation accepted by brute")
	}
	if _, err := runBool(bad, db, Options{}); err == nil {
		t.Fatal("unknown relation accepted by bool")
	}
}
