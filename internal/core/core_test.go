package core

import (
	"errors"
	"testing"

	"pyquery/internal/query"
	"pyquery/internal/relation"
	"pyquery/internal/yannakakis"
)

// orgDB is the paper's first Section 5 example: EP(employee, project).
func orgDB() *query.DB {
	db := query.NewDB()
	db.Set("EP", query.Table(2,
		[]relation.Value{1, 100}, // alice → p100
		[]relation.Value{1, 101}, // alice → p101
		[]relation.Value{2, 100}, // bob → p100
		[]relation.Value{3, 101}, // carol → p101
		[]relation.Value{3, 102}, // carol → p102
		[]relation.Value{4, 103}, // dave → p103 only
	))
	return db
}

// multiProjectQuery is G(e) ← EP(e,p), EP(e,p′), p ≠ p′.
func multiProjectQuery() *query.CQ {
	return &query.CQ{
		Head: []query.Term{query.V(0)},
		Atoms: []query.Atom{
			query.NewAtom("EP", query.V(0), query.V(1)),
			query.NewAtom("EP", query.V(0), query.V(2)),
		},
		Ineqs: []query.Ineq{query.NeqVars(1, 2)},
	}
}

func TestPaperExampleEmployeesOnTwoProjects(t *testing.T) {
	q := multiProjectQuery()
	if !yannakakis.IsAcyclic(q) {
		t.Fatal("the employee-project query is acyclic with inequalities")
	}
	got, err := run(q, orgDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := query.Table(1, []relation.Value{1}, []relation.Value{3})
	if !relation.EqualSet(got, want) {
		t.Fatalf("employees on >1 project = %v, want %v", got, want)
	}
}

// registrarDB is the paper's second example: SD(student, dept),
// SC(student, course), CD(course, dept).
func registrarDB() *query.DB {
	db := query.NewDB()
	db.Set("SD", query.Table(2,
		[]relation.Value{1, 10}, []relation.Value{2, 10}, []relation.Value{3, 11}))
	db.Set("SC", query.Table(2,
		[]relation.Value{1, 20}, []relation.Value{1, 21},
		[]relation.Value{2, 20}, []relation.Value{3, 22}))
	db.Set("CD", query.Table(2,
		[]relation.Value{20, 10}, []relation.Value{21, 11}, []relation.Value{22, 11}))
	return db
}

func TestPaperExampleStudentsOutsideDept(t *testing.T) {
	// G(s) ← SD(s,d), SC(s,c), CD(c,d′), d ≠ d′.
	q := &query.CQ{
		Head: []query.Term{query.V(0)},
		Atoms: []query.Atom{
			query.NewAtom("SD", query.V(0), query.V(1)),
			query.NewAtom("SC", query.V(0), query.V(2)),
			query.NewAtom("CD", query.V(2), query.V(3)),
		},
		Ineqs: []query.Ineq{query.NeqVars(1, 3)},
	}
	if !yannakakis.IsAcyclic(q) {
		t.Fatal("registrar query is acyclic with inequalities")
	}
	got, err := run(q, registrarDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Student 1 takes course 21 (dept 11) while in dept 10 → outside.
	// Student 2 takes only course 20 (dept 10) → inside.
	// Student 3 takes course 22 (dept 11) while in dept 11 → inside.
	want := query.Table(1, []relation.Value{1})
	if !relation.EqualSet(got, want) {
		t.Fatalf("students outside dept = %v, want %v", got, want)
	}
	// The d≠d′ pair makes I₁ nonempty: SD and CD share no hyperedge.
	i1, _, v1, ok := Partition(q)
	if !ok || len(i1) != 1 || len(v1) != 2 {
		t.Fatalf("partition: i1=%v v1=%v ok=%v", i1, v1, ok)
	}
}

func TestPartition(t *testing.T) {
	q := multiProjectQuery()
	// p,p′ co-occur? They do NOT share an atom: EP(e,p) and EP(e,p′) are
	// different atoms — so p≠p′ is I₁.
	i1, i2, v1, ok := Partition(q)
	if !ok || len(i1) != 1 || len(i2) != 0 || len(v1) != 2 {
		t.Fatalf("partition: i1=%v i2=%v v1=%v", i1, i2, v1)
	}
	// Same-atom inequality is I₂.
	q2 := &query.CQ{
		Atoms: []query.Atom{query.NewAtom("EP", query.V(0), query.V(1))},
		Ineqs: []query.Ineq{query.NeqVars(0, 1), query.NeqConst(0, 5)},
	}
	i1, i2, v1, ok = Partition(q2)
	if !ok || len(i1) != 0 || len(i2) != 2 || len(v1) != 0 {
		t.Fatalf("partition2: i1=%v i2=%v v1=%v", i1, i2, v1)
	}
	// Duplicates and reversals collapse.
	q3 := multiProjectQuery()
	q3.Ineqs = append(q3.Ineqs, query.NeqVars(2, 1), query.NeqVars(1, 2))
	i1, _, _, _ = Partition(q3)
	if len(i1) != 1 {
		t.Fatalf("duplicate pairs not collapsed: %v", i1)
	}
	// x ≠ x is unsatisfiable.
	q4 := &query.CQ{
		Atoms: []query.Atom{query.NewAtom("EP", query.V(0), query.V(1))},
		Ineqs: []query.Ineq{query.NeqVars(0, 0)},
	}
	if _, _, _, ok := Partition(q4); ok {
		t.Fatal("x≠x accepted")
	}
	res, err := run(q4, orgDB(), Options{})
	if err != nil || res.Bool() {
		t.Fatalf("x≠x query must be empty: %v %v", res, err)
	}
}

func TestComparisonsRejected(t *testing.T) {
	q := &query.CQ{
		Atoms: []query.Atom{query.NewAtom("EP", query.V(0), query.V(1))},
		Cmps:  []query.Cmp{query.Lt(query.V(0), query.V(1))},
	}
	if _, err := run(q, orgDB(), Options{}); !errors.Is(err, ErrComparisons) {
		t.Fatalf("want ErrComparisons, got %v", err)
	}
	// Ground-true comparisons are fine; ground-false empty the query.
	qt := &query.CQ{
		Head:  []query.Term{query.V(0)},
		Atoms: []query.Atom{query.NewAtom("EP", query.V(0), query.V(1))},
		Cmps:  []query.Cmp{query.Lt(query.C(0), query.C(1))},
	}
	res, err := run(qt, orgDB(), Options{})
	if err != nil || !res.Bool() {
		t.Fatalf("ground-true comparison: %v %v", res, err)
	}
	qf := qt.Clone()
	qf.Cmps = []query.Cmp{query.Lt(query.C(1), query.C(0))}
	res, err = run(qf, orgDB(), Options{})
	if err != nil || res.Bool() {
		t.Fatalf("ground-false comparison: %v %v", res, err)
	}
}

func TestCyclicRejected(t *testing.T) {
	q := &query.CQ{
		Atoms: []query.Atom{
			query.NewAtom("EP", query.V(0), query.V(1)),
			query.NewAtom("EP", query.V(1), query.V(2)),
			query.NewAtom("EP", query.V(2), query.V(0)),
		},
		Ineqs: []query.Ineq{query.NeqVars(0, 2)},
	}
	if _, err := run(q, orgDB(), Options{}); !errors.Is(err, ErrCyclic) {
		t.Fatalf("want ErrCyclic, got %v", err)
	}
}

func TestDecide(t *testing.T) {
	q := multiProjectQuery()
	ok, err := decide(q, orgDB(), []relation.Value{1}, Options{})
	if err != nil || !ok {
		t.Fatalf("alice is on two projects: %v %v", ok, err)
	}
	ok, err = decide(q, orgDB(), []relation.Value{4}, Options{})
	if err != nil || ok {
		t.Fatalf("dave is on one project: %v %v", ok, err)
	}
	// Constant-head mismatch path.
	qc := &query.CQ{Head: []query.Term{query.C(9)},
		Atoms: []query.Atom{query.NewAtom("EP", query.V(0), query.V(1))}}
	ok, err = decide(qc, orgDB(), []relation.Value{8}, Options{})
	if err != nil || ok {
		t.Fatalf("head-constant mismatch must be false: %v %v", ok, err)
	}
}

func TestStrategiesAgree(t *testing.T) {
	q := multiProjectQuery()
	db := orgDB()
	want, err := run(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{Exact, WHP, MonteCarlo} {
		got, err := run(q, db, Options{Strategy: s, C: 6, Seed: 11})
		if err != nil {
			t.Fatalf("strategy %d: %v", s, err)
		}
		if !relation.EqualSet(got, want) {
			t.Fatalf("strategy %d disagrees: %v vs %v", s, got, want)
		}
	}
}

func TestNoPushdownAgrees(t *testing.T) {
	db := orgDB()
	q := multiProjectQuery()
	q.Ineqs = append(q.Ineqs, query.NeqConst(0, 2)) // exclude bob explicitly
	want, err := run(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := runStats(q, db, Options{NoPushdown: true})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualSet(got, want) {
		t.Fatalf("NoPushdown disagrees: %v vs %v", got, want)
	}
	// Under NoPushdown the constant joins the hash range.
	if stats.K < 3 {
		t.Fatalf("NoPushdown should raise k (vars 1,2 + var 0 + const): k=%d", stats.K)
	}
}

func TestEvaluateBoolAndStats(t *testing.T) {
	q := multiProjectQuery()
	ok, stats, err := runBoolStats(q, orgDB(), Options{})
	if err != nil || !ok {
		t.Fatalf("bool: %v %v", ok, err)
	}
	if stats.K != 2 || stats.I1 != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.FamilySize < 1 || stats.Successes != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// A query made empty by the inequality.
	db := query.NewDB()
	db.Set("EP", query.Table(2, []relation.Value{1, 100}))
	ok, _, err = runBoolStats(q, db, Options{})
	if err != nil || ok {
		t.Fatalf("single-project world must be empty: %v %v", ok, err)
	}
}

func TestNoIneqsDegeneratesToYannakakis(t *testing.T) {
	db := orgDB()
	q := &query.CQ{
		Head: []query.Term{query.V(0), query.V(1)},
		Atoms: []query.Atom{
			query.NewAtom("EP", query.V(0), query.V(1)),
		},
	}
	got, stats, err := runStats(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.K != 0 || stats.FamilySize != 1 {
		t.Fatalf("k=0 run should use the trivial family: %+v", stats)
	}
	if got.Len() != db.MustRel("EP").Len() {
		t.Fatalf("identity query lost tuples: %v", got)
	}
}

func TestDisconnectedComponentsWithCrossIneq(t *testing.T) {
	// G() ← A(x0), B(x1), x0 ≠ x1 — the inequality spans two components
	// linked only through the artificial join-tree root edge.
	db := query.NewDB()
	db.Set("A", query.Table(1, []relation.Value{1}, []relation.Value{2}))
	db.Set("B", query.Table(1, []relation.Value{1}))
	q := &query.CQ{
		Atoms: []query.Atom{query.NewAtom("A", query.V(0)), query.NewAtom("B", query.V(1))},
		Ineqs: []query.Ineq{query.NeqVars(0, 1)},
	}
	ok, err := runBool(q, db, Options{})
	if err != nil || !ok {
		t.Fatalf("A=2,B=1 satisfies x0≠x1: %v %v", ok, err)
	}
	db2 := query.NewDB()
	db2.Set("A", query.Table(1, []relation.Value{1}))
	db2.Set("B", query.Table(1, []relation.Value{1}))
	ok, err = runBool(q, db2, Options{})
	if err != nil || ok {
		t.Fatalf("A=B={1} cannot satisfy x0≠x1: %v %v", ok, err)
	}
}

func TestHeadWithConstantsAndRepeats(t *testing.T) {
	q := &query.CQ{
		Head: []query.Term{query.V(0), query.C(7), query.V(0)},
		Atoms: []query.Atom{
			query.NewAtom("EP", query.V(0), query.V(1)),
			query.NewAtom("EP", query.V(0), query.V(2)),
		},
		Ineqs: []query.Ineq{query.NeqVars(1, 2)},
	}
	got, err := run(q, orgDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := query.Table(3, []relation.Value{1, 7, 1}, []relation.Value{3, 7, 3})
	if !relation.EqualSet(got, want) {
		t.Fatalf("head mapping = %v, want %v", got, want)
	}
}
