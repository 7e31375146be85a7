package yannakakis

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pyquery/internal/eval"
	"pyquery/internal/governor"
	"pyquery/internal/query"
	"pyquery/internal/relation"
)

// run and runBool reach the engine the only way there is: Compile, then one
// ungoverned execution.
func run(q *query.CQ, db *query.DB, opts Options) (*relation.Relation, error) {
	pr, err := Compile(q, db, opts)
	if err != nil {
		return nil, err
	}
	return pr.Exec(context.Background(), nil, nil)
}

func runBool(q *query.CQ, db *query.DB, opts Options) (bool, error) {
	pr, err := Compile(q, db, opts)
	if err != nil {
		return false, err
	}
	return pr.ExecBool(context.Background(), nil, nil)
}

func pathDB() *query.DB {
	db := query.NewDB()
	db.Set("E", query.Table(2,
		[]relation.Value{0, 1}, []relation.Value{1, 2},
		[]relation.Value{2, 3}, []relation.Value{1, 4}))
	return db
}

func TestEvaluatePathQuery(t *testing.T) {
	q := &query.CQ{
		Head: []query.Term{query.V(0), query.V(2)},
		Atoms: []query.Atom{
			query.NewAtom("E", query.V(0), query.V(1)),
			query.NewAtom("E", query.V(1), query.V(2)),
		},
	}
	got, err := run(q, pathDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eval.ConjunctiveBrute(q, pathDB())
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualSet(got, want) {
		t.Fatalf("yannakakis %v != backtracking %v", got, want)
	}
	ok, err := runBool(q, pathDB(), Options{})
	if err != nil || ok != want.Bool() {
		t.Fatalf("EvaluateBool = %v %v", ok, err)
	}
}

func TestCyclicQueryRejected(t *testing.T) {
	q := &query.CQ{
		Atoms: []query.Atom{
			query.NewAtom("E", query.V(0), query.V(1)),
			query.NewAtom("E", query.V(1), query.V(2)),
			query.NewAtom("E", query.V(2), query.V(0)),
		},
	}
	if IsAcyclic(q) {
		t.Fatal("triangle query is cyclic")
	}
	if _, err := run(q, pathDB(), Options{}); !errors.Is(err, ErrCyclic) {
		t.Fatalf("want ErrCyclic, got %v", err)
	}
	if _, err := runBool(q, pathDB(), Options{}); !errors.Is(err, ErrCyclic) {
		t.Fatalf("want ErrCyclic, got %v", err)
	}
}

func TestIneqAtomsRejected(t *testing.T) {
	q := &query.CQ{
		Atoms: []query.Atom{query.NewAtom("E", query.V(0), query.V(1))},
		Ineqs: []query.Ineq{query.NeqVars(0, 1)},
	}
	if _, err := run(q, pathDB(), Options{}); err == nil {
		t.Fatal("≠ atoms must be rejected here (core engine's job)")
	}
}

func TestNoAtomsQuery(t *testing.T) {
	q := &query.CQ{Head: []query.Term{query.C(9), query.C(8)}}
	got, err := run(q, pathDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Row(0)[0] != 9 || got.Row(0)[1] != 8 {
		t.Fatalf("constant head = %v", got)
	}
	ok, err := runBool(&query.CQ{}, pathDB(), Options{})
	if err != nil || !ok {
		t.Fatalf("empty boolean query is true: %v %v", ok, err)
	}
}

func TestEmptyAtomShortCircuit(t *testing.T) {
	db := pathDB()
	db.Set("Z", query.NewTable(1))
	q := &query.CQ{
		Head:  []query.Term{query.V(0)},
		Atoms: []query.Atom{query.NewAtom("E", query.V(0), query.V(1)), query.NewAtom("Z", query.V(0))},
	}
	got, err := run(q, db, Options{})
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty atom must empty the answer: %v %v", got, err)
	}
}

func TestDisconnectedQueryCrossProduct(t *testing.T) {
	db := query.NewDB()
	db.Set("A", query.Table(1, []relation.Value{1}, []relation.Value{2}))
	db.Set("B", query.Table(1, []relation.Value{7}))
	q := &query.CQ{
		Head:  []query.Term{query.V(0), query.V(1)},
		Atoms: []query.Atom{query.NewAtom("A", query.V(0)), query.NewAtom("B", query.V(1))},
	}
	got, err := run(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("cross product size = %d, want 2", got.Len())
	}
}

func TestBooleanHeadAndGroundAtoms(t *testing.T) {
	db := pathDB()
	q := &query.CQ{
		Atoms: []query.Atom{
			query.NewAtom("E", query.C(0), query.C(1)), // ground, true
			query.NewAtom("E", query.V(0), query.V(1)),
		},
	}
	got, err := run(q, db, Options{})
	if err != nil || !got.Bool() {
		t.Fatalf("boolean query with ground atom: %v %v", got, err)
	}
	qf := &query.CQ{Atoms: []query.Atom{query.NewAtom("E", query.C(3), query.C(0))}}
	got, err = run(qf, db, Options{})
	if err != nil || got.Bool() {
		t.Fatalf("false ground atom: %v %v", got, err)
	}
}

func TestStarQueryWithRepeatedRelation(t *testing.T) {
	db := pathDB()
	// G(x0) :- E(x0,x1), E(x0,x2), E(x0,x3): out-degree ≥ 1 center (star).
	q := &query.CQ{
		Head: []query.Term{query.V(0)},
		Atoms: []query.Atom{
			query.NewAtom("E", query.V(0), query.V(1)),
			query.NewAtom("E", query.V(0), query.V(2)),
			query.NewAtom("E", query.V(0), query.V(3)),
		},
	}
	got, err := run(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := eval.ConjunctiveBrute(q, db)
	if !relation.EqualSet(got, want) {
		t.Fatalf("star query: %v vs %v", got, want)
	}
}

// randAcyclicInstance builds an acyclic CQ by ear construction: each atom
// shares variables only with its parent atom, which keeps the hypergraph
// α-acyclic by construction.
func randAcyclicInstance(rnd *rand.Rand) (*query.CQ, *query.DB) {
	db := query.NewDB()
	domain := 2 + rnd.Intn(4)
	nAtoms := 1 + rnd.Intn(4)

	q := &query.CQ{}
	nextVar := query.Var(0)
	atomVars := make([][]query.Var, 0, nAtoms)
	for i := 0; i < nAtoms; i++ {
		var vars []query.Var
		if i > 0 {
			parent := atomVars[rnd.Intn(len(atomVars))]
			// Share a random subset of the parent's vars.
			for _, v := range parent {
				if rnd.Intn(2) == 0 {
					vars = append(vars, v)
				}
			}
		}
		fresh := 1 + rnd.Intn(2)
		for f := 0; f < fresh; f++ {
			vars = append(vars, nextVar)
			nextVar++
		}
		atomVars = append(atomVars, vars)
	}
	for i, vars := range atomVars {
		name := string(rune('A' + i))
		arity := len(vars)
		r := query.NewTable(arity)
		rows := 1 + rnd.Intn(10)
		row := make([]relation.Value, arity)
		for j := 0; j < rows; j++ {
			for c := range row {
				row[c] = relation.Value(rnd.Intn(domain))
			}
			r.Append(row...)
		}
		r.Dedup()
		db.Set(name, r)
		args := make([]query.Term, arity)
		for j, v := range vars {
			args[j] = query.V(v)
		}
		q.Atoms = append(q.Atoms, query.Atom{Rel: name, Args: args})
	}
	// Head: random subset of variables (possibly empty → boolean).
	all := q.BodyVars()
	for _, v := range all {
		if rnd.Intn(3) == 0 {
			q.Head = append(q.Head, query.V(v))
		}
	}
	return q, db
}

// Property: Yannakakis (with and without the full reducer) agrees with the
// brute-force oracle on random acyclic instances.
func TestQuickAgainstBrute(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		q, db := randAcyclicInstance(rnd)
		if !IsAcyclic(q) {
			t.Logf("seed %d: generator produced cyclic query %v", seed, q)
			return false
		}
		want, err := eval.ConjunctiveBrute(q, db)
		if err != nil {
			return true
		}
		got, err := run(q, db, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !relation.EqualSet(got, want) {
			t.Logf("seed %d: mismatch on %v:\n got %v\nwant %v", seed, q, got, want)
			return false
		}
		noRed, err := run(q, db, Options{NoFullReducer: true})
		if err != nil || !relation.EqualSet(noRed, want) {
			t.Logf("seed %d: NoFullReducer mismatch", seed)
			return false
		}
		ok, err := runBool(q, db, Options{})
		if err != nil || ok != want.Bool() {
			t.Logf("seed %d: bool mismatch (%v vs %v)", seed, ok, want.Bool())
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(61))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestJoinProjectNilBail pins the documented contract of the upward pass: a
// canceled context or a tripped meter makes JoinProject return nil (the tree
// is left partially joined, so any relation it could return would be
// garbage), in both the serial and the level-parallel variants, and the
// typed cause is readable from the context / meter afterwards.
func TestJoinProjectNilBail(t *testing.T) {
	q := &query.CQ{
		Head: []query.Term{query.V(0), query.V(2)},
		Atoms: []query.Atom{
			query.NewAtom("E", query.V(0), query.V(1)),
			query.NewAtom("E", query.V(1), query.V(2)),
		},
	}
	compile := func() *Tree {
		t.Helper()
		pr, err := Compile(q, pathDB(), Options{})
		if err != nil || pr.tree == nil {
			t.Fatalf("Compile: program=%+v err=%v", pr, err)
		}
		return pr.tree.Fork()
	}

	// Control: an undisturbed pass returns the head-variable relation.
	ft := compile()
	ft.Workers = 1
	if pstar := ft.JoinProject(); pstar == nil || pstar.Empty() {
		t.Fatalf("control JoinProject = %v, want non-empty relation", pstar)
	}

	// Canceled context: both the serial walk and the level-parallel walk
	// must bail and return nil.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 3} {
		ft := compile()
		ft.Workers = workers
		ft.Ctx = canceled
		if pstar := ft.JoinProject(); pstar != nil {
			t.Fatalf("workers=%d: JoinProject under canceled ctx = %v, want nil", workers, pstar)
		}
		if ft.Ctx.Err() == nil {
			t.Fatalf("workers=%d: canceled ctx lost its error", workers)
		}
	}

	// Tripped meter: a 1-row budget trips on the first join-project charge;
	// the pass must return nil and the meter must carry the typed cause.
	for _, workers := range []int{1, 3} {
		ft := compile()
		ft.Workers = workers
		ft.Meter = governor.New(context.Background(), "yannakakis", 1, 1<<40)
		if pstar := ft.JoinProject(); pstar != nil {
			t.Fatalf("workers=%d: JoinProject under tripped meter = %v, want nil", workers, pstar)
		}
		if err := ft.Meter.Err(); !errors.Is(err, governor.ErrRowLimit) {
			t.Fatalf("workers=%d: meter error = %v, want ErrRowLimit", workers, err)
		}
	}
}
