package ivm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pyquery/internal/eval"
	"pyquery/internal/governor"
	"pyquery/internal/query"
	"pyquery/internal/relation"
)

func v(x query.Var) query.Term                  { return query.V(x) }
func c(x relation.Value) query.Term             { return query.C(x) }
func row(vs ...relation.Value) []relation.Value { return vs }

// mirror applies Refresh's deltas to an independent tuple set, asserting
// exactness: added tuples must be new, removed tuples must be present.
type mirror struct {
	t     *testing.T
	width int
	rows  map[string][]relation.Value
}

func newMirror(t *testing.T, width int) *mirror {
	return &mirror{t: t, width: width, rows: map[string][]relation.Value{}}
}

func (mr *mirror) apply(added, removed *relation.Relation) {
	mr.t.Helper()
	for i := 0; i < removed.Len(); i++ {
		k := fmt.Sprint(removed.Row(i))
		if _, ok := mr.rows[k]; !ok {
			mr.t.Fatalf("removed tuple %v was not in the view", removed.Row(i))
		}
		delete(mr.rows, k)
	}
	for i := 0; i < added.Len(); i++ {
		k := fmt.Sprint(added.Row(i))
		if _, ok := mr.rows[k]; ok {
			mr.t.Fatalf("added tuple %v already in the view", added.Row(i))
		}
		mr.rows[k] = append([]relation.Value(nil), added.Row(i)...)
	}
}

func (mr *mirror) check(q *query.CQ, db *query.DB) {
	mr.t.Helper()
	bt, err := eval.Compile(q, db, eval.Options{Parallelism: 1}, nil)
	if err != nil {
		mr.t.Fatalf("fresh evaluation: %v", err)
	}
	want, err := bt.Exec(context.Background(), nil, nil)
	if err != nil {
		mr.t.Fatalf("fresh evaluation: %v", err)
	}
	if want.Len() != len(mr.rows) {
		mr.t.Fatalf("view has %d tuples, fresh evaluation %d", len(mr.rows), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if _, ok := mr.rows[fmt.Sprint(want.Row(i))]; !ok {
			mr.t.Fatalf("view missing tuple %v", want.Row(i))
		}
	}
}

func refresh(t *testing.T, m *Maint, workers int) (*relation.Relation, *relation.Relation) {
	t.Helper()
	added, removed, err := m.Refresh(context.Background(), nil, workers)
	if err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	return added, removed
}

func pathQuery() *query.CQ {
	return &query.CQ{
		Head:  []query.Term{v(0), v(2)},
		Atoms: []query.Atom{query.NewAtom("E", v(0), v(1)), query.NewAtom("E", v(1), v(2))},
	}
}

func TestMaintPathInsertDelete(t *testing.T) {
	db := query.NewDB()
	db.Set("E", query.Table(2, row(1, 2), row(2, 3)))
	q := pathQuery()
	m, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	mr := newMirror(t, 2)
	mr.apply(refresh(t, m, 1))
	mr.check(q, db)

	// One-row insert creating new paths through both atom occurrences.
	db.Insert("E", row(3, 4))
	mr.apply(refresh(t, m, 1))
	mr.check(q, db)

	// Delete an edge shared by several derivations.
	db.Delete("E", row(2, 3))
	mr.apply(refresh(t, m, 1))
	mr.check(q, db)

	// No-op refresh.
	added, removed := refresh(t, m, 1)
	if added.Len() != 0 || removed.Len() != 0 {
		t.Fatalf("idle refresh returned %d/%d deltas", added.Len(), removed.Len())
	}
}

// A tuple with two derivations must survive losing one of them — the
// counting semantics the delta rules exist for.
func TestMaintCountingSurvivesAlternateDerivation(t *testing.T) {
	db := query.NewDB()
	// Two paths 1→2→9 and 1→5→9.
	db.Set("E", query.Table(2, row(1, 2), row(2, 9), row(1, 5), row(5, 9)))
	q := pathQuery()
	m, _ := New(q, db)
	mr := newMirror(t, 2)
	mr.apply(refresh(t, m, 1))
	db.Delete("E", row(2, 9))
	added, removed := refresh(t, m, 1)
	if removed.Len() != 0 {
		t.Fatalf("tuple (1,9) still derivable via 1→5→9, but removed=%v", removed)
	}
	mr.apply(added, removed)
	mr.check(q, db)
	db.Delete("E", row(5, 9))
	mr.apply(refresh(t, m, 1))
	mr.check(q, db)
}

func TestMaintConstantsIneqsCmps(t *testing.T) {
	db := query.NewDB()
	db.Set("E", query.Table(2, row(1, 2), row(1, 3), row(2, 3), row(3, 1)))
	q := &query.CQ{
		Head:  []query.Term{v(1), c(77)},
		Atoms: []query.Atom{query.NewAtom("E", c(1), v(1)), query.NewAtom("E", v(1), v(2))},
		Ineqs: []query.Ineq{query.NeqConst(1, 9)},
		Cmps:  []query.Cmp{query.Lt(v(1), v(2))},
	}
	m, err := New(q, db)
	if err != nil {
		t.Fatal(err)
	}
	mr := newMirror(t, 2)
	mr.apply(refresh(t, m, 1))
	mr.check(q, db)
	db.Insert("E", row(1, 9), row(9, 50))
	mr.apply(refresh(t, m, 1))
	mr.check(q, db)
	db.Delete("E", row(2, 3))
	mr.apply(refresh(t, m, 1))
	mr.check(q, db)
}

func TestMaintBooleanQuery(t *testing.T) {
	db := query.NewDB()
	db.Set("E", query.Table(2, row(1, 2)))
	q := &query.CQ{Atoms: []query.Atom{query.NewAtom("E", v(0), v(0))}}
	m, _ := New(q, db)
	mr := newMirror(t, 0)
	mr.apply(refresh(t, m, 1))
	mr.check(q, db)
	db.Insert("E", row(4, 4))
	mr.apply(refresh(t, m, 1))
	mr.check(q, db)
	if m.Result().Len() != 1 {
		t.Fatalf("Boolean view true should hold one empty tuple, has %d", m.Result().Len())
	}
	db.Delete("E", row(4, 4))
	mr.apply(refresh(t, m, 1))
	if m.Result().Len() != 0 {
		t.Fatalf("Boolean view should be false, has %d tuples", m.Result().Len())
	}
}

// Set replaces a relation wholesale: the changelog has no tuple deltas, so
// Refresh must rebuild and still report the exact membership change.
func TestMaintSetFallsBackToRebuild(t *testing.T) {
	db := query.NewDB()
	db.Set("E", query.Table(2, row(1, 2), row(2, 3)))
	q := pathQuery()
	m, _ := New(q, db)
	mr := newMirror(t, 2)
	mr.apply(refresh(t, m, 1))
	db.Set("E", query.Table(2, row(2, 3), row(3, 4), row(4, 5)))
	mr.apply(refresh(t, m, 1))
	mr.check(q, db)
}

func TestMaintNotMaintainable(t *testing.T) {
	db := query.NewDB()
	db.Set("E", query.Table(2))
	if _, err := New(&query.CQ{Head: []query.Term{c(1)}}, db); err != ErrNotMaintainable {
		t.Fatalf("zero-atom query: err = %v, want ErrNotMaintainable", err)
	}
	q := &query.CQ{Atoms: []query.Atom{query.NewAtom("E", query.P("p"), v(0))}}
	if _, err := New(q, db); err != ErrNotMaintainable {
		t.Fatalf("parameterized query: err = %v, want ErrNotMaintainable", err)
	}
}

// TestMaintRandomizedAgainstFreshEval is the package's model check: random
// mutation batches against a fresh evaluation every round, serial and
// parallel, across query shapes.
func TestMaintRandomizedAgainstFreshEval(t *testing.T) {
	shapes := []struct {
		name string
		q    *query.CQ
	}{
		{"path", pathQuery()},
		{"triangle", &query.CQ{
			Head: []query.Term{v(0), v(1), v(2)},
			Atoms: []query.Atom{
				query.NewAtom("E", v(0), v(1)),
				query.NewAtom("E", v(1), v(2)),
				query.NewAtom("E", v(2), v(0)),
			},
		}},
		{"two-rel-cmp", &query.CQ{
			Head: []query.Term{v(0), v(2)},
			Atoms: []query.Atom{
				query.NewAtom("E", v(0), v(1)),
				query.NewAtom("F", v(1), v(2)),
			},
			Cmps: []query.Cmp{query.Le(v(0), v(2))},
		}},
	}
	for _, sh := range shapes {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/par=%d", sh.name, workers), func(t *testing.T) {
				rnd := rand.New(rand.NewSource(42))
				db := query.NewDB()
				names := map[string]bool{}
				for _, a := range sh.q.Atoms {
					names[a.Rel] = true
				}
				for name := range names {
					db.Set(name, query.Table(2))
				}
				randRow := func() []relation.Value {
					return row(relation.Value(rnd.Intn(12)), relation.Value(rnd.Intn(12)))
				}
				name := func() string {
					for n := range names {
						if rnd.Intn(2) == 0 {
							return n
						}
					}
					for n := range names {
						return n
					}
					return ""
				}
				m, err := New(sh.q, db)
				if err != nil {
					t.Fatal(err)
				}
				mr := newMirror(t, len(sh.q.Head))
				for round := 0; round < 40; round++ {
					batch := 1 + rnd.Intn(4)
					for b := 0; b < batch; b++ {
						switch rnd.Intn(4) {
						case 0:
							db.Delete(name(), randRow())
						case 1:
							// occasional wholesale replacement
							if rnd.Intn(10) == 0 {
								nr := query.NewTable(2)
								for i := 0; i < rnd.Intn(20); i++ {
									nr.Append(randRow()...)
								}
								nr.Dedup()
								db.Set(name(), nr)
								continue
							}
							db.Insert(name(), randRow())
						default:
							db.Insert(name(), randRow())
						}
					}
					mr.apply(refresh(t, m, workers))
					mr.check(sh.q, db)
				}
			})
		}
	}
}

// A governor trip mid-refresh must surface the typed error, leave the
// reported result untouched, and let the next (clean) refresh recover.
func TestMaintGovernorTripAndRecover(t *testing.T) {
	db := query.NewDB()
	db.Set("E", query.Table(2, row(1, 2), row(2, 3), row(3, 4)))
	q := pathQuery()
	m, _ := New(q, db)
	mr := newMirror(t, 2)
	mr.apply(refresh(t, m, 1))

	db.Insert("E", row(4, 5))
	governor.SetTestHook(func(n int64, engine, step string) error {
		if step == "delta-pass" {
			return governor.ErrRowLimit
		}
		return nil
	})
	meter := governor.New(context.Background(), "ivm", 0, 0)
	_, _, err := m.Refresh(context.Background(), meter, 1)
	governor.SetTestHook(nil)
	if err == nil {
		t.Fatal("tripped refresh returned nil error")
	}
	var ge *governor.Error
	if !errors.As(err, &ge) {
		t.Fatalf("trip error not typed: %T %v", err, err)
	}
	// Recovery: the next ungoverned refresh rebuilds and reports the exact
	// deltas relative to the last successful result.
	mr.apply(refresh(t, m, 1))
	mr.check(q, db)
}
