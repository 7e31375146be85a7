package eval

import (
	"math/rand"
	"testing"

	"pyquery/internal/query"
	"pyquery/internal/relation"
)

// forceFanout lowers the fan-out work gate for the duration of a test so
// small randomized instances exercise the parallel backtracker (chunked
// first-step fan-out, per-worker cursors, global-seen merge, Bool early
// stop) rather than silently comparing serial to serial.
func forceFanout(t *testing.T) {
	t.Helper()
	old := minFanWork
	minFanWork = 0
	t.Cleanup(func() { minFanWork = old })
}

func randRel(rnd *rand.Rand, arity, rows, domain int) *relation.Relation {
	r := query.NewTable(arity)
	row := make([]relation.Value, arity)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = relation.Value(rnd.Intn(domain))
		}
		r.Append(row...)
	}
	return r.Dedup()
}

// The parallel backtracker must emit exactly the serial evaluator's output
// (same tuples, same order) and agree on the Boolean decision, including on
// queries with ≠/comparison constraints and ground atoms.
func TestParallelBacktrackerMatchesSerial(t *testing.T) {
	forceFanout(t)
	for seed := int64(0); seed < 40; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		db := query.NewDB()
		db.Set("E", randRel(rnd, 2, 15+rnd.Intn(40), 5+rnd.Intn(5)))
		db.Set("L", randRel(rnd, 1, 1+rnd.Intn(6), 5))
		q := &query.CQ{
			Head: []query.Term{query.V(0), query.V(2)},
			Atoms: []query.Atom{
				query.NewAtom("E", query.V(0), query.V(1)),
				query.NewAtom("E", query.V(1), query.V(2)),
				query.NewAtom("E", query.V(2), query.V(0)), // cyclic
				query.NewAtom("L", query.V(0)),
			},
			Ineqs: []query.Ineq{query.NeqVars(0, 2)},
			Cmps:  []query.Cmp{query.Le(query.V(1), query.V(2))},
		}
		serial, err := run(q, db, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		serialOK, err := runBool(q, db, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 3, 8} {
			got, err := run(q, db, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != serial.Len() {
				t.Fatalf("seed %d par %d: %d tuples, serial %d", seed, par, got.Len(), serial.Len())
			}
			for i := 0; i < got.Len(); i++ {
				for c, v := range got.Row(i) {
					if serial.Row(i)[c] != v {
						t.Fatalf("seed %d par %d: row %d differs from serial (order must match)", seed, par, i)
					}
				}
			}
			gotOK, err := runBool(q, db, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != serialOK {
				t.Fatalf("seed %d par %d: bool %v, serial %v", seed, par, gotOK, serialOK)
			}
		}
	}
}

// Ground atoms ahead of the fan-out step: the fan step is the first
// binding step, and preceding tautologies must not break the split.
func TestParallelBacktrackerGroundPrefix(t *testing.T) {
	forceFanout(t)
	db := query.NewDB()
	e := query.NewTable(2)
	for i := 0; i < 30; i++ {
		e.Append(relation.Value(i%6), relation.Value((i+1)%6))
	}
	db.Set("E", e.Dedup())
	q := &query.CQ{
		Head: []query.Term{query.V(0)},
		Atoms: []query.Atom{
			query.NewAtom("E", query.C(0), query.C(1)), // ground → tautology step
			query.NewAtom("E", query.V(0), query.V(1)),
			query.NewAtom("E", query.V(1), query.V(0)),
		},
	}
	serial, err := run(q, db, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(q, db, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualSet(serial, par) {
		t.Fatalf("ground-prefix fan-out diverges: %v vs %v", serial, par)
	}
}
