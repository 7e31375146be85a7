package eval

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pyquery/internal/query"
	"pyquery/internal/relation"
)

// RandCQInstance builds a random database plus a random conjunctive query
// with ≠ and comparison atoms over it, sized for brute-force oracles.
func randCQInstance(rnd *rand.Rand) (*query.CQ, *query.DB) {
	db := query.NewDB()
	names := []string{"R", "S", "T"}
	arities := []int{1 + rnd.Intn(2), 1 + rnd.Intn(3), 2}
	domain := 2 + rnd.Intn(4)
	for i, name := range names {
		r := query.NewTable(arities[i])
		rows := rnd.Intn(10)
		row := make([]relation.Value, arities[i])
		for j := 0; j < rows; j++ {
			for c := range row {
				row[c] = relation.Value(rnd.Intn(domain))
			}
			r.Append(row...)
		}
		r.Dedup()
		db.Set(name, r)
	}

	nvars := 1 + rnd.Intn(4)
	natoms := 1 + rnd.Intn(4)
	q := &query.CQ{}
	usedVars := make(map[query.Var]bool)
	for i := 0; i < natoms; i++ {
		ri := rnd.Intn(len(names))
		args := make([]query.Term, arities[ri])
		for j := range args {
			if rnd.Intn(5) == 0 {
				args[j] = query.C(relation.Value(rnd.Intn(domain)))
			} else {
				v := query.Var(rnd.Intn(nvars))
				usedVars[v] = true
				args[j] = query.V(v)
			}
		}
		q.Atoms = append(q.Atoms, query.Atom{Rel: names[ri], Args: args})
	}
	var used []query.Var
	for v := range usedVars {
		used = append(used, v)
	}
	if len(used) > 0 {
		// Head: up to two used variables.
		for i := 0; i < 1+rnd.Intn(2); i++ {
			q.Head = append(q.Head, query.V(used[rnd.Intn(len(used))]))
		}
		// Sprinkle constraints over used variables.
		for i := 0; i < rnd.Intn(3); i++ {
			x := used[rnd.Intn(len(used))]
			switch rnd.Intn(3) {
			case 0:
				y := used[rnd.Intn(len(used))]
				if x != y {
					q.Ineqs = append(q.Ineqs, query.NeqVars(x, y))
				}
			case 1:
				q.Ineqs = append(q.Ineqs, query.NeqConst(x, relation.Value(rnd.Intn(domain))))
			default:
				y := used[rnd.Intn(len(used))]
				q.Cmps = append(q.Cmps, query.Cmp{Left: query.V(x), Right: query.V(y), Strict: rnd.Intn(2) == 0})
			}
		}
	}
	return q, db
}

// Property: the backtracking evaluator agrees with brute-force enumeration
// on random instances, with and without the join-order heuristic.
func TestQuickConjunctiveAgreesWithBrute(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		q, db := randCQInstance(rnd)
		want, err := ConjunctiveBrute(q, db)
		if err != nil {
			return true // invalid instance; nothing to compare
		}
		got, err := run(q, db, Options{})
		if err != nil {
			t.Logf("seed %d: evaluator error %v on %v", seed, err, q)
			return false
		}
		if !relation.EqualSet(got, want) {
			t.Logf("seed %d: mismatch on %v:\n got %v\nwant %v", seed, q, got, want)
			return false
		}
		got2, err := run(q, db, Options{NoReorder: true})
		if err != nil || !relation.EqualSet(got2, want) {
			t.Logf("seed %d: NoReorder mismatch", seed)
			return false
		}
		okWant := want.Bool()
		okGot, err := runBool(q, db, Options{})
		if err != nil || okGot != okWant {
			t.Logf("seed %d: bool mismatch", seed)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 250, Rand: rand.New(rand.NewSource(51))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: a CQ and its formula translation agree under FO evaluation.
func TestQuickCQMatchesFOTranslation(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		q, db := randCQInstance(rnd)
		q.Ineqs, q.Cmps = nil, nil // pure CQ only
		if err := q.Validate(db); err != nil {
			return true
		}
		body, err := query.CQToFormula(q)
		if err != nil {
			return true
		}
		fo := &query.FOQuery{Head: q.Head, Body: body}
		want, err := run(q, db, Options{})
		if err != nil {
			return true
		}
		got, err := FirstOrder(fo, db)
		if err != nil {
			// Head terms with constants: FO validation may reject when the
			// head var set mismatches; skip those shapes.
			return true
		}
		if !relation.EqualSet(got, want) {
			t.Logf("seed %d: FO translation mismatch on %v", seed, q)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(52))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: containment is reflexive, and adding atoms only shrinks queries.
func TestQuickContainmentLaws(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		q, _ := randCQInstance(rnd)
		q.Ineqs, q.Cmps = nil, nil
		if len(q.Atoms) == 0 {
			return true
		}
		if ok, err := Contained(q, q); err != nil || !ok {
			t.Logf("seed %d: reflexivity failed: %v", seed, err)
			return false
		}
		// q ∧ extra-atom ⊆ q.
		bigger := q.Clone()
		bigger.Atoms = append(bigger.Atoms, q.Atoms[rnd.Intn(len(q.Atoms))])
		if ok, err := Contained(bigger, q); err != nil || !ok {
			t.Logf("seed %d: monotonicity failed: %v", seed, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(53))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
