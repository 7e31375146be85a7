package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pyquery/internal/eval"
	"pyquery/internal/query"
	"pyquery/internal/relation"
	"pyquery/internal/yannakakis"
)

// randAcyclicIneqInstance builds a random acyclic conjunctive query with
// inequalities plus a random database, sized for the brute-force oracle.
// Acyclicity comes from ear construction (each atom shares variables with a
// single earlier atom).
func randAcyclicIneqInstance(rnd *rand.Rand) (*query.CQ, *query.DB) {
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
		rows := 1 + rnd.Intn(9)
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
	all := q.BodyVars()
	// Head: random subset.
	for _, v := range all {
		if rnd.Intn(3) == 0 {
			q.Head = append(q.Head, query.V(v))
		}
	}
	// Inequalities: a few random pairs and constants — this is the point of
	// the exercise, so be generous. Keep |V1| small for the e^k family.
	nIneq := rnd.Intn(4)
	for i := 0; i < nIneq && len(all) >= 2; i++ {
		x := all[rnd.Intn(len(all))]
		y := all[rnd.Intn(len(all))]
		if x != y {
			q.Ineqs = append(q.Ineqs, query.NeqVars(x, y))
		}
	}
	if rnd.Intn(2) == 0 && len(all) > 0 {
		q.Ineqs = append(q.Ineqs,
			query.NeqConst(all[rnd.Intn(len(all))], relation.Value(rnd.Intn(domain))))
	}
	return q, db
}

// Property: the Theorem 2 engine with the certified exact family computes
// exactly the brute-force answer, for evaluation and decision, with and
// without the I₂ pushdown.
func TestQuickCoreAgreesWithBrute(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		q, db := randAcyclicIneqInstance(rnd)
		if !yannakakis.IsAcyclic(q) {
			t.Logf("seed %d: generator produced a cyclic query", seed)
			return false
		}
		want, err := eval.ConjunctiveBrute(q, db)
		if err != nil {
			return true
		}
		got, err := run(q, db, Options{Strategy: Exact})
		if err != nil {
			t.Logf("seed %d: engine error %v on %v", seed, err, q)
			return false
		}
		if !relation.EqualSet(got, want) {
			t.Logf("seed %d: mismatch on %v:\n got %v\nwant %v", seed, q, got, want)
			return false
		}
		ok, err := runBool(q, db, Options{Strategy: Exact})
		if err != nil || ok != want.Bool() {
			t.Logf("seed %d: bool mismatch (%v vs %v; err %v)", seed, ok, want.Bool(), err)
			return false
		}
		got2, err := run(q, db, Options{Strategy: Exact, NoPushdown: true})
		if err != nil {
			t.Logf("seed %d: NoPushdown error %v", seed, err)
			return false
		}
		if !relation.EqualSet(got2, want) {
			t.Logf("seed %d: NoPushdown mismatch on %v:\n got %v\nwant %v", seed, q, got2, want)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 250, Rand: rand.New(rand.NewSource(71))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Monte-Carlo answers are always sound (⊆ exact) and, at high
// confidence with a fixed seed, complete on these sizes.
func TestQuickMonteCarloSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		q, db := randAcyclicIneqInstance(rnd)
		exact, err := run(q, db, Options{Strategy: Exact})
		if err != nil {
			return true
		}
		mc, err := run(q, db, Options{Strategy: MonteCarlo, C: 2, Seed: seed})
		if err != nil {
			t.Logf("seed %d: MC error %v", seed, err)
			return false
		}
		for i := 0; i < mc.Len(); i++ {
			if !exact.Contains(mc.Row(i)) {
				t.Logf("seed %d: MC emitted a wrong tuple %v", seed, mc.Row(i))
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(72))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: WHP family agrees with Exact on small instances.
func TestQuickWHPAgreesWithExact(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		q, db := randAcyclicIneqInstance(rnd)
		exact, err := run(q, db, Options{Strategy: Exact})
		if err != nil {
			return true
		}
		whp, err := run(q, db, Options{Strategy: WHP, Seed: seed})
		if err != nil {
			t.Logf("seed %d: WHP error %v", seed, err)
			return false
		}
		if !relation.EqualSet(whp, exact) {
			t.Logf("seed %d: WHP mismatch", seed)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(73))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
