package pyquery_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pyquery"
	"pyquery/internal/eval"
	"pyquery/internal/relation"
)

// Planner equivalence (the A3 ablation contract): on randomized instances,
// the stats-driven join order and NoReorder must be answer-set-equal — both
// through the generic evaluator directly and through the facade's engine
// routing (which also exercises the weighted join trees of the acyclic
// engines against the generic baseline).

// randPlannerCQ builds a random conjunctive query over E0/E1 (binary) and
// U (unary): 2–4 atoms with random variables and occasional constants,
// sometimes an inequality or a comparison. Heads use the body variables.
func randPlannerCQ(rnd *rand.Rand) *pyquery.CQ {
	nAtoms := 2 + rnd.Intn(3)
	randTerm := func() pyquery.Term {
		if rnd.Intn(8) == 0 {
			return pyquery.C(pyquery.Value(rnd.Intn(6)))
		}
		return pyquery.V(pyquery.Var(rnd.Intn(5)))
	}
	q := &pyquery.CQ{}
	for i := 0; i < nAtoms; i++ {
		if rnd.Intn(4) == 0 {
			q.Atoms = append(q.Atoms, pyquery.NewAtom("U", randTerm()))
		} else {
			q.Atoms = append(q.Atoms, pyquery.NewAtom(fmt.Sprintf("E%d", rnd.Intn(2)), randTerm(), randTerm()))
		}
	}
	body := q.BodyVars()
	if len(body) == 0 {
		q.Atoms = append(q.Atoms, pyquery.NewAtom("U", pyquery.V(0)))
		body = q.BodyVars()
	}
	for i := 0; i < 1+rnd.Intn(2); i++ {
		q.Head = append(q.Head, pyquery.V(body[rnd.Intn(len(body))]))
	}
	if len(body) >= 2 && rnd.Intn(3) == 0 {
		q.Ineqs = append(q.Ineqs, pyquery.NeqVars(body[0], body[len(body)-1]))
	}
	if len(body) >= 2 && rnd.Intn(4) == 0 {
		q.Cmps = append(q.Cmps, pyquery.Lt(pyquery.V(body[0]), pyquery.V(body[len(body)-1])))
	}
	return q
}

// statsOrder runs the compiled backtracker under the cost-based join order.
func statsOrder(q *pyquery.CQ, db *pyquery.DB) (*pyquery.Relation, error) {
	bt, err := eval.Compile(q, db, eval.Options{Parallelism: 1}, nil)
	if err != nil {
		return nil, err
	}
	return bt.Exec(context.Background(), nil, nil)
}

func TestPlannerOrderingEquivalence(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		db := pyquery.NewDB()
		for i := 0; i < 2; i++ {
			db.Set(fmt.Sprintf("E%d", i), randEdges(rnd, 15+rnd.Intn(40), 6))
		}
		u := pyquery.NewTable(1)
		for i := 0; i < 1+rnd.Intn(5); i++ {
			u.Append(pyquery.Value(rnd.Intn(6)))
		}
		db.Set("U", u.Dedup())
		q := randPlannerCQ(rnd)
		tag := fmt.Sprintf("seed=%d q=%v", seed, q)

		want, err := reference(q, db)
		if err != nil {
			t.Fatalf("%s noreorder: %v", tag, err)
		}
		stats, err := statsOrder(q, db)
		if err != nil {
			t.Fatalf("%s stats: %v", tag, err)
		}
		if !relation.EqualSet(stats, want) {
			t.Fatalf("%s: stats-driven order changed the answer\nwant %v\ngot %v", tag, want, stats)
		}
		// Facade routing: whichever engine Plan picks (weighted join trees
		// for the acyclic classes, bag trees for the decomposition class)
		// must agree with the generic baseline, at more than one
		// parallelism level.
		for _, par := range []int{1, 3} {
			auto, err := pyquery.EvaluateOpts(q, db, pyquery.Options{Parallelism: par})
			if err != nil {
				t.Fatalf("%s auto par=%d (%v): %v", tag, par, pyquery.Plan(q), err)
			}
			if !relation.EqualSet(auto, want) {
				t.Fatalf("%s: engine %v par=%d disagrees with generic baseline\nwant %v\ngot %v",
					tag, pyquery.Plan(q), par, want, auto)
			}
		}
	}
}

// randCyclicCQ builds a random cyclic low-width query over E0/E1: a 3–6
// cycle with mixed relation names, sometimes a chord, a constant argument,
// or a projection-heavy head. Always in the decomposition engine's
// structural class.
func randCyclicCQ(rnd *rand.Rand) *pyquery.CQ {
	n := 3 + rnd.Intn(4)
	q := &pyquery.CQ{}
	rel := func() string { return fmt.Sprintf("E%d", rnd.Intn(2)) }
	for i := 0; i < n; i++ {
		q.Atoms = append(q.Atoms,
			pyquery.NewAtom(rel(), pyquery.V(pyquery.Var(i)), pyquery.V(pyquery.Var((i+1)%n))))
	}
	if rnd.Intn(3) == 0 {
		a, b := rnd.Intn(n), rnd.Intn(n)
		if a != b {
			q.Atoms = append(q.Atoms, pyquery.NewAtom(rel(), pyquery.V(pyquery.Var(a)), pyquery.V(pyquery.Var(b))))
		}
	}
	if rnd.Intn(4) == 0 {
		i := rnd.Intn(len(q.Atoms))
		q.Atoms[i].Args[rnd.Intn(2)] = pyquery.C(pyquery.Value(rnd.Intn(6)))
	}
	for i := 0; i < 1+rnd.Intn(2); i++ {
		q.Head = append(q.Head, pyquery.V(pyquery.Var(rnd.Intn(n))))
	}
	return q
}

// TestPlannerCyclicDecompEquivalence pins the decomposition contract on
// randomized cyclic instances: the decomposition engine (driven directly,
// so the cost gate cannot route around it), the cost-ordered backtracker,
// the NoReorder backtracker, and the facade (gate included, plus the
// NoDecomp ablation) all return the same answer set.
func TestPlannerCyclicDecompEquivalence(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		db := pyquery.NewDB()
		for i := 0; i < 2; i++ {
			db.Set(fmt.Sprintf("E%d", i), randEdges(rnd, 20+rnd.Intn(50), 6+rnd.Intn(4)))
		}
		q := randCyclicCQ(rnd)
		tag := fmt.Sprintf("seed=%d q=%v", seed, q)
		// A constant argument can collapse the cycle (→ Yannakakis); every
		// still-cyclic instance must land in the decomposition class.
		if got := pyquery.Plan(q); got != pyquery.EngineDecomp && got != pyquery.EngineYannakakis {
			t.Fatalf("%s: planned %v, want decomp (or yannakakis if collapsed)", tag, got)
		}

		want, err := reference(q, db)
		if err != nil {
			t.Fatalf("%s noreorder: %v", tag, err)
		}
		stats, err := statsOrder(q, db)
		if err != nil {
			t.Fatalf("%s stats: %v", tag, err)
		}
		if !relation.EqualSet(stats, want) {
			t.Fatalf("%s: stats-driven backtracker disagrees", tag)
		}
		direct, err := forceDecomp(q, db, 1)
		if err != nil {
			t.Fatalf("%s decomp: %v", tag, err)
		}
		if !relation.EqualSet(direct, want) {
			t.Fatalf("%s: decomp engine disagrees\nwant %v\ngot %v", tag, want, direct)
		}
		// The leapfrog engine, forced past its cost gate (these instances are
		// pure, so they are always in its eligibility class).
		lf, err := forceWCOJ(q, db, 1)
		if err != nil {
			t.Fatalf("%s wcoj: %v", tag, err)
		}
		if !relation.EqualSet(lf, want) {
			t.Fatalf("%s: wcoj engine disagrees\nwant %v\ngot %v", tag, want, lf)
		}
		for _, opts := range []pyquery.Options{
			{Parallelism: 1}, {Parallelism: 3},
			{Parallelism: 1, NoDecomp: true}, {Parallelism: 3, NoDecomp: true},
			{Parallelism: 1, NoWCOJ: true}, {Parallelism: 1, NoDecomp: true, NoWCOJ: true},
		} {
			auto, err := pyquery.EvaluateOpts(q, db, opts)
			if err != nil {
				t.Fatalf("%s facade %+v: %v", tag, opts, err)
			}
			if !relation.EqualSet(auto, want) {
				t.Fatalf("%s: facade %+v disagrees with baseline", tag, opts)
			}
			ok, err := pyquery.EvaluateBoolOpts(q, db, opts)
			if err != nil || ok != want.Bool() {
				t.Fatalf("%s: facade bool %+v = %v (%v), want %v", tag, opts, ok, err, want.Bool())
			}
		}
		// Decision problem: head binding (constant substitution + ground
		// markers) through the decomposition route.
		if want.Len() > 0 && len(q.Head) > 0 {
			ok, err := pyquery.Decide(q, db, want.Row(0))
			if err != nil || !ok {
				t.Fatalf("%s: Decide(answer tuple) = %v (%v), want true", tag, ok, err)
			}
		}
	}
}
