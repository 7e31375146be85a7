package pyquery_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pyquery"
	"pyquery/internal/relation"
	"pyquery/internal/workload"
)

// Randomized differential suite across the whole engine surface: every case
// builds a random (query, database) instance, takes the NoReorder generic
// backtracker as ground truth, and pins set-equality through the facade at
// Parallelism {1,3}, prepared vs one-shot (NoCache), the routing ablations
// (NoDecomp, NoWCOJ, both), and — for eligible pure queries — the leapfrog
// engine forced past its cost gate. The shape generator is biased so every
// one of the six engine classes is exercised many times per run; the test
// asserts that coverage at the end, so routing drift cannot silently shrink
// the suite. Run under -race in CI, the concurrent shards double as a data-
// race probe.

// fuzzShape enumerates the query shapes the generator rotates through, each
// targeting one routing class (the free-form shape lands anywhere).
const (
	shapeAcyclicPath = iota // yannakakis
	shapeColorCoding        // acyclic + I₁ inequality
	shapeComparisons        // acyclic + variable comparison
	shapeCyclicPure         // decomp candidate (sparse → generic)
	shapeCyclicIneq         // generic backtracker
	shapeHubTriangle        // dense skewed hub → wcoj
	shapeFreeForm           // anything
	numFuzzShapes
)

// fuzzInstance builds one random (query, db) pair of the given shape.
func fuzzInstance(rnd *rand.Rand, shape int) (*pyquery.CQ, *pyquery.DB) {
	db := pyquery.NewDB()
	for i := 0; i < 2; i++ {
		db.Set(fmt.Sprintf("E%d", i), randEdges(rnd, 15+rnd.Intn(45), 5+rnd.Intn(5)))
	}
	u := pyquery.NewTable(1)
	for i := 0; i < 1+rnd.Intn(5); i++ {
		u.Append(pyquery.Value(rnd.Intn(6)))
	}
	db.Set("U", u.Dedup())
	rel := func() string { return fmt.Sprintf("E%d", rnd.Intn(2)) }

	q := &pyquery.CQ{}
	switch shape {
	case shapeAcyclicPath, shapeColorCoding, shapeComparisons:
		n := 2 + rnd.Intn(3)
		for i := 0; i < n; i++ {
			q.Atoms = append(q.Atoms, pyquery.NewAtom(rel(),
				pyquery.V(pyquery.Var(i)), pyquery.V(pyquery.Var(i+1))))
		}
		q.Head = []pyquery.Term{pyquery.V(0), pyquery.V(pyquery.Var(n))}
		if shape == shapeColorCoding {
			// Endpoints never share an atom for n ≥ 2, so the ≠ lands in I₁.
			q.Ineqs = []pyquery.Ineq{pyquery.NeqVars(0, pyquery.Var(n))}
		}
		if shape == shapeComparisons {
			q.Cmps = []pyquery.Cmp{pyquery.Lt(pyquery.V(0), pyquery.V(pyquery.Var(n)))}
		}
	case shapeCyclicPure, shapeCyclicIneq:
		n := 3 + rnd.Intn(4)
		for i := 0; i < n; i++ {
			q.Atoms = append(q.Atoms, pyquery.NewAtom(rel(),
				pyquery.V(pyquery.Var(i)), pyquery.V(pyquery.Var((i+1)%n))))
		}
		if rnd.Intn(3) == 0 { // chord
			a, b := rnd.Intn(n), rnd.Intn(n)
			if a != b {
				q.Atoms = append(q.Atoms, pyquery.NewAtom(rel(), pyquery.V(pyquery.Var(a)), pyquery.V(pyquery.Var(b))))
			}
		}
		q.Head = []pyquery.Term{pyquery.V(pyquery.Var(rnd.Intn(n)))}
		if shape == shapeCyclicIneq {
			q.Ineqs = []pyquery.Ineq{pyquery.NeqVars(0, pyquery.Var(1+rnd.Intn(n-1)))}
		}
	case shapeHubTriangle:
		db = workload.HubGraphDB(60+rnd.Intn(120), 4+rnd.Intn(4))
		if rnd.Intn(2) == 0 {
			q = workload.TriangleQuery()
		} else {
			q = workload.CliqueQuery(4)
		}
	default: // free-form
		nAtoms := 2 + rnd.Intn(3)
		randTerm := func() pyquery.Term {
			if rnd.Intn(8) == 0 {
				return pyquery.C(pyquery.Value(rnd.Intn(6)))
			}
			return pyquery.V(pyquery.Var(rnd.Intn(5)))
		}
		for i := 0; i < nAtoms; i++ {
			if rnd.Intn(4) == 0 {
				q.Atoms = append(q.Atoms, pyquery.NewAtom("U", randTerm()))
			} else {
				q.Atoms = append(q.Atoms, pyquery.NewAtom(rel(), randTerm(), randTerm()))
			}
		}
		body := q.BodyVars()
		if len(body) == 0 {
			q.Atoms = append(q.Atoms, pyquery.NewAtom("U", pyquery.V(0)))
			body = q.BodyVars()
		}
		switch rnd.Intn(4) {
		case 0: // Boolean head
		case 1:
			q.Head = []pyquery.Term{pyquery.C(7), pyquery.V(body[rnd.Intn(len(body))])}
		default:
			for i := 0; i < 1+rnd.Intn(2); i++ {
				q.Head = append(q.Head, pyquery.V(body[rnd.Intn(len(body))]))
			}
		}
		if len(body) >= 2 && rnd.Intn(3) == 0 {
			q.Ineqs = append(q.Ineqs, pyquery.NeqVars(body[0], body[len(body)-1]))
		}
		if len(body) >= 2 && rnd.Intn(4) == 0 {
			q.Cmps = append(q.Cmps, pyquery.Lt(pyquery.V(body[0]), pyquery.V(body[len(body)-1])))
		}
	}
	return q, db
}

// wcojEligible mirrors the leapfrog engine's structural class: pure
// conjunctive, at least one atom, no parameters.
func wcojEligible(q *pyquery.CQ) bool {
	return len(q.Atoms) > 0 && len(q.Ineqs) == 0 && len(q.Cmps) == 0 && len(q.Params()) == 0
}

// assertRoutingAgrees pins that planning and preparing cannot drift: the
// report PlanDB rendered names the engine a default-options Prepare freezes,
// Unsatisfiable holds exactly when that statement is the empty program, and
// under each routing ablation the prepared engine is the router's decision
// for those options.
func assertRoutingAgrees(t *testing.T, tag string, q *pyquery.CQ, db *pyquery.DB, r *pyquery.PlanReport) {
	t.Helper()
	for _, opts := range []pyquery.Options{{}, {NoDecomp: true}, {NoWCOJ: true}, {NoDecomp: true, NoWCOJ: true}} {
		p, err := pyquery.Prepare(q, db, opts)
		if err != nil {
			t.Fatalf("%s opts=%+v prepare: %v", tag, opts, err)
		}
		engine, unsat, err := pyquery.RouteOf(q, db, opts)
		if err != nil {
			t.Fatalf("%s opts=%+v route: %v", tag, opts, err)
		}
		if opts == (pyquery.Options{}) && (engine != r.Engine || unsat != r.Unsatisfiable) {
			t.Fatalf("%s: PlanDB reports (%v, unsat=%v), the router decided (%v, unsat=%v)",
				tag, r.Engine, r.Unsatisfiable, engine, unsat)
		}
		if p.Engine() != engine || pyquery.FrozeEmptyProgram(p) != unsat {
			t.Fatalf("%s opts=%+v: prepared (%v, empty=%v), planned (%v, unsat=%v)",
				tag, opts, p.Engine(), pyquery.FrozeEmptyProgram(p), engine, unsat)
		}
		if (opts.NoDecomp && engine == pyquery.EngineDecomp) || (opts.NoWCOJ && engine == pyquery.EngineWCOJ) {
			t.Fatalf("%s opts=%+v: ablated engine %v still routed", tag, opts, engine)
		}
	}
}

// TestRoutingAgreesOnGroundFalseTriangle is the regression for the drift a
// single router removes: a cyclic pure query falsified by a ground
// comparison runs no engine at all, yet PlanDB used to report a satisfiable
// backtracker plan while Prepare reported the decomposition engine — even
// under NoDecomp.
func TestRoutingAgreesOnGroundFalseTriangle(t *testing.T) {
	db := pyquery.NewDB()
	db.Set("E", randEdges(rand.New(rand.NewSource(3)), 40, 8))
	q, err := pyquery.NewParser().ParseCQ(`Q(x) :- E(x,y), E(y,z), E(z,x), 1 < 0.`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := pyquery.PlanDB(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Unsatisfiable || r.Engine != pyquery.EngineGeneric {
		t.Fatalf("PlanDB reports (%v, unsat=%v), want the unsatisfiable generic class", r.Engine, r.Unsatisfiable)
	}
	assertRoutingAgrees(t, "ground-false triangle", q, db, r)
	res, err := pyquery.EvaluateOpts(q, db, pyquery.Options{NoCache: true})
	if err != nil || res.Len() != 0 {
		t.Fatalf("ground-false triangle answered %v (%v), want empty", res, err)
	}
	// The same constraint on an acyclic body, and its ground-true twin (which
	// must not disturb the acyclic engine).
	for src, want := range map[string]bool{
		`Q(x) :- E(x,y), 1 < 0.`: false,
		`Q(x) :- E(x,y), 0 < 1.`: true,
	} {
		qa, err := pyquery.NewParser().ParseCQ(src)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := pyquery.PlanDB(qa, db)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Engine != pyquery.EngineYannakakis || ra.Unsatisfiable == want {
			t.Fatalf("%s: PlanDB reports (%v, unsat=%v)", src, ra.Engine, ra.Unsatisfiable)
		}
		assertRoutingAgrees(t, src, qa, db, ra)
		if ok, err := pyquery.EvaluateBool(qa, db); err != nil || ok != want {
			t.Fatalf("%s: EvaluateBool = (%v, %v), want %v", src, ok, err, want)
		}
	}
}

func TestEngineDifferentialFuzz(t *testing.T) {
	cases := 560
	if testing.Short() {
		cases = 120
	}
	seenEngine := map[pyquery.Engine]int{}
	for seed := 0; seed < cases; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed)))
		q, db := fuzzInstance(rnd, seed%numFuzzShapes)
		tag := fmt.Sprintf("seed=%d q=%v", seed, q)

		want, err := reference(q, db)
		if err != nil {
			t.Fatalf("%s baseline: %v", tag, err)
		}
		r, err := pyquery.PlanDB(q, db)
		if err != nil {
			t.Fatalf("%s plan: %v", tag, err)
		}
		seenEngine[r.Engine]++
		assertRoutingAgrees(t, tag, q, db, r)

		for _, par := range []int{1, 3} {
			for _, opts := range []pyquery.Options{
				{Parallelism: par},                // prepared (plan-cache) path
				{Parallelism: par, NoCache: true}, // one-shot path
				{Parallelism: par, NoDecomp: true},
				{Parallelism: par, NoWCOJ: true},
				{Parallelism: par, NoDecomp: true, NoWCOJ: true},
			} {
				got, err := pyquery.EvaluateOpts(q, db, opts)
				if err != nil {
					t.Fatalf("%s opts=%+v: %v", tag, opts, err)
				}
				if !relation.EqualSet(got, want) {
					t.Fatalf("%s opts=%+v: answer drift\nwant %v\ngot %v", tag, opts, want, got)
				}
				ok, err := pyquery.EvaluateBoolOpts(q, db, opts)
				if err != nil || ok != want.Bool() {
					t.Fatalf("%s opts=%+v bool: got (%v,%v), want %v", tag, opts, ok, err, want.Bool())
				}
			}
			if wcojEligible(q) {
				lf, err := forceWCOJ(q, db, par)
				if err != nil {
					t.Fatalf("%s wcoj par=%d: %v", tag, par, err)
				}
				if !relation.EqualSet(lf, want) {
					t.Fatalf("%s: forced wcoj par=%d drifts\nwant %v\ngot %v", tag, par, want, lf)
				}
			}
		}
	}
	for _, e := range []pyquery.Engine{
		pyquery.EngineYannakakis, pyquery.EngineColorCoding, pyquery.EngineComparisons,
		pyquery.EngineGeneric, pyquery.EngineDecomp, pyquery.EngineWCOJ,
	} {
		if seenEngine[e] == 0 {
			t.Fatalf("differential fuzz never routed to %v — generator coverage drifted (%v)", e, seenEngine)
		}
	}
	t.Logf("engine coverage over %d cases: %v", cases, seenEngine)
}

// TestRefreshEquivalenceFuzz is the update-equivalence dimension of the
// differential suite: the same shape generator, but each instance now
// lives through random Insert/Delete/Set sequences with Prepared.Refresh
// interleaved. The incrementally maintained view (the folded Refresh
// deltas) must stay set-equal to a fresh prepare-and-execute after every
// batch, at Parallelism 1 and 3, and the deltas themselves must be exact —
// added tuples new, removed tuples present. Engine-class coverage is
// asserted like the one-shot suite so routing drift cannot shrink it.
func TestRefreshEquivalenceFuzz(t *testing.T) {
	cases := 84
	rounds := 6
	if testing.Short() {
		cases, rounds = 28, 4
	}
	seenEngine := map[pyquery.Engine]int{}
	for seed := 0; seed < cases; seed++ {
		rnd := rand.New(rand.NewSource(int64(1000 + seed)))
		q, db := fuzzInstance(rnd, seed%numFuzzShapes)
		tag := fmt.Sprintf("seed=%d q=%v", seed, q)
		r, err := pyquery.PlanDB(q, db)
		if err != nil {
			t.Fatalf("%s plan: %v", tag, err)
		}
		seenEngine[r.Engine]++
		assertRoutingAgrees(t, tag, q, db, r)

		// The relations the query reads, for targeted mutations.
		var rels []string
		seen := map[string]bool{}
		for _, a := range q.Atoms {
			if !seen[a.Rel] {
				seen[a.Rel] = true
				rels = append(rels, a.Rel)
			}
		}
		mutate := func() {
			name := rels[rnd.Intn(len(rels))]
			rel, _ := db.Rel(name)
			w := rel.Width()
			randRow := func() []pyquery.Value {
				row := make([]pyquery.Value, w)
				for i := range row {
					row[i] = pyquery.Value(rnd.Intn(12))
				}
				return row
			}
			switch rnd.Intn(5) {
			case 0: // delete an existing tuple, so deletions actually land
				if rel.Len() > 0 {
					row := append([]pyquery.Value(nil), rel.Row(rnd.Intn(rel.Len()))...)
					db.Delete(name, row)
				}
			case 1:
				db.Delete(name, randRow())
			case 2: // wholesale replacement: forces the rebuild-and-diff path
				nr := pyquery.NewTable(w)
				for i := 0; i < 5+rnd.Intn(20); i++ {
					nr.Append(randRow()...)
				}
				db.Set(name, nr.Dedup())
			default:
				db.Insert(name, randRow(), randRow())
			}
		}

		for _, par := range []int{1, 3} {
			p, err := pyquery.Prepare(q, db, pyquery.Options{Parallelism: par})
			if err != nil {
				t.Fatalf("%s prepare: %v", tag, err)
			}
			view := relation.NewTupleSet(len(q.Head))
			viewRows := pyquery.NewTable(len(q.Head))
			for round := 0; round <= rounds; round++ {
				if round > 0 {
					for n := 1 + rnd.Intn(3); n > 0; n-- {
						mutate()
					}
				}
				added, removed, err := p.Refresh(context.Background())
				if err != nil {
					t.Fatalf("%s par=%d round=%d refresh: %v", tag, par, round, err)
				}
				for i := 0; i < removed.Len(); i++ {
					if !view.Contains(removed.Row(i)) {
						t.Fatalf("%s par=%d round=%d: removed %v not in view", tag, par, round, removed.Row(i))
					}
				}
				for i := 0; i < added.Len(); i++ {
					if view.Contains(added.Row(i)) {
						t.Fatalf("%s par=%d round=%d: added %v already in view", tag, par, round, added.Row(i))
					}
				}
				next := pyquery.NewTable(len(q.Head))
				rebuilt := relation.NewTupleSet(len(q.Head))
				for i := 0; i < viewRows.Len(); i++ {
					if !removed.Contains(viewRows.Row(i)) {
						next.Append(viewRows.Row(i)...)
						rebuilt.Add(viewRows.Row(i))
					}
				}
				for i := 0; i < added.Len(); i++ {
					next.Append(added.Row(i)...)
					rebuilt.Add(added.Row(i))
				}
				viewRows, view = next, rebuilt

				want, err := reference(q, db)
				if err != nil {
					t.Fatalf("%s round=%d baseline: %v", tag, round, err)
				}
				if !relation.EqualSet(viewRows.Sort(), want.Sort()) {
					t.Fatalf("%s par=%d round=%d: maintained view drifts\nwant %v\ngot %v",
						tag, par, round, want, viewRows)
				}
				// The prepared one-shot path must agree too (it shares the
				// database the refresh just consumed the changelog of).
				got, err := p.Exec(context.Background())
				if err != nil {
					t.Fatalf("%s par=%d round=%d exec: %v", tag, par, round, err)
				}
				if !relation.EqualSet(got.Sort(), want.Sort()) {
					t.Fatalf("%s par=%d round=%d: exec drifts after refresh", tag, par, round)
				}
			}
		}
	}
	for _, e := range []pyquery.Engine{
		pyquery.EngineYannakakis, pyquery.EngineColorCoding, pyquery.EngineComparisons,
		pyquery.EngineGeneric, pyquery.EngineDecomp, pyquery.EngineWCOJ,
	} {
		if seenEngine[e] == 0 {
			t.Fatalf("refresh fuzz never routed to %v — generator coverage drifted (%v)", e, seenEngine)
		}
	}
	t.Logf("engine coverage over %d cases: %v", cases, seenEngine)
}
