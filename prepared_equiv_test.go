package pyquery_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pyquery"
	"pyquery/internal/eval"
	"pyquery/internal/leakcheck"
	"pyquery/internal/relation"
	"pyquery/internal/workload"
)

// Equivalence contract of the prepared statements: for every engine class,
// Prepared.Exec/ExecBool/ForEach must be set-equal to the reference
// evaluator, across parallelism levels, across repeated executions of one
// Prepared, across parameter bindings vs. inlined constants, and across
// database mutations (the staleness replan).

// reference is the suites' ground truth: the compiled backtracker in the
// written atom order (NoReorder) — no routing, no shared planning code.
func reference(q *pyquery.CQ, db *pyquery.DB) (*pyquery.Relation, error) {
	bt, err := eval.Compile(q, db, eval.Options{Parallelism: 1, NoReorder: true}, nil)
	if err != nil {
		return nil, err
	}
	return bt.Exec(context.Background(), nil, nil)
}

func mustReference(t *testing.T, q *pyquery.CQ, db *pyquery.DB) *pyquery.Relation {
	t.Helper()
	want, err := reference(q, db)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return want
}

func assertPreparedAgrees(t *testing.T, tag string, q *pyquery.CQ, db *pyquery.DB) {
	t.Helper()
	ctx := context.Background()
	for _, par := range []int{1, 3} {
		want := mustReference(t, q, db)
		wantOK := want.Bool()
		p, err := pyquery.Prepare(q, db, pyquery.Options{Parallelism: par})
		if err != nil {
			t.Fatalf("%s prepare: %v", tag, err)
		}
		// Repeated executions of one Prepared must keep answering the same.
		for rep := 0; rep < 3; rep++ {
			got, err := p.Exec(ctx)
			if err != nil {
				t.Fatalf("%s par=%d rep=%d exec: %v", tag, par, rep, err)
			}
			if !relation.EqualSet(got, want) {
				t.Fatalf("%s par=%d rep=%d: prepared answer differs from reference\nwant %v\ngot  %v",
					tag, par, rep, want, got)
			}
			gotOK, err := p.ExecBool(ctx)
			if err != nil {
				t.Fatalf("%s par=%d rep=%d execbool: %v", tag, par, rep, err)
			}
			if gotOK != wantOK {
				t.Fatalf("%s par=%d rep=%d: ExecBool=%v, reference %v", tag, par, rep, gotOK, wantOK)
			}
		}
		// Streaming must enumerate exactly the answer set.
		streamed := pyquery.NewTable(len(q.Head))
		if err := p.ForEach(ctx, func(tuple []pyquery.Value) bool {
			streamed.Append(tuple...)
			return true
		}); err != nil {
			t.Fatalf("%s foreach: %v", tag, err)
		}
		if !relation.EqualSet(streamed, want) {
			t.Fatalf("%s par=%d: ForEach stream differs from reference", tag, par)
		}
	}
}

func TestPreparedEquivYannakakis(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		q := pathQuery()
		db := pathDB(rnd)
		if pyquery.Plan(q) != pyquery.EngineYannakakis {
			t.Fatal("class drift")
		}
		assertPreparedAgrees(t, fmt.Sprintf("yannakakis/seed=%d", seed), q, db)
	}
}

func TestPreparedEquivColorCoding(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		q := pathQuery()
		q.Ineqs = []pyquery.Ineq{pyquery.NeqVars(0, 3)}
		if pyquery.Plan(q) != pyquery.EngineColorCoding {
			t.Fatal("class drift")
		}
		assertPreparedAgrees(t, fmt.Sprintf("colorcoding/seed=%d", seed), q, pathDB(rnd))
	}
}

func TestPreparedEquivComparisons(t *testing.T) {
	for seed := int64(200); seed < 215; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		q := pathQuery()
		q.Cmps = []pyquery.Cmp{pyquery.Lt(pyquery.V(0), pyquery.V(3))}
		if pyquery.Plan(q) != pyquery.EngineComparisons {
			t.Fatal("class drift")
		}
		assertPreparedAgrees(t, fmt.Sprintf("comparisons/seed=%d", seed), q, pathDB(rnd))
	}
}

func TestPreparedEquivGeneric(t *testing.T) {
	for seed := int64(300); seed < 315; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		db := pyquery.NewDB()
		db.Set("E", randEdges(rnd, 150+rnd.Intn(100), 15+rnd.Intn(10)))
		tri := &pyquery.CQ{
			Head: []pyquery.Term{pyquery.V(0), pyquery.V(1), pyquery.V(2)},
			Atoms: []pyquery.Atom{
				pyquery.NewAtom("E", pyquery.V(0), pyquery.V(1)),
				pyquery.NewAtom("E", pyquery.V(1), pyquery.V(2)),
				pyquery.NewAtom("E", pyquery.V(2), pyquery.V(0)),
			},
			Ineqs: []pyquery.Ineq{pyquery.NeqVars(0, 1)},
		}
		if pyquery.Plan(tri) != pyquery.EngineGeneric {
			t.Fatal("class drift")
		}
		assertPreparedAgrees(t, fmt.Sprintf("generic/seed=%d", seed), tri, db)
	}
}

func TestPreparedEquivDecomp(t *testing.T) {
	for seed := int64(500); seed < 512; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		db := pyquery.NewDB()
		db.Set("E", randEdges(rnd, 250+rnd.Intn(150), 18+rnd.Intn(8)))
		cyc := workload.CycleQuery(4 + int(seed%2)*2)
		if pyquery.Plan(cyc) != pyquery.EngineDecomp {
			t.Fatal("class drift")
		}
		assertPreparedAgrees(t, fmt.Sprintf("decomp/seed=%d", seed), cyc, db)
	}
}

// The worst-case-optimal class: dense skewed hub graphs route triangle and
// clique queries to the leapfrog engine, whose frozen tries must keep
// answering like the reference path across repeats, parallelism, and
// streaming.
func TestPreparedEquivWCOJ(t *testing.T) {
	for i, q := range []*pyquery.CQ{workload.TriangleQuery(), workload.CliqueQuery(4)} {
		db := workload.HubGraphDB(120+20*i, 5)
		p, err := pyquery.Prepare(q, db, pyquery.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Engine(); got != pyquery.EngineWCOJ {
			t.Fatalf("case %d: prepared engine %v, want wcoj", i, got)
		}
		assertPreparedAgrees(t, fmt.Sprintf("wcoj/case=%d", i), q, db)
		// The A7 ablation must re-route to the backtracker with the same
		// answers.
		pa, err := pyquery.Prepare(q, db, pyquery.Options{Parallelism: 1, NoWCOJ: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := pa.Engine(); got == pyquery.EngineWCOJ {
			t.Fatalf("case %d: NoWCOJ still routed to wcoj", i)
		}
		want := mustReference(t, q, db)
		got, err := pa.Exec(context.Background())
		if err != nil || !relation.EqualSet(got, want) {
			t.Fatalf("case %d: NoWCOJ answer drifted (%v)", i, err)
		}
	}
}

// Parameter bindings must answer exactly like the same template with the
// constants inlined, for every engine class's parameterized variant.
func TestPreparedParamsMatchInlinedConstants(t *testing.T) {
	type tc struct {
		name   string
		build  func() *pyquery.CQ
		engine pyquery.Engine // class of the inlined query
	}
	cases := []tc{
		{"yannakakis", func() *pyquery.CQ {
			return &pyquery.CQ{
				Head: []pyquery.Term{pyquery.V(1), pyquery.V(2)},
				Atoms: []pyquery.Atom{
					pyquery.NewAtom("R0", pyquery.P("a"), pyquery.V(1)),
					pyquery.NewAtom("R1", pyquery.V(1), pyquery.V(2)),
				},
			}
		}, pyquery.EngineYannakakis},
		{"colorcoding", func() *pyquery.CQ {
			return &pyquery.CQ{
				Head: []pyquery.Term{pyquery.V(0), pyquery.V(2)},
				Atoms: []pyquery.Atom{
					pyquery.NewAtom("R0", pyquery.V(0), pyquery.V(1)),
					pyquery.NewAtom("R1", pyquery.V(1), pyquery.V(2)),
					pyquery.NewAtom("R2", pyquery.V(2), pyquery.P("a")),
				},
				Ineqs: []pyquery.Ineq{pyquery.NeqVars(0, 2)},
			}
		}, pyquery.EngineColorCoding},
		{"comparisons", func() *pyquery.CQ {
			return &pyquery.CQ{
				Head: []pyquery.Term{pyquery.V(0), pyquery.V(3)},
				Atoms: []pyquery.Atom{
					pyquery.NewAtom("R0", pyquery.V(0), pyquery.V(1)),
					pyquery.NewAtom("R1", pyquery.V(1), pyquery.V(2)),
					pyquery.NewAtom("R2", pyquery.V(2), pyquery.V(3)),
				},
				Cmps: []pyquery.Cmp{pyquery.Lt(pyquery.V(0), pyquery.P("c"))},
			}
		}, pyquery.EngineComparisons},
		{"generic", func() *pyquery.CQ {
			return &pyquery.CQ{
				Head: []pyquery.Term{pyquery.V(0), pyquery.V(1)},
				Atoms: []pyquery.Atom{
					pyquery.NewAtom("R0", pyquery.V(0), pyquery.V(1)),
					pyquery.NewAtom("R1", pyquery.V(1), pyquery.V(2)),
					pyquery.NewAtom("R2", pyquery.V(2), pyquery.V(0)),
					pyquery.NewAtom("R0", pyquery.V(0), pyquery.P("a")),
				},
				Ineqs: []pyquery.Ineq{pyquery.NeqVars(0, 1)},
			}
		}, pyquery.EngineGeneric},
		{"decomp-class", func() *pyquery.CQ {
			return &pyquery.CQ{
				Head: []pyquery.Term{pyquery.V(0), pyquery.V(2)},
				Atoms: []pyquery.Atom{
					pyquery.NewAtom("R0", pyquery.V(0), pyquery.V(1)),
					pyquery.NewAtom("R1", pyquery.V(1), pyquery.V(2)),
					pyquery.NewAtom("R2", pyquery.V(2), pyquery.V(3)),
					pyquery.NewAtom("R0", pyquery.V(3), pyquery.V(0)),
					pyquery.NewAtom("R1", pyquery.V(3), pyquery.P("a")),
				},
			}
		}, pyquery.EngineDecomp},
	}
	ctx := context.Background()
	for _, c := range cases {
		for seed := int64(700); seed < 708; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			db := pathDB(rnd)
			tmpl := c.build()
			p, err := pyquery.Prepare(tmpl, db, pyquery.Options{Parallelism: 1})
			if err != nil {
				t.Fatalf("%s prepare: %v", c.name, err)
			}
			// Param head positions don't occur here; every case binds $a/$c.
			name := tmpl.Params()[0]
			for val := 0; val < 10; val += 3 { // includes values outside the domain
				inlined, err := tmpl.BindParams(map[string]pyquery.Value{name: pyquery.Value(val)})
				if err != nil {
					t.Fatalf("%s bind: %v", c.name, err)
				}
				if got := pyquery.Plan(inlined); got != c.engine {
					t.Fatalf("%s: inlined query classifies as %v, want %v", c.name, got, c.engine)
				}
				want := mustReference(t, inlined, db)
				got, err := p.Exec(ctx, pyquery.Bind(name, pyquery.Value(val)))
				if err != nil {
					t.Fatalf("%s exec($%s=%d): %v", c.name, name, val, err)
				}
				if !relation.EqualSet(got, want) {
					t.Fatalf("%s $%s=%d: prepared differs from inlined reference\nwant %v\ngot  %v",
						c.name, name, val, want, got)
				}
				gotOK, err := p.ExecBool(ctx, pyquery.Bind(name, pyquery.Value(val)))
				if err != nil || gotOK != want.Bool() {
					t.Fatalf("%s $%s=%d bool: got (%v,%v), want %v", c.name, name, val, gotOK, err, want.Bool())
				}
			}
		}
	}
}

// After DB.Set, executions must transparently replan against the new data —
// both on a held Prepared and through the facade's plan cache.
func TestPreparedStalenessReplan(t *testing.T) {
	ctx := context.Background()
	for seed := int64(800); seed < 810; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		db := pathDB(rnd)
		q := pathQuery()
		p, err := pyquery.Prepare(q, db, pyquery.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Exec(ctx); err != nil {
			t.Fatal(err)
		}
		// Mutate: swap one relation, including the degenerate empty swap.
		if seed%3 == 0 {
			db.Set("R1", pyquery.NewTable(2))
		} else {
			db.Set("R1", randEdges(rnd, 30+rnd.Intn(40), 6+rnd.Intn(6)))
		}
		want := mustReference(t, q, db)
		got, err := p.Exec(ctx)
		if err != nil {
			t.Fatalf("post-Set exec: %v", err)
		}
		if !relation.EqualSet(got, want) {
			t.Fatalf("seed=%d: stale plan served after Set\nwant %v\ngot  %v", seed, want, got)
		}
		// The facade's cached path must replan too.
		cached, err := pyquery.EvaluateOpts(q, db, pyquery.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !relation.EqualSet(cached, want) {
			t.Fatalf("seed=%d: facade cache served a stale answer after Set", seed)
		}
	}
}

// Prepared.Decide must agree with membership in the evaluated answer set,
// including head constants and repeated head variables.
func TestPreparedDecide(t *testing.T) {
	ctx := context.Background()
	for seed := int64(900); seed < 910; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		db := pathDB(rnd)
		q := pathQuery()
		want := mustReference(t, q, db)
		p, err := pyquery.Prepare(q, db, pyquery.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		check := func(tu []pyquery.Value) {
			got, err := p.Decide(ctx, tu)
			if err != nil {
				t.Fatalf("decide: %v", err)
			}
			free, err := pyquery.Decide(q, db, tu)
			if err != nil {
				t.Fatalf("facade decide: %v", err)
			}
			wantIn := want.Contains(tu)
			if got != wantIn || free != wantIn {
				t.Fatalf("seed=%d decide(%v): prepared=%v facade=%v, want %v", seed, tu, got, free, wantIn)
			}
		}
		for i := 0; i < want.Len() && i < 5; i++ {
			check(want.Row(i))
		}
		for i := 0; i < 10; i++ {
			check([]pyquery.Value{pyquery.Value(rnd.Intn(12)), pyquery.Value(rnd.Intn(12))})
		}
	}

	// Head constants and repeated head variables.
	db := pyquery.NewDB()
	db.Set("E", pyquery.Table(2, []pyquery.Value{1, 2}, []pyquery.Value{2, 2}, []pyquery.Value{3, 3}))
	q := &pyquery.CQ{
		Head:  []pyquery.Term{pyquery.C(7), pyquery.V(0), pyquery.V(0)},
		Atoms: []pyquery.Atom{pyquery.NewAtom("E", pyquery.V(0), pyquery.V(0))},
	}
	p, err := pyquery.Prepare(q, db, pyquery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tuple []pyquery.Value
		want  bool
	}{
		{[]pyquery.Value{7, 2, 2}, true},
		{[]pyquery.Value{7, 3, 3}, true},
		{[]pyquery.Value{7, 1, 1}, false}, // E(1,1) absent
		{[]pyquery.Value{8, 2, 2}, false}, // head constant mismatch
		{[]pyquery.Value{7, 2, 3}, false}, // repeated head variable mismatch
	} {
		got, err := p.Decide(context.Background(), tc.tuple)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("Decide(%v) = %v, want %v", tc.tuple, got, tc.want)
		}
	}
	if _, err := p.Decide(context.Background(), []pyquery.Value{1, 2}); err == nil {
		t.Fatal("arity mismatch should error")
	}
}

// Decide on parameterized templates: head stripping reorders (and can
// drop) the parameter list of the lazily compiled membership plan, so the
// binding order must be remapped — regression test for the param-order
// bug found in review.
func TestPreparedDecideWithParams(t *testing.T) {
	ctx := context.Background()
	db := pyquery.NewDB()
	db.Set("R", pyquery.Table(2, []pyquery.Value{10, 5}, []pyquery.Value{11, 6}))
	db.Set("S", pyquery.Table(2, []pyquery.Value{5, 20}, []pyquery.Value{6, 21}))

	// $a occurs in the head BEFORE $b, but only AFTER $b in the body — the
	// head-stripped program binds [b, a] while the template binds [a, b].
	q := &pyquery.CQ{
		Head: []pyquery.Term{pyquery.P("a"), pyquery.V(1)},
		Atoms: []pyquery.Atom{
			pyquery.NewAtom("R", pyquery.P("b"), pyquery.V(0)),
			pyquery.NewAtom("S", pyquery.V(0), pyquery.V(1)),
			pyquery.NewAtom("S", pyquery.V(0), pyquery.P("a")),
		},
	}
	p, err := pyquery.Prepare(q, db, pyquery.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		a, b  pyquery.Value
		tuple []pyquery.Value
		want  bool
	}{
		{20, 10, []pyquery.Value{20, 20}, true},  // R(10,5), S(5,20), S(5,20)
		{21, 11, []pyquery.Value{21, 21}, true},  // R(11,6), S(6,21), S(6,21)
		{20, 11, []pyquery.Value{20, 21}, false}, // S(6,20) absent
		{20, 10, []pyquery.Value{99, 20}, false}, // head position ≠ $a binding
		{20, 10, []pyquery.Value{20, 21}, false}, // S(5,21) absent
	} {
		got, err := p.Decide(ctx, tc.tuple, pyquery.Bind("a", tc.a), pyquery.Bind("b", tc.b))
		if err != nil {
			t.Fatalf("Decide(a=%d,b=%d,%v): %v", tc.a, tc.b, tc.tuple, err)
		}
		if got != tc.want {
			t.Fatalf("Decide(a=%d,b=%d,%v) = %v, want %v", tc.a, tc.b, tc.tuple, got, tc.want)
		}
		// Cross-check against the inlined reference answer set.
		inlined, err := q.BindParams(map[string]pyquery.Value{"a": tc.a, "b": tc.b})
		if err != nil {
			t.Fatal(err)
		}
		want := mustReference(t, inlined, db)
		if want.Contains(tc.tuple) != tc.want {
			t.Fatalf("test vector inconsistent with reference for a=%d b=%d %v", tc.a, tc.b, tc.tuple)
		}
	}

	// A parameter appearing only in the head vanishes from the membership
	// body entirely; Decide must still check it against the tuple.
	ho := &pyquery.CQ{
		Head:  []pyquery.Term{pyquery.P("h"), pyquery.V(0)},
		Atoms: []pyquery.Atom{pyquery.NewAtom("R", pyquery.V(0), pyquery.V(1))},
	}
	ph, err := pyquery.Prepare(ho, db, pyquery.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ph.Decide(ctx, []pyquery.Value{7, 10}, pyquery.Bind("h", 7)); err != nil || !got {
		t.Fatalf("head-only param: Decide = (%v, %v), want true", got, err)
	}
	if got, err := ph.Decide(ctx, []pyquery.Value{8, 10}, pyquery.Bind("h", 7)); err != nil || got {
		t.Fatalf("head-only param mismatch: Decide = (%v, %v), want false", got, err)
	}
}

// A context that is already canceled must surface ctx.Err() from every
// engine class before any work runs.
func TestPreparedCanceledContext(t *testing.T) {
	leakcheck.Check(t)
	rnd := rand.New(rand.NewSource(42))
	db := pathDB(rnd)
	tridb := pyquery.NewDB()
	tridb.Set("E", randEdges(rnd, 200, 20))

	ineq := pathQuery()
	ineq.Ineqs = []pyquery.Ineq{pyquery.NeqVars(0, 3)}
	cmp := pathQuery()
	cmp.Cmps = []pyquery.Cmp{pyquery.Lt(pyquery.V(0), pyquery.V(3))}
	tri := &pyquery.CQ{
		Head: []pyquery.Term{pyquery.V(0)},
		Atoms: []pyquery.Atom{
			pyquery.NewAtom("E", pyquery.V(0), pyquery.V(1)),
			pyquery.NewAtom("E", pyquery.V(1), pyquery.V(2)),
			pyquery.NewAtom("E", pyquery.V(2), pyquery.V(0)),
		},
		Ineqs: []pyquery.Ineq{pyquery.NeqVars(0, 1)},
	}
	cyc := workload.CycleQuery(4)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		q    *pyquery.CQ
		db   *pyquery.DB
	}{
		{"yannakakis", pathQuery(), db},
		{"colorcoding", ineq, db},
		{"comparisons", cmp, db},
		{"generic", tri, tridb},
		{"decomp", cyc, tridb},
		{"wcoj", workload.TriangleQuery(), workload.HubGraphDB(150, 5)},
	} {
		p, err := pyquery.Prepare(tc.q, tc.db, pyquery.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := p.Exec(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Exec on canceled ctx returned %v, want context.Canceled", tc.name, err)
		}
		if _, err := p.ExecBool(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: ExecBool on canceled ctx returned %v, want context.Canceled", tc.name, err)
		}
		if err := p.ForEach(ctx, func([]pyquery.Value) bool { return true }); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: ForEach on canceled ctx returned %v, want context.Canceled", tc.name, err)
		}
		var rowsErr error
		for _, err := range p.Rows(ctx) {
			rowsErr = err
		}
		if !errors.Is(rowsErr, context.Canceled) {
			t.Fatalf("%s: Rows on canceled ctx yielded %v, want context.Canceled", tc.name, rowsErr)
		}
	}
}

// A deadline that expires mid-search must abort the backtracker and return
// ctx.Err() — the search would otherwise enumerate millions of nodes.
func TestPreparedDeadlineMidRun(t *testing.T) {
	leakcheck.Check(t)
	n := 160
	edges := pyquery.NewTable(2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				edges.Append(pyquery.Value(i), pyquery.Value(j))
			}
		}
	}
	db := pyquery.NewDB()
	db.Set("E", edges)
	tri := &pyquery.CQ{
		Head: []pyquery.Term{pyquery.V(0), pyquery.V(1), pyquery.V(2)},
		Atoms: []pyquery.Atom{
			pyquery.NewAtom("E", pyquery.V(0), pyquery.V(1)),
			pyquery.NewAtom("E", pyquery.V(1), pyquery.V(2)),
			pyquery.NewAtom("E", pyquery.V(2), pyquery.V(0)),
		},
		Ineqs: []pyquery.Ineq{pyquery.NeqVars(0, 2)},
	}
	for _, par := range []int{1, 4} {
		p, err := pyquery.Prepare(tri, db, pyquery.Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err = p.Exec(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("par=%d: Exec under 20ms deadline returned %v, want context.DeadlineExceeded", par, err)
		}
	}
}

// Streaming early-stop: breaking out of Rows must end the iteration
// without error and without enumerating the rest.
func TestPreparedRowsEarlyStop(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	db := pathDB(rnd)
	p, err := pyquery.Prepare(pathQuery(), db, pyquery.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := mustReference(t, pathQuery(), db)
	if want.Len() < 2 {
		t.Skip("answer too small for an early-stop test")
	}
	n := 0
	for tuple, err := range p.Rows(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if len(tuple) != 2 {
			t.Fatalf("bad tuple width %d", len(tuple))
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("stopped after %d rows, want 2", n)
	}
}

// The facade's free functions share one cached Prepared per (query,
// options) fingerprint.
func TestFacadePlanCacheReuse(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	db := pathDB(rnd)
	q := pathQuery()
	if _, err := pyquery.Evaluate(q, db); err != nil {
		t.Fatal(err)
	}
	if _, err := pyquery.Evaluate(q, db); err != nil {
		t.Fatal(err)
	}
	if got := db.Plans().Len(); got != 1 {
		t.Fatalf("plan cache holds %d entries after two identical Evaluates, want 1", got)
	}
	if _, err := pyquery.EvaluateOpts(q, db, pyquery.Options{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	if got := db.Plans().Len(); got != 2 {
		t.Fatalf("plan cache holds %d entries after a second options shape, want 2", got)
	}
}
