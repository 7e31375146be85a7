package pyquery_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"pyquery"
	"pyquery/internal/decomp"
	"pyquery/internal/faults"
	"pyquery/internal/governor"
	"pyquery/internal/leakcheck"
	"pyquery/internal/relation"
	"pyquery/internal/workload"
)

// Fault-injection harness for the resource governor: every engine class is
// driven through a full Prepare+Exec with an injector that forces a typed
// trip (or a panic) at the Nth governor checkpoint, for N swept over the
// checkpoints the operation actually crosses. The contract under test:
// a trip at ANY checkpoint surfaces as a typed, errors.Is-able failure
// carrying the engine label, no goroutines leak, and the same query runs
// clean immediately afterwards.

type faultCase struct {
	name   string
	engine pyquery.Engine
	q      *pyquery.CQ
	db     *pyquery.DB
	// run, when set, replaces Prepare+Exec as the governed operation.
	run func(pyquery.Options) (*pyquery.Relation, error)
}

// faultCases covers all six engine classes, mirroring the routing in
// TestPreparedCanceledContext: an acyclic path (yannakakis), the same path
// with an inequality (colorcoding) and with a comparison (comparisons), a
// triangle with an inequality (generic backtracker), a 4-cycle (hypertree
// decomposition), and a pure triangle on a skewed hub graph (worst-case-
// optimal leapfrog).
func faultCases() []faultCase {
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
	return []faultCase{
		{"yannakakis", pyquery.EngineYannakakis, pathQuery(), db, nil},
		{"colorcoding", pyquery.EngineColorCoding, ineq, db, nil},
		{"comparisons", pyquery.EngineComparisons, cmp, db, nil},
		{"generic", pyquery.EngineGeneric, tri, tridb, nil},
		{"decomp", pyquery.EngineDecomp, workload.CycleQuery(4), tridb, nil},
		{"wcoj", pyquery.EngineWCOJ, workload.TriangleQuery(), workload.HubGraphDB(200, 5), nil},
	}
}

// formulaFaultCase drives the ∧/∨ formula path through its free function:
// a disjunction spanning the chain's ends (colored) beside a conjunct
// pushed into R1.
func formulaFaultCase() faultCase {
	db := pathDB(rand.New(rand.NewSource(43)))
	phi := pyquery.IneqAnd{Subs: []pyquery.IneqFormula{
		pyquery.IneqOr{Subs: []pyquery.IneqFormula{
			pyquery.IneqAtom{Ineq: pyquery.NeqVars(0, 3)},
			pyquery.IneqAtom{Ineq: pyquery.NeqConst(0, 2)},
		}},
		pyquery.IneqAtom{Ineq: pyquery.NeqVars(1, 2)},
	}}
	return faultCase{name: "colorcoding-formula", engine: pyquery.EngineColorCoding, db: db,
		run: func(opts pyquery.Options) (*pyquery.Relation, error) {
			return pyquery.EvaluateIneqFormula(pathQuery(), phi, db, opts)
		}}
}

// prepareExec is one full governed operation: a fresh Prepare (compile-time
// checkpoints included — decomp materializes its bags under a compile
// meter) followed by one Exec, or the case's own run.
func prepareExec(tc faultCase, opts pyquery.Options) (*pyquery.Relation, error) {
	if tc.run != nil {
		return tc.run(opts)
	}
	p, err := pyquery.Prepare(tc.q, tc.db, opts)
	if err != nil {
		return nil, err
	}
	return p.Exec(context.Background())
}

// sweepPoints picks the checkpoint ordinals to inject at: all of 1..total
// when few, otherwise an even sample that always includes the first and
// last checkpoint.
func sweepPoints(total int64, max int) []int64 {
	if total <= int64(max) {
		ks := make([]int64, 0, total)
		for k := int64(1); k <= total; k++ {
			ks = append(ks, k)
		}
		return ks
	}
	stride := total / int64(max)
	ks := []int64{}
	for k := int64(1); k <= total; k += stride {
		ks = append(ks, k)
	}
	if ks[len(ks)-1] != total {
		ks = append(ks, total)
	}
	return ks
}

// TestFaultSweepAllEngines is the harness proper: engine × checkpoint ×
// parallelism {1,N}, plus the formula path's free function. Each (engine, par) first runs clean for the expected
// answer, then runs under a counting-only injector to learn how many
// checkpoints the operation crosses, then re-runs with a forced ErrRowLimit
// trip at each sampled checkpoint — asserting the typed failure — and
// finally runs clean again to prove the trip left no broken state behind.
func TestFaultSweepAllEngines(t *testing.T) {
	leakcheck.Check(t)
	defer faults.Uninstall()
	for _, tc := range append(faultCases(), formulaFaultCase()) {
		for _, par := range []int{1, 3} {
			opts := pyquery.Options{Parallelism: par}
			faults.Uninstall()
			want, err := prepareExec(tc, opts)
			if err != nil {
				t.Fatalf("%s par=%d baseline: %v", tc.name, par, err)
			}

			counter := &faults.Injector{}
			counter.Install()
			if _, err := prepareExec(tc, opts); err != nil {
				t.Fatalf("%s par=%d counting run: %v", tc.name, par, err)
			}
			faults.Uninstall()
			total := counter.Count()
			if total == 0 {
				t.Fatalf("%s par=%d crossed no governor checkpoints — engine loop without a checkpoint", tc.name, par)
			}

			for _, k := range sweepPoints(total, 24) {
				inj := &faults.Injector{Kind: governor.ErrRowLimit, At: k}
				inj.Install()
				_, err := prepareExec(tc, opts)
				faults.Uninstall()
				if inj.Count() < k {
					// Concurrent schedules may cross marginally fewer
					// checkpoints (e.g. a worker observing another's trip);
					// a sweep point that never fired asserts nothing.
					continue
				}
				if err == nil {
					t.Fatalf("%s par=%d: injected trip at checkpoint %d/%d was swallowed", tc.name, par, k, total)
				}
				if !errors.Is(err, pyquery.ErrRowLimit) {
					t.Fatalf("%s par=%d checkpoint %d/%d: got %v, want ErrRowLimit", tc.name, par, k, total, err)
				}
				var le *pyquery.LimitError
				if !errors.As(err, &le) {
					t.Fatalf("%s par=%d checkpoint %d/%d: not a *LimitError: %v", tc.name, par, k, total, err)
				}
				if le.Engine == "" {
					t.Fatalf("%s par=%d checkpoint %d/%d: LimitError without engine label: %+v", tc.name, par, k, total, le)
				}
			}

			got, err := prepareExec(tc, opts)
			if err != nil {
				t.Fatalf("%s par=%d clean run after sweep: %v", tc.name, par, err)
			}
			if !relation.EqualSet(got, want) {
				t.Fatalf("%s par=%d: answer differs after fault sweep\nwant %v\ngot  %v", tc.name, par, want, got)
			}
		}
	}
}

// TestFaultPanicRecovery injects a panic at a governor checkpoint and
// asserts the facade boundary converts it to *pyquery.InternalError — and
// that the same Prepared keeps answering correctly afterwards, i.e. the
// panic corrupted neither the statement nor the shared plan state.
func TestFaultPanicRecovery(t *testing.T) {
	leakcheck.Check(t)
	defer faults.Uninstall()
	for _, tc := range faultCases() {
		for _, par := range []int{1, 3} {
			opts := pyquery.Options{Parallelism: par}
			faults.Uninstall()
			p, err := pyquery.Prepare(tc.q, tc.db, opts)
			if err != nil {
				t.Fatalf("%s par=%d prepare: %v", tc.name, par, err)
			}
			want, err := p.Exec(context.Background())
			if err != nil {
				t.Fatalf("%s par=%d baseline: %v", tc.name, par, err)
			}

			inj := &faults.Injector{PanicAt: 2}
			inj.Install()
			_, err = p.Exec(context.Background())
			faults.Uninstall()
			if err == nil {
				t.Fatalf("%s par=%d: injected panic was swallowed", tc.name, par)
			}
			var ie *pyquery.InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("%s par=%d: panic surfaced as %T %v, want *InternalError", tc.name, par, err, err)
			}
			if ie.Engine == "" {
				t.Fatalf("%s par=%d: InternalError without engine label", tc.name, par)
			}

			got, err := p.Exec(context.Background())
			if err != nil {
				t.Fatalf("%s par=%d exec after panic: %v", tc.name, par, err)
			}
			if !relation.EqualSet(got, want) {
				t.Fatalf("%s par=%d: answer differs after recovered panic\nwant %v\ngot  %v", tc.name, par, want, got)
			}
		}
	}
}

// TestGovernorRowLimitTyped: MaxRows=1 must trip every engine with a typed
// ErrRowLimit carrying the limit detail (every case materializes more than
// one row somewhere — final answer or intermediate).
func TestGovernorRowLimitTyped(t *testing.T) {
	leakcheck.Check(t)
	for _, tc := range faultCases() {
		for _, par := range []int{1, 3} {
			_, err := prepareExec(tc, pyquery.Options{Parallelism: par, MaxRows: 1})
			if !errors.Is(err, pyquery.ErrRowLimit) {
				t.Fatalf("%s par=%d: got %v, want ErrRowLimit", tc.name, par, err)
			}
			var le *pyquery.LimitError
			if !errors.As(err, &le) || le.Limit != 1 || le.Engine == "" || le.Step == "" {
				t.Fatalf("%s par=%d: trip detail incomplete: %+v", tc.name, par, err)
			}
		}
	}
}

// TestGovernorMemoryLimitTyped: a budget far below any materialization
// (64 bytes) must trip every engine with a typed ErrMemoryLimit.
func TestGovernorMemoryLimitTyped(t *testing.T) {
	leakcheck.Check(t)
	for _, tc := range faultCases() {
		_, err := prepareExec(tc, pyquery.Options{Parallelism: 1, MemoryLimit: 64})
		if !errors.Is(err, pyquery.ErrMemoryLimit) {
			t.Fatalf("%s: got %v, want ErrMemoryLimit", tc.name, err)
		}
	}
}

// TestGovernorTimeoutTyped: Options.Timeout applies per execution and
// classifies as ErrTimeout — which still matches context.DeadlineExceeded
// for callers using the stdlib sentinel.
func TestGovernorTimeoutTyped(t *testing.T) {
	leakcheck.Check(t)
	for _, tc := range faultCases() {
		p, err := pyquery.Prepare(tc.q, tc.db, pyquery.Options{Timeout: time.Nanosecond})
		if err != nil {
			t.Fatalf("%s prepare: %v", tc.name, err)
		}
		_, err = p.Exec(context.Background())
		if !errors.Is(err, pyquery.ErrTimeout) {
			t.Fatalf("%s: got %v, want ErrTimeout", tc.name, err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: ErrTimeout does not match context.DeadlineExceeded: %v", tc.name, err)
		}
	}
}

// TestGovernorColorCodingFreeFunctions: EvaluateStats and
// EvaluateIneqFormula execute under the same governed prelude as
// Prepared.Exec, so MaxRows and Timeout trip them typed on a path-neq
// instance (400 nodes, 1 000 edges) whose evaluation takes far longer than
// the deadline and materializes far more than the row budget.
func TestGovernorColorCodingFreeFunctions(t *testing.T) {
	leakcheck.Check(t)
	db := pyquery.NewDB()
	db.Set("E", randEdges(rand.New(rand.NewSource(5)), 1000, 400))
	pure := &pyquery.CQ{
		Head: []pyquery.Term{pyquery.V(0), pyquery.V(2)},
		Atoms: []pyquery.Atom{
			pyquery.NewAtom("E", pyquery.V(0), pyquery.V(1)),
			pyquery.NewAtom("E", pyquery.V(1), pyquery.V(2)),
		},
	}
	neq := pure.Clone()
	neq.Ineqs = []pyquery.Ineq{pyquery.NeqVars(0, 2)}
	phi := pyquery.IneqAtom{Ineq: pyquery.NeqVars(0, 2)}
	runs := map[string]func(pyquery.Options) error{
		"EvaluateStats": func(o pyquery.Options) error {
			_, _, err := pyquery.EvaluateStats(neq, db, o)
			return err
		},
		"EvaluateIneqFormula": func(o pyquery.Options) error {
			_, err := pyquery.EvaluateIneqFormula(pure, phi, db, o)
			return err
		},
	}
	for name, run := range runs {
		err := run(pyquery.Options{MaxRows: 10})
		var le *pyquery.LimitError
		if !errors.Is(err, pyquery.ErrRowLimit) || !errors.As(err, &le) || le.Engine != "colorcoding" {
			t.Fatalf("%s MaxRows=10: got %v, want a colorcoding ErrRowLimit", name, err)
		}
		if err := run(pyquery.Options{Timeout: 2 * time.Millisecond}); !errors.Is(err, pyquery.ErrTimeout) {
			t.Fatalf("%s Timeout=2ms: got %v, want ErrTimeout", name, err)
		}
		if err := run(pyquery.Options{}); err != nil {
			t.Fatalf("%s ungoverned: %v", name, err)
		}
	}
}

// TestDecompDegradeFallsBack: when bag materialization blows the row budget
// at prepare time, Degrade must fall back to the backtracker and still
// produce the exact answer; without Degrade the Prepare fails typed.
func TestDecompDegradeFallsBack(t *testing.T) {
	leakcheck.Check(t)
	// A sparse graph keeps the backtracker's emission count (one emit per
	// satisfying assignment, pre-dedup) below the decomposition's bag
	// materialization, so a budget exists that the fallback fits in but the
	// bags do not.
	rnd := rand.New(rand.NewSource(42))
	db := pyquery.NewDB()
	db.Set("E", randEdges(rnd, 60, 20))
	cyc := workload.CycleQuery(4)

	p, err := pyquery.Prepare(cyc, db, pyquery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Engine() != pyquery.EngineDecomp {
		t.Fatalf("ungoverned prepare routed to %v, want EngineDecomp", p.Engine())
	}
	want, err := p.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("degradation test needs a non-empty answer")
	}

	// Calibrate the budget from the data: strictly between the number of
	// satisfying assignments (what the degraded backtracker charges) and
	// the cumulative bag rows (what the decomp compile charges).
	rt, err := decomp.PlanFor(cyc, db)
	if err != nil {
		t.Fatal(err)
	}
	bags, err := decomp.Compile(cyc, rt, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cumBags := int64(0)
	for _, r := range bags.BagRows {
		if r > 0 {
			cumBags += int64(r)
		}
	}
	walkQ := &pyquery.CQ{
		Head: []pyquery.Term{pyquery.V(0), pyquery.V(1), pyquery.V(2), pyquery.V(3)},
		Atoms: []pyquery.Atom{
			pyquery.NewAtom("E", pyquery.V(0), pyquery.V(1)),
			pyquery.NewAtom("E", pyquery.V(1), pyquery.V(2)),
			pyquery.NewAtom("E", pyquery.V(2), pyquery.V(3)),
			pyquery.NewAtom("E", pyquery.V(3), pyquery.V(0)),
		},
	}
	walksRel, err := pyquery.EvaluateOpts(walkQ, db, pyquery.Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	walks := int64(walksRel.Len())
	if walks >= cumBags {
		t.Fatalf("dataset gives no degradation window: %d assignments vs %d bag rows", walks, cumBags)
	}
	budget := (walks + cumBags) / 2

	_, err = pyquery.Prepare(cyc, db, pyquery.Options{MaxRows: budget})
	if !errors.Is(err, pyquery.ErrRowLimit) {
		t.Fatalf("without Degrade: Prepare returned %v, want ErrRowLimit", err)
	}
	var le *pyquery.LimitError
	if !errors.As(err, &le) || le.Engine != "decomp" {
		t.Fatalf("without Degrade: trip not attributed to decomp compile: %+v", err)
	}

	dp, err := pyquery.Prepare(cyc, db, pyquery.Options{MaxRows: budget, Degrade: true})
	if err != nil {
		t.Fatalf("with Degrade: %v", err)
	}
	if dp.Engine() != pyquery.EngineGeneric {
		t.Fatalf("with Degrade: routed to %v, want EngineGeneric fallback", dp.Engine())
	}
	got, err := dp.Exec(context.Background())
	if err != nil {
		t.Fatalf("degraded exec: %v", err)
	}
	if !relation.EqualSet(got, want) {
		t.Fatalf("degraded answer differs\nwant %v\ngot  %v", want, got)
	}
}

// ivmCase is a maintainable standing query with a deterministic base state
// and a mutation batch whose delta the maintenance refresh processes.
type ivmCase struct {
	name   string
	q      *pyquery.CQ
	setup  func() *pyquery.DB
	mutate func(db *pyquery.DB)
}

// ivmCases covers the maintainable shapes: the acyclic path, the same path
// with a comparison filter, and a triangle with a repeated relation (three
// occurrences of E — the self-join case the telescoped delta rules handle).
func ivmCases() []ivmCase {
	cmp := pathQuery()
	cmp.Cmps = []pyquery.Cmp{pyquery.Lt(pyquery.V(0), pyquery.V(3))}
	pathSetup := func() *pyquery.DB {
		db := pathDB(rand.New(rand.NewSource(9)))
		db.Insert("R1", []pyquery.Value{0, 1})
		return db
	}
	pathMutate := func(db *pyquery.DB) {
		db.Delete("R1", []pyquery.Value{0, 1})
		db.Insert("R0", []pyquery.Value{2, 3})
		db.Insert("R2", []pyquery.Value{4, 5})
	}
	triSetup := func() *pyquery.DB {
		db := pyquery.NewDB()
		db.Set("E", randEdges(rand.New(rand.NewSource(11)), 200, 20))
		db.Insert("E", []pyquery.Value{0, 1})
		return db
	}
	triMutate := func(db *pyquery.DB) {
		db.Delete("E", []pyquery.Value{0, 1})
		db.Insert("E", []pyquery.Value{3, 17})
	}
	return []ivmCase{
		{"path", pathQuery(), pathSetup, pathMutate},
		{"cmp", cmp, pathSetup, pathMutate},
		{"triangle", workload.TriangleQuery(), triSetup, triMutate},
	}
}

// ivmOp is one full standing-query maintenance cycle from scratch: a fresh
// database and Prepare, the initializing Refresh (rebuild), a mutation
// batch, the delta Refresh, and a final Exec for the answer.
func ivmOp(tc ivmCase, par int) (*pyquery.Relation, error) {
	db := tc.setup()
	p, err := pyquery.Prepare(tc.q, db, pyquery.Options{Parallelism: par})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if _, _, err := p.Refresh(ctx); err != nil {
		return nil, err
	}
	tc.mutate(db)
	if _, _, err := p.Refresh(ctx); err != nil {
		return nil, err
	}
	return p.Exec(ctx)
}

// TestFaultSweepIVMRefresh extends the sweep to incremental maintenance:
// a forced ErrRowLimit trip at each governor checkpoint a full maintenance
// cycle crosses — the rebuild's reduce charges, every per-atom delta pass,
// the batched delta-join charges, and the finish barrier. Each trip must
// surface typed with an engine label, and a clean cycle afterwards still
// produces the exact answer. The sweep must visit at least one "delta-pass"
// checkpoint under the "ivm" engine label — the contract ISSUE 8 names.
func TestFaultSweepIVMRefresh(t *testing.T) {
	leakcheck.Check(t)
	defer faults.Uninstall()
	stepsSeen := map[string]bool{}
	enginesSeen := map[string]bool{}
	for _, tc := range ivmCases() {
		for _, par := range []int{1, 3} {
			faults.Uninstall()
			want, err := ivmOp(tc, par)
			if err != nil {
				t.Fatalf("%s par=%d baseline: %v", tc.name, par, err)
			}

			counter := &faults.Injector{}
			counter.Install()
			if _, err := ivmOp(tc, par); err != nil {
				t.Fatalf("%s par=%d counting run: %v", tc.name, par, err)
			}
			faults.Uninstall()
			total := counter.Count()
			if total == 0 {
				t.Fatalf("%s par=%d maintenance cycle crossed no governor checkpoints", tc.name, par)
			}

			for _, k := range sweepPoints(total, 24) {
				inj := &faults.Injector{Kind: governor.ErrRowLimit, At: k}
				inj.Install()
				_, err := ivmOp(tc, par)
				faults.Uninstall()
				if inj.Count() < k {
					continue
				}
				if err == nil {
					t.Fatalf("%s par=%d: injected trip at checkpoint %d/%d was swallowed", tc.name, par, k, total)
				}
				if !errors.Is(err, pyquery.ErrRowLimit) {
					t.Fatalf("%s par=%d checkpoint %d/%d: got %v, want ErrRowLimit", tc.name, par, k, total, err)
				}
				var le *pyquery.LimitError
				if !errors.As(err, &le) {
					t.Fatalf("%s par=%d checkpoint %d/%d: not a *LimitError: %v", tc.name, par, k, total, err)
				}
				if le.Engine == "" {
					t.Fatalf("%s par=%d checkpoint %d/%d: LimitError without engine label: %+v", tc.name, par, k, total, le)
				}
				stepsSeen[le.Step] = true
				enginesSeen[le.Engine] = true
			}

			got, err := ivmOp(tc, par)
			if err != nil {
				t.Fatalf("%s par=%d clean run after sweep: %v", tc.name, par, err)
			}
			if !relation.EqualSet(got, want) {
				t.Fatalf("%s par=%d: answer differs after fault sweep\nwant %v\ngot  %v", tc.name, par, want, got)
			}
		}
	}
	if !enginesSeen["ivm"] {
		t.Fatalf("sweep never tripped a maintenance meter: engines %v", enginesSeen)
	}
	if !stepsSeen["delta-pass"] {
		t.Fatalf("sweep never tripped a delta-pass checkpoint: steps %v", stepsSeen)
	}
}

// TestFaultIVMRefreshRecovers: a trip mid-refresh must not poison the
// statement — the SAME Prepared's next clean Refresh reports deltas
// relative to the last successfully reported result, and folding them into
// the subscriber's view reconverges with a fresh execution.
func TestFaultIVMRefreshRecovers(t *testing.T) {
	leakcheck.Check(t)
	defer faults.Uninstall()
	tc := ivmCases()[0]
	db := tc.setup()
	p, err := pyquery.Prepare(tc.q, db, pyquery.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	view := pyquery.NewTable(len(tc.q.Head))
	fold := func() {
		t.Helper()
		added, removed, err := p.Refresh(ctx)
		if err != nil {
			t.Fatalf("Refresh: %v", err)
		}
		next := pyquery.NewTable(len(tc.q.Head))
		for i := 0; i < view.Len(); i++ {
			if !removed.Contains(view.Row(i)) {
				next.Append(view.Row(i)...)
			}
		}
		for i := 0; i < added.Len(); i++ {
			next.Append(added.Row(i)...)
		}
		view = next
	}
	fold()
	tc.mutate(db)

	// Checkpoint 2 from here lands inside the delta refresh (1 is the
	// "refresh" entry check, 2 the first per-atom delta pass).
	inj := &faults.Injector{Kind: governor.ErrMemoryLimit, At: 2}
	inj.Install()
	_, _, err = p.Refresh(ctx)
	faults.Uninstall()
	if !errors.Is(err, pyquery.ErrMemoryLimit) {
		t.Fatalf("tripped refresh: got %v, want ErrMemoryLimit", err)
	}

	fold()
	want, err := pyquery.EvaluateOpts(tc.q, db, pyquery.Options{Parallelism: 1, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualSet(view.Sort(), want.Sort()) {
		t.Fatalf("view diverged after recovered trip\nwant %v\ngot  %v", want, view)
	}
}

// TestPlanStateValidAfterTrip: a governed statement that trips must not
// poison later statements for the same query — a fresh ungoverned Prepare
// against the same database still answers correctly, and re-executing the
// tripped statement trips again with the same kind (per-execution meters).
func TestPlanStateValidAfterTrip(t *testing.T) {
	leakcheck.Check(t)
	rnd := rand.New(rand.NewSource(42))
	db := pathDB(rnd)
	q := pathQuery()

	base, err := pyquery.Prepare(q, db, pyquery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	tripped, err := pyquery.Prepare(q, db, pyquery.Options{MaxRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		if _, err := tripped.Exec(context.Background()); !errors.Is(err, pyquery.ErrRowLimit) {
			t.Fatalf("rep %d: got %v, want ErrRowLimit", rep, err)
		}
	}

	fresh, err := pyquery.Prepare(q, db, pyquery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualSet(got, want) {
		t.Fatalf("answer differs after a tripped statement\nwant %v\ngot  %v", want, got)
	}
}
