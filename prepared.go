package pyquery

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"pyquery/internal/core"
	"pyquery/internal/decomp"
	"pyquery/internal/eval"
	"pyquery/internal/governor"
	"pyquery/internal/ivm"
	"pyquery/internal/parallel"
	"pyquery/internal/query"
	"pyquery/internal/relation"
	"pyquery/internal/wcoj"
	"pyquery/internal/yannakakis"
)

// P builds a named parameter placeholder term $name for use in atom
// arguments, head positions, and comparison sides of a query template.
// Parameters are bound to constants at execution time (Prepared.Exec), so
// one prepared template — a point lookup, a path, a triangle — serves many
// requests without re-planning. Inequality (≠) atoms do not take
// parameters; write the constraint as two comparisons or inline the
// constant.
var P = query.P

// Arg binds one named parameter for an execution.
type Arg struct {
	Name  string
	Value Value
}

// Bind pairs a parameter name with its value for Prepared.Exec.
func Bind(name string, v Value) Arg { return Arg{Name: name, Value: v} }

// Prepared is a compiled query: Prepare runs everything that depends only
// on the query and the database snapshot — classification, the
// decomposition search and cost gate, statistics-driven join ordering,
// atom reduction, index construction — exactly once, and Exec/ExecBool/
// Rows execute the frozen plan. The paper's point is that this split
// matches the complexity structure: the query-dependent work (exponential
// in q in the worst case) is paid at Prepare, the per-execution work is
// data complexity only.
//
// Staleness: the compiled state records the database generation (bumped by
// DB.Set) and the row counts of the relations it froze; every execution
// revalidates both cheaply and replans transparently when either moved. A
// Prepared is safe for concurrent executions.
type Prepared struct {
	q      *CQ
	db     *DB
	opts   Options
	params []string

	mu    sync.Mutex // guards recompilation; state is read lock-free
	state atomic.Pointer[prepState]

	// Standing-query state (Refresh/Subscribe), guarded by refMu: the
	// incremental maintainer when the shape supports it (maintTried marks
	// the one-time ivm.New attempt), and the last reported result for the
	// re-execute-and-diff fallback when it does not.
	refMu       sync.Mutex
	maint       *ivm.Maint
	maintTried  bool
	reported    *relation.Relation
	reportedPos *relation.TupleMap
}

// program is the one contract every engine's compiled form satisfies
// (eval.Compiled, yannakakis.Program — also the decomposition engine's, over
// a bag tree — core.Program, wcoj.Compiled): frozen and safe for concurrent
// executions, worker budget fixed at compile. vals are the template's bound
// parameter values (only the backtracker accepts any); m is the execution's
// meter, nil when nothing is governed.
type program interface {
	Exec(ctx context.Context, vals []relation.Value, m *governor.Meter) (*relation.Relation, error)
	ExecBool(ctx context.Context, vals []relation.Value, m *governor.Meter) (bool, error)
}

// streamer is the optional extra of programs that can emit answers without
// materializing them — the backtracker alone.
type streamer interface {
	ForEach(ctx context.Context, vals []relation.Value, m *governor.Meter, fn func(tuple []relation.Value) bool) error
}

// emptyProgram is the program of a statement whose constraints alone force
// the empty answer (routing.unsat): no engine runs. The value is the head
// width.
type emptyProgram int

func (w emptyProgram) Exec(context.Context, []relation.Value, *governor.Meter) (*relation.Relation, error) {
	return query.NewTable(int(w)), nil
}

func (emptyProgram) ExecBool(context.Context, []relation.Value, *governor.Meter) (bool, error) {
	return false, nil
}

// prepState is one frozen compilation: the routing decision, the program it
// materialized into, and the staleness epoch. It is immutable after compile
// (the lazily added decide program is the one atomic exception) and shared
// by concurrent executions.
type prepState struct {
	engine Engine
	epochs []relEpoch
	run    program

	decide atomic.Pointer[decideState] // lazy Decide program (head-bound membership)
}

// relEpoch pins one frozen relation: the stable per-relation generation
// counter (resolved once at compile, so revalidation is an atomic load —
// no lock, no map lookup), the generation value the plan was built at, the
// relation pointer, and its row count. The pointer is safe to cache
// because replacing the relation (DB.Set) always bumps the generation,
// which is checked first; the length check additionally catches rows
// appended in place by callers that bypass the changelog.
type relEpoch struct {
	name string
	gen  *atomic.Uint64
	at   uint64
	rel  *relation.Relation
	n    int
}

// Prepare compiles q against db under opts (Parallelism is frozen into the
// plan; 0 = GOMAXPROCS, 1 = serial). The template may contain parameter
// placeholders (query.P / pyquery.P); their values are supplied per
// execution. The query is cloned — later mutations of q do not affect the
// prepared statement.
func Prepare(q *CQ, db *DB, opts Options) (p *Prepared, err error) {
	defer recoverInternal("prepare", &err)
	p = &Prepared{q: q.Clone(), db: db, opts: opts, params: q.Params()}
	st, err := p.compile()
	if err != nil {
		return nil, err
	}
	p.state.Store(st)
	return p, nil
}

// Engine reports the frozen routing decision. Parameterized templates
// always execute through the compiled backtracking plan (parameters become
// pre-bound search slots, so index probes start from them); Engine reports
// EngineGeneric for them.
func (p *Prepared) Engine() Engine { return p.state.Load().engine }

// Params returns the template's parameter names in binding order.
func (p *Prepared) Params() []string { return append([]string(nil), p.params...) }

// Fingerprint returns the canonical text of the compiled template — the
// same string the plan cache keys on. Two Prepared statements with equal
// fingerprints (and equal Options) share a frozen plan, which is what lets
// a service layer coalesce same-statement requests onto one execution.
func (p *Prepared) Fingerprint() string { return p.q.String() }

// compile builds a fresh prepState from the current database snapshot:
// route decides, and the chosen engine's Compile materializes the decision.
func (p *Prepared) compile() (*prepState, error) {
	q, db, opts := p.q, p.db, p.opts
	rt, err := route(q, db, opts)
	if err != nil {
		return nil, err
	}
	st := &prepState{engine: rt.engine}
	workers := parallel.Workers(opts.Parallelism)
	switch {
	case rt.unsat:
		st.run = emptyProgram(len(q.Head))
	case rt.engine == EngineYannakakis:
		st.run, err = yannakakis.Compile(q, db, yannakakis.Options{Parallelism: opts.Parallelism})
	case rt.engine == EngineColorCoding:
		st.run, err = core.Compile(q, db, opts.core())
	case rt.engine == EngineWCOJ:
		st.run, err = wcoj.Compile(q, rt.wcoj, workers)
	case rt.engine == EngineDecomp:
		// The bag joins run under their own compile meter with the execution
		// budget. On a trip: without Degrade the limit error surfaces from
		// Prepare; with Degrade the partial bags are dropped (nothing retains
		// them — GC reclaims) and the statement freezes the backtracker, which
		// runs under the full per-execution budget instead. A degraded compile
		// does not revisit the leapfrog gate: the budget already tripped once,
		// and trie building materializes comparable state up front.
		cm := governor.New(nil, "decomp", opts.MaxRows, opts.MemoryLimit)
		st.run, err = decomp.Compile(q, rt.decomp, workers, cm)
		if err == nil || !opts.Degrade {
			break
		}
		st.engine = EngineGeneric
		fallthrough
	default: // EngineGeneric, EngineComparisons (rt.q is the collapsed query)
		st.run, err = eval.Compile(rt.q, db, eval.Options{Parallelism: opts.Parallelism}, nil)
	}
	if err != nil {
		return nil, err
	}
	return p.snapshotLens(st), nil
}

// snapshotLens records, for every relation the plan froze, its stable
// generation counter, the value it holds now, and its row count — the
// per-relation staleness epoch. Writes to relations the query does not
// mention leave the epoch intact, so unrelated mutations no longer force a
// recompile.
func (p *Prepared) snapshotLens(st *prepState) *prepState {
	seen := make(map[string]bool, len(p.q.Atoms))
	for _, a := range p.q.Atoms {
		if seen[a.Rel] {
			continue
		}
		seen[a.Rel] = true
		if r, ok := p.db.Rel(a.Rel); ok {
			g := p.db.RelGen(a.Rel)
			st.epochs = append(st.epochs, relEpoch{name: a.Rel, gen: g, at: g.Load(), rel: r, n: r.Len()})
		}
	}
	return st
}

// fresh reports whether the compiled state still matches the database:
// every frozen relation's generation must not have moved and it must still
// hold the row count it was reduced at (relations grown in place by
// callers that bypass the changelog change length without bumping any
// generation). Only the query's own relations are consulted — k atomic
// loads and k length checks, no locks.
func (p *Prepared) fresh(st *prepState) bool {
	for _, e := range st.epochs {
		if e.gen.Load() != e.at || e.rel.Len() != e.n {
			return false
		}
	}
	return true
}

// current returns a fresh compiled state, replanning under the mutex when
// the epoch moved. The double-check keeps concurrent executions from
// compiling the same plan twice.
func (p *Prepared) current() (*prepState, error) {
	if st := p.state.Load(); p.fresh(st) {
		return st, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if st := p.state.Load(); p.fresh(st) {
		return st, nil
	}
	st, err := p.compile()
	if err != nil {
		return nil, err
	}
	p.state.Store(st)
	return st, nil
}

// argVals resolves the named arguments into the template's parameter order.
func (p *Prepared) argVals(args []Arg) ([]relation.Value, error) {
	if len(p.params) == 0 && len(args) == 0 {
		return nil, nil
	}
	byName := make(map[string]relation.Value, len(args))
	for _, a := range args {
		if _, dup := byName[a.Name]; dup {
			return nil, fmt.Errorf("pyquery: parameter $%s bound twice", a.Name)
		}
		byName[a.Name] = a.Value
	}
	vals := make([]relation.Value, len(p.params))
	for i, name := range p.params {
		v, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("pyquery: parameter $%s is unbound", name)
		}
		vals[i] = v
		delete(byName, name)
	}
	for name := range byName {
		return nil, fmt.Errorf("pyquery: unknown parameter $%s", name)
	}
	return vals, nil
}

// Exec runs the prepared query and returns the answer relation over the
// positional head schema. args bind the template's parameters (all of
// them, by name); ctx cancels the evaluation at the engine's natural
// boundaries — search nodes for the backtracker, pass steps for the tree
// engines, trial batches for color coding.
func (p *Prepared) Exec(ctx context.Context, args ...Arg) (res *Relation, err error) {
	st, vals, ectx, m, done, err := p.begin(ctx, args)
	defer done()
	if err != nil {
		return nil, err
	}
	defer recoverInternal(engineLabel(st.engine), &err)
	return st.run.Exec(ectx, vals, m)
}

// ExecBool decides Q(d) ≠ ∅ with the frozen plan, stopping at the first
// witness where the engine supports it.
func (p *Prepared) ExecBool(ctx context.Context, args ...Arg) (ok bool, err error) {
	st, vals, ectx, m, done, err := p.begin(ctx, args)
	defer done()
	if err != nil {
		return false, err
	}
	defer recoverInternal(engineLabel(st.engine), &err)
	return st.run.ExecBool(ectx, vals, m)
}

// govern is the execution prelude every governed boundary takes — begin
// (Exec/ExecBool/ForEach), Decide, Refresh, and the color-coding free
// functions: Options.Timeout becomes a deadline on the returned context
// (done releases its timer and must be deferred), and a context that has
// already finished is classified into the typed taxonomy under the
// boundary's label before any work runs. The error matches both the
// sentinel (ErrTimeout/ErrCanceled) and the underlying context error.
func govern(ctx context.Context, timeout time.Duration, label string) (ectx context.Context, done func(), err error) {
	ectx, done = ctx, func() {}
	if timeout > 0 {
		if ectx == nil {
			ectx = context.Background()
		}
		ectx, done = context.WithTimeout(ectx, timeout)
	}
	if cerr := parallel.CtxErr(ectx); cerr != nil {
		kind := governor.ErrCanceled
		if errors.Is(cerr, context.DeadlineExceeded) {
			kind = governor.ErrTimeout
		}
		err = &governor.Error{Kind: kind, Engine: label, Step: "begin", Cause: cerr}
	}
	return ectx, done, err
}

// meter builds the boundary's meter over govern's context: nil when nothing
// is governed (no limits, no cancelable context, no fault hook), which keeps
// ungoverned executions at their pre-governor cost.
func (p *Prepared) meter(ctx context.Context, label string) *governor.Meter {
	return governor.New(ctx, label, p.opts.MaxRows, p.opts.MemoryLimit)
}

// begin opens one execution: the govern prelude, epoch revalidation,
// argument resolution, and the execution's meter labeled by the frozen
// engine. done must be called (deferred) by every caller.
func (p *Prepared) begin(ctx context.Context, args []Arg) (st *prepState, vals []relation.Value, ectx context.Context, m *governor.Meter, done func(), err error) {
	if ectx, done, err = govern(ctx, p.opts.Timeout, "prepare"); err != nil {
		return nil, nil, ectx, nil, done, err
	}
	if st, err = p.current(); err != nil {
		return nil, nil, ectx, nil, done, err
	}
	if vals, err = p.argVals(args); err != nil {
		return nil, nil, ectx, nil, done, err
	}
	return st, vals, ectx, p.meter(ectx, engineLabel(st.engine)), done, nil
}

// ForEach streams the answer tuples to fn, stopping early when fn returns
// false. For the compiled backtracking plans (the generic class and every
// parameterized template) the tuples stream directly out of the search
// without materializing the answer; the tree engines materialize first.
// The tuple slice is reused between calls — copy it to retain it.
func (p *Prepared) ForEach(ctx context.Context, fn func(tuple []Value) bool, args ...Arg) (err error) {
	st, vals, ectx, m, done, err := p.begin(ctx, args)
	defer done()
	if err != nil {
		return err
	}
	defer recoverInternal(engineLabel(st.engine), &err)
	if s, ok := st.run.(streamer); ok {
		return s.ForEach(ectx, vals, m, fn)
	}
	res, err := st.run.Exec(ectx, vals, m)
	if err != nil {
		return err
	}
	buf := make([]Value, res.Width())
	for i := 0; i < res.Len(); i++ {
		if err := parallel.CtxErr(ectx); err != nil {
			return err
		}
		if !fn(res.RowTo(buf, i)) {
			return nil
		}
	}
	return nil
}

// Rows returns the answers as an iterator over (tuple, error) pairs: a
// non-nil error (context cancellation, staleness recompilation failure)
// ends the sequence. The yielded tuple slice is only valid until the next
// iteration — copy it to retain it.
func (p *Prepared) Rows(ctx context.Context, args ...Arg) iter.Seq2[[]Value, error] {
	return func(yield func([]Value, error) bool) {
		stopped := false
		err := p.ForEach(ctx, func(tuple []Value) bool {
			if !yield(tuple, nil) {
				stopped = true
				return false
			}
			return true
		}, args...)
		if err != nil && !stopped {
			yield(nil, err)
		}
	}
}

// Decide answers the membership problem t ∈ Q(d) with the prepared plan:
// the head variables become pre-bound search slots (compiled lazily, once,
// alongside the main plan), so repeated membership tests amortize exactly
// like repeated executions — no per-call BindHead re-planning. args bind
// the template's parameters as in Exec.
func (p *Prepared) Decide(ctx context.Context, t []Value, args ...Arg) (ok bool, err error) {
	defer recoverInternal("decide", &err)
	ectx, done, err := govern(ctx, p.opts.Timeout, "decide")
	defer done()
	if err != nil {
		return false, err
	}
	if len(t) != len(p.q.Head) {
		return false, fmt.Errorf("pyquery: tuple arity %d does not match head arity %d", len(t), len(p.q.Head))
	}
	st, err := p.current()
	if err != nil {
		return false, err
	}
	vals, err := p.argVals(args)
	if err != nil {
		return false, err
	}
	ds, err := p.decideProg(st)
	if err != nil {
		return false, err
	}
	// Match t against the frozen head plan: constants must agree,
	// parameter positions must agree with the bound value, repeated
	// variables must receive equal values.
	headVals := make([]relation.Value, ds.numHeadVars)
	seen := make([]bool, ds.numHeadVars)
	for i, hp := range ds.head {
		switch hp.kind {
		case headVar:
			if seen[hp.idx] {
				if headVals[hp.idx] != t[i] {
					return false, nil
				}
			} else {
				seen[hp.idx] = true
				headVals[hp.idx] = t[i]
			}
		case headParam:
			if vals[hp.idx] != t[i] {
				return false, nil
			}
		default:
			if hp.c != t[i] {
				return false, nil
			}
		}
	}
	// The head-stripped program binds its own (possibly reordered, possibly
	// smaller) parameter list first, then the head variables.
	dvals := make([]relation.Value, 0, len(ds.paramPos)+len(headVals))
	for _, pi := range ds.paramPos {
		dvals = append(dvals, vals[pi])
	}
	dvals = append(dvals, headVals...)
	return ds.prog.ExecBool(ectx, dvals, p.meter(ectx, "decide"))
}

// headKind classifies one head position of the frozen decide plan.
type headKind int

const (
	headVar headKind = iota
	headParam
	headConst
)

// headPos is the compiled matcher for one head position: a variable (idx
// indexes the headVals slots), a parameter (idx indexes Prepared.params),
// or a constant.
type headPos struct {
	kind headKind
	idx  int
	c    Value
}

// decideState is the lazily compiled membership plan plus the frozen
// head-matching tables — pure functions of the template, built once per
// compiled epoch.
type decideState struct {
	prog *eval.Compiled
	// paramPos maps the head-stripped query's parameter order (what prog
	// binds first) back into Prepared.params indices: stripping the head
	// can drop head-only parameters and reorder the rest.
	paramPos    []int
	head        []headPos
	numHeadVars int
}

// decideProg returns the compiled head-bound membership plan, building it
// on first use (per compiled epoch — staleness recompiles the main state,
// which starts with an empty decide slot).
func (p *Prepared) decideProg(st *prepState) (*decideState, error) {
	if ds := st.decide.Load(); ds != nil {
		return ds, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ds := st.decide.Load(); ds != nil {
		return ds, nil
	}
	dq := p.q.Clone()
	dq.Head = nil
	headVars := p.q.HeadVars()
	prog, err := eval.Compile(dq, p.db, eval.Options{Parallelism: p.opts.Parallelism}, headVars)
	if err != nil {
		return nil, err
	}
	ds := &decideState{prog: prog, numHeadVars: len(headVars)}
	tmplIdx := make(map[string]int, len(p.params))
	for i, name := range p.params {
		tmplIdx[name] = i
	}
	for _, name := range prog.Params() {
		ds.paramPos = append(ds.paramPos, tmplIdx[name])
	}
	slotOf := make(map[Var]int, len(headVars))
	for i, v := range headVars {
		slotOf[v] = i
	}
	ds.head = make([]headPos, len(p.q.Head))
	for i, term := range p.q.Head {
		switch {
		case term.IsVar:
			ds.head[i] = headPos{kind: headVar, idx: slotOf[term.Var]}
		case term.ParamName != "":
			ds.head[i] = headPos{kind: headParam, idx: tmplIdx[term.ParamName]}
		default:
			ds.head[i] = headPos{kind: headConst, c: term.Const}
		}
	}
	st.decide.Store(ds)
	return ds, nil
}

// ErrNotMaintainable is returned by Refresh and Subscribe for templates
// whose materialized result is not well defined without per-call input —
// currently parameterized templates (bind the parameters and prepare the
// bound query instead).
var ErrNotMaintainable = ivm.ErrNotMaintainable

// Change is one batch of standing-query output: the tuples that entered
// and left the result since the previous batch. Both relations use the
// positional head schema; either may be empty, never nil.
type Change struct {
	Added, Removed *Relation
}

// Refresh brings the query's materialized result up to date and returns
// the exact membership change since the previous successful Refresh. The
// first call materializes the result and returns it wholesale as added.
//
// When the query shape is maintainable, the refresh applies the counting
// delta rules to the database changelog — O(Δ) work for small updates
// instead of re-execution — and transparently falls back to re-executing
// (and diffing) when the accumulated delta volume prices above a full run,
// when a relation was wholesale replaced, or when the changelog has been
// evicted past the last watermark. Unmaintainable shapes always take the
// re-execute-and-diff path, so Refresh is correct for every template.
//
// Refresh honors Options.Timeout, MaxRows, and MemoryLimit like Exec; a
// governed trip surfaces as a *governor.Error and leaves the previously
// reported result intact (the next Refresh recovers by rebuilding).
// Parameterized templates return ErrNotMaintainable. Calls are serialized
// internally; Refresh must not run concurrently with database writes.
func (p *Prepared) Refresh(ctx context.Context) (added, removed *Relation, err error) {
	if len(p.params) > 0 {
		return nil, nil, ErrNotMaintainable
	}
	defer recoverInternal("ivm", &err)
	ectx, done, err := govern(ctx, p.opts.Timeout, "ivm")
	defer done()
	if err != nil {
		return nil, nil, err
	}
	p.refMu.Lock()
	defer p.refMu.Unlock()
	if !p.maintTried {
		p.maintTried = true
		mt, merr := ivm.New(p.q, p.db)
		if merr == nil {
			p.maint = mt
		} else if !errors.Is(merr, ivm.ErrNotMaintainable) {
			p.maintTried = false
			return nil, nil, merr
		}
	}
	if p.maint != nil {
		return p.maint.Refresh(ectx, p.meter(ectx, "ivm"), p.opts.Parallelism)
	}
	// Unmaintainable shape: re-execute and diff against the last report.
	res, err := p.Exec(ectx)
	if err != nil {
		return nil, nil, err
	}
	w := len(p.q.Head)
	pos := relation.NewTupleMapSized(w, res.Len())
	added = query.NewTable(w)
	removed = query.NewTable(w)
	diffBuf := make([]Value, w)
	for i := 0; i < res.Len(); i++ {
		row := res.RowTo(diffBuf, i)
		pos.Set(row, int32(i))
		if p.reportedPos == nil {
			added.Append(row...)
		} else if _, ok := p.reportedPos.Get(row); !ok {
			added.Append(row...)
		}
	}
	if p.reported != nil {
		for i := 0; i < p.reported.Len(); i++ {
			row := p.reported.RowTo(diffBuf, i)
			if _, ok := pos.Get(row); !ok {
				removed.Append(row...)
			}
		}
	}
	p.reported, p.reportedPos = res, pos
	return added, removed, nil
}

// Subscribe turns the prepared query into a standing query: an iterator
// that yields the initial result as its first Change and then one Change
// per database mutation batch that actually moves the result (empty
// refreshes are skipped). Iteration blocks between yields waiting for
// writes; cancel ctx to end the sequence (the cancellation itself is
// silent — it does not surface as an error). Any other refresh failure is
// yielded once and ends the sequence. The watcher is unregistered when the
// iterator returns, whether by break, cancellation, or error; no goroutine
// is spawned.
func (p *Prepared) Subscribe(ctx context.Context) iter.Seq2[Change, error] {
	return func(yield func(Change, error) bool) {
		if ctx == nil {
			ctx = context.Background()
		}
		ch, stop := p.db.Watch()
		defer stop()
		first := true
		for {
			added, removed, err := p.Refresh(ctx)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				yield(Change{}, err)
				return
			}
			if first || added.Len() > 0 || removed.Len() > 0 {
				if !yield(Change{Added: added, Removed: removed}, nil) {
					return
				}
				first = false
			}
			select {
			case <-ch:
			case <-ctx.Done():
				return
			}
		}
	}
}

// planKey fingerprints a (query, options) pair for the per-database plan
// cache: the rendered rule text is canonical for a query value, and the
// options are comparable, so the struct is a map key.
type planKey struct {
	fp   string
	opts Options
}

// prepared returns the compiled statement for a one-shot facade call:
// cached per database and keyed by fingerprint, so repeated Evaluate calls
// silently amortize planning. Options.NoCache compiles fresh instead.
func prepared(q *CQ, db *DB, opts Options) (*Prepared, error) {
	if opts.NoCache {
		return Prepare(q, db, opts)
	}
	key := planKey{fp: q.String(), opts: opts}
	cache := db.Plans()
	if v, ok := cache.Get(key); ok {
		if p, ok := v.(*Prepared); ok {
			return p, nil
		}
	}
	p, err := Prepare(q, db, opts)
	if err != nil {
		return nil, err
	}
	cache.Add(key, p)
	return p, nil
}
