package eval

import (
	"context"
	"fmt"
	"sync/atomic"

	"pyquery/internal/governor"
	"pyquery/internal/parallel"
	"pyquery/internal/query"
	"pyquery/internal/relation"
)

// Compiled is a reusable compiled backtracking plan for one (query,
// database) snapshot: atoms reduced, indexes frozen, the join order fixed
// by internal/plan, and constraint checks compiled to assignment slots —
// everything data- and query-dependent. Executions only probe the frozen
// indexes: build once, Exec many times, concurrently if desired (the
// compiled state is read-only after Compile; each execution owns its
// cursors and output). Compile+Exec is the only way to run the backtracker
// — the facade's prepared statements, Datalog rule firings, and the
// containment test all go through it.
//
// Parameters: every $name placeholder of the query becomes a pre-bound
// variable slot, as does each extra variable in bind (the prepared Decide
// path passes the head variables here). Exec receives their values in
// Binds() order — parameters in first-occurrence order, then the bind
// variables — and the search starts from the already-bound slots, turning
// e.g. a point-lookup template into pure index probes.
type Compiled struct {
	e *backtracker
	// params are the template's parameter names, in binding order.
	params []string
	// bindSlots[i] is the assignment slot of the i-th bound value.
	bindSlots []int
}

// Compile compiles q against db for repeated execution. bind lists extra
// query variables to pre-bind at execution time (beyond the query's own
// parameters); Options.Parallelism is frozen into the compiled plan.
func Compile(q *query.CQ, db *query.DB, opts Options, bind []query.Var) (*Compiled, error) {
	params := q.Params()
	qc := q
	var paramVars []query.Var
	if len(params) > 0 {
		qc, paramVars = rewriteParams(q, params)
	}
	preBound := make([]query.Var, 0, len(paramVars)+len(bind))
	preBound = append(preBound, paramVars...)
	preBound = append(preBound, bind...)
	e, err := newBacktracker(qc, db, opts, preBound)
	if err != nil {
		return nil, err
	}
	c := &Compiled{e: e, params: params}
	c.bindSlots = make([]int, len(preBound))
	for i, v := range preBound {
		c.bindSlots[i] = e.slot[v]
	}
	return c, nil
}

// Params returns the template's parameter names in binding order.
func (c *Compiled) Params() []string { return c.params }

// Binds returns the total number of values Exec expects: one per parameter,
// then one per extra bind variable passed to Compile.
func (c *Compiled) Binds() int { return len(c.bindSlots) }

// rewriteParams replaces each $name placeholder with a fresh variable
// (above every existing variable id), returning the rewritten query and the
// fresh variables in params order.
func rewriteParams(q *query.CQ, params []string) (*query.CQ, []query.Var) {
	next := query.Var(0)
	for _, v := range q.Vars() {
		if v >= next {
			next = v + 1
		}
	}
	paramVar := make(map[string]query.Var, len(params))
	paramVars := make([]query.Var, len(params))
	for i, name := range params {
		paramVar[name] = next
		paramVars[i] = next
		next++
	}
	mapTerm := func(t query.Term) query.Term {
		if t.ParamName != "" {
			return query.V(paramVar[t.ParamName])
		}
		return t
	}
	out := q.Clone()
	for i, t := range out.Head {
		out.Head[i] = mapTerm(t)
	}
	for i := range out.Atoms {
		for j, t := range out.Atoms[i].Args {
			out.Atoms[i].Args[j] = mapTerm(t)
		}
	}
	for i, cm := range out.Cmps {
		out.Cmps[i] = query.Cmp{Left: mapTerm(cm.Left), Right: mapTerm(cm.Right), Strict: cm.Strict}
	}
	return out, paramVars
}

// bind installs the pre-bound values into the cursor and evaluates the
// constraints that involve pre-bound variables only; false means the
// bindings alone falsify the query.
func (c *Compiled) bind(cur *cursor, vals []relation.Value) bool {
	for i, s := range c.bindSlots {
		cur.assign[s] = vals[i]
	}
	e := c.e
	for _, iq := range e.immediateIneqs {
		x := cur.assign[iq.xSlot]
		if iq.ySlot >= 0 {
			if x == cur.assign[iq.ySlot] {
				return false
			}
		} else if x == iq.c {
			return false
		}
	}
	for _, cc := range e.immediateCmps {
		l, r := cc.lConst, cc.rConst
		if cc.lSlot >= 0 {
			l = cur.assign[cc.lSlot]
		}
		if cc.rSlot >= 0 {
			r = cur.assign[cc.rSlot]
		}
		if cc.strict {
			if l >= r {
				return false
			}
		} else if l > r {
			return false
		}
	}
	return true
}

func (c *Compiled) checkVals(vals []relation.Value) error {
	if len(vals) != len(c.bindSlots) {
		return fmt.Errorf("eval: got %d bound values, want %d", len(vals), len(c.bindSlots))
	}
	return nil
}

// Exec runs the compiled plan and returns the deduplicated answer relation
// over the positional head schema. vals supplies the pre-bound values in
// Binds() order; ctx cancels the search at node granularity. m, when
// non-nil, is the execution's resource meter: emitted rows are charged in
// per-worker batches, and a trip (row/byte budget, timeout, injected
// fault) flips the shared stop flag the cursors already poll.
func (c *Compiled) Exec(ctx context.Context, vals []relation.Value, m *governor.Meter) (*relation.Relation, error) {
	e := c.e
	out := query.NewTable(len(e.q.Head))
	if err := governor.Check(ctx, m, "start"); err != nil {
		return nil, err
	}
	if err := c.checkVals(vals); err != nil {
		return nil, err
	}
	if e.trivialFalse {
		return out, nil
	}
	stop, release := governor.Stop(ctx, m)
	defer release()
	workers := e.fanWidth(parallel.Workers(e.opts.Parallelism))
	if workers <= 1 {
		cur := e.newCursor()
		cur.stop = stop
		if c.bind(cur, vals) {
			emit, flush := governor.BatchEmit(m, len(e.q.Head), e.collector(cur, out, relation.NewTupleSet(len(e.q.Head))))
			cur.run(emit)
			flush() // charge the partial batch before the finish check
		}
		if err := governor.Check(ctx, m, "finish"); err != nil {
			return nil, err
		}
		return out, nil
	}
	fs := e.fanStep
	st := &e.plan[fs]
	outs := make([]*relation.Relation, workers)
	parallel.Chunks(workers, st.rel.Len(), func(w, lo, hi int) {
		cur := e.newCursor()
		cur.stop = stop
		local := query.NewTable(len(e.q.Head))
		if !c.bind(cur, vals) {
			outs[w] = local
			return
		}
		emit, flush := governor.BatchEmit(m, len(e.q.Head), e.collector(cur, local, relation.NewTupleSet(len(e.q.Head))))
		defer flush()
		for i := lo; i < hi; i++ {
			if stop != nil && stop.Load() {
				break
			}
			if !cur.bindRowID(st, i) {
				continue
			}
			cur.rec(fs+1, emit)
		}
		outs[w] = local
	})
	if err := governor.Check(ctx, m, "finish"); err != nil {
		return nil, err
	}
	seen := relation.NewTupleSet(len(e.q.Head))
	buf := make([]relation.Value, len(e.q.Head))
	for _, local := range outs {
		if local == nil {
			continue
		}
		for i := 0; i < local.Len(); i++ {
			if seen.Add(local.RowTo(buf, i)) {
				out.AppendRowOf(local, i)
			}
		}
	}
	return out, nil
}

// ExecBool decides emptiness with the compiled plan, stopping at the first
// witness. A meter adds the typed checkpoint at entry and exit; the
// decision search materializes nothing, so no rows are charged.
func (c *Compiled) ExecBool(ctx context.Context, vals []relation.Value, m *governor.Meter) (bool, error) {
	e := c.e
	if err := governor.Check(ctx, m, "start"); err != nil {
		return false, err
	}
	if err := c.checkVals(vals); err != nil {
		return false, err
	}
	if e.trivialFalse {
		return false, nil
	}
	// halt stops every worker on cancellation, a meter trip, or the first
	// witness; found records whether a witness was seen. With a meter the
	// meter's stop flag is halt, so a trip anywhere stops the search.
	var found atomic.Bool
	halt, release := governor.Stop(ctx, m)
	defer release()
	if halt == nil {
		halt = new(atomic.Bool)
	}
	workers := e.fanWidth(parallel.Workers(e.opts.Parallelism))
	if workers <= 1 {
		cur := e.newCursor()
		cur.stop = halt
		if c.bind(cur, vals) {
			cur.run(func() bool {
				found.Store(true)
				halt.Store(true)
				return false
			})
		}
		if !found.Load() {
			if err := governor.Check(ctx, m, "finish"); err != nil {
				return false, err
			}
		}
		return found.Load(), nil
	}
	fs := e.fanStep
	st := &e.plan[fs]
	parallel.Chunks(workers, st.rel.Len(), func(_, lo, hi int) {
		cur := e.newCursor()
		cur.stop = halt
		if !c.bind(cur, vals) {
			return
		}
		emit := func() bool {
			found.Store(true)
			halt.Store(true)
			return false
		}
		for i := lo; i < hi && !halt.Load(); i++ {
			if !cur.bindRowID(st, i) {
				continue
			}
			if !cur.rec(fs+1, emit) {
				return
			}
		}
	})
	if !found.Load() {
		if err := governor.Check(ctx, m, "finish"); err != nil {
			return false, err
		}
	}
	return found.Load(), nil
}

// ForEach streams the deduplicated answer tuples to fn in the serial
// evaluator's emission order, without materializing the answer relation.
// fn returning false stops the enumeration early (no error). The tuple
// slice is reused between calls — copy it to retain it. Streaming always
// runs the serial search regardless of the compiled Parallelism.
func (c *Compiled) ForEach(ctx context.Context, vals []relation.Value, m *governor.Meter, fn func(tuple []relation.Value) bool) error {
	e := c.e
	if err := governor.Check(ctx, m, "start"); err != nil {
		return err
	}
	if err := c.checkVals(vals); err != nil {
		return err
	}
	if e.trivialFalse {
		return nil
	}
	stop, release := governor.Stop(ctx, m)
	defer release()
	cur := e.newCursor()
	cur.stop = stop
	if !c.bind(cur, vals) {
		return nil
	}
	seen := relation.NewTupleSet(len(e.q.Head))
	tuple := make([]relation.Value, len(e.q.Head))
	headSlots := make([]int, len(e.q.Head))
	for i, t := range e.q.Head {
		if t.IsVar {
			headSlots[i] = e.slot[t.Var]
		} else {
			headSlots[i] = -1
			tuple[i] = t.Const
		}
	}
	// stopped distinguishes the consumer ending the stream (fn → false,
	// not an error) from a trip/cancellation ending it (typed error).
	consumerStop := false
	cur.run(func() bool {
		for i, s := range headSlots {
			if s >= 0 {
				tuple[i] = cur.assign[s]
			}
		}
		if !seen.Add(tuple) {
			return true
		}
		if m != nil {
			// Streamed tuples live only for the callback, but they still
			// count toward the row budget: the dedup set grows with each.
			if m.Charge(1, governor.RelBytes(1, len(tuple)), "stream") != nil {
				return false
			}
		}
		if !fn(tuple) {
			consumerStop = true
			return false
		}
		return true
	})
	if consumerStop {
		return nil
	}
	return governor.Check(ctx, m, "finish")
}
