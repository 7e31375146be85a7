// Package eval implements the paper's baseline evaluators: generic
// backtracking conjunctive-query evaluation (data complexity n^{O(q)} —
// exactly the exponent Theorem 1 argues is inherent), brute-force
// enumeration oracles, recursive first-order evaluation over the active
// domain, and Chandra–Merlin homomorphism/containment checks.
package eval

import (
	"sync/atomic"

	"pyquery/internal/plan"
	"pyquery/internal/query"
	"pyquery/internal/relation"
	"pyquery/internal/stats"
)

// Options controls the conjunctive evaluator.
type Options struct {
	// NoReorder disables join ordering entirely and evaluates the atoms in
	// the order written (ablation A3, and the reference path of the
	// equivalence suites).
	NoReorder bool
	// Parallelism is the worker count for the first-step fan-out: the rows
	// matched by the first plan step are split into contiguous chunks and
	// each worker backtracks through the remaining steps independently.
	// 0 means GOMAXPROCS; 1 is the serial evaluator.
	Parallelism int
}

// collector returns an emit callback extracting the head tuple from the
// cursor's assignment into out, deduplicated through seen.
func (e *backtracker) collector(c *cursor, out *relation.Relation, seen *relation.TupleSet) func() bool {
	// Head extraction plan: tuple starts as the constant template, and
	// headSlots names the assign slot feeding each variable position.
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
	return func() bool {
		for i, s := range headSlots {
			if s >= 0 {
				tuple[i] = c.assign[s]
			}
		}
		if seen.Add(tuple) {
			out.Append(tuple...)
		}
		return true // keep searching
	}
}

// backtracker holds the compiled plan for one (query, database) pair. The
// plan (steps, frozen indexes, reduced relations) is immutable after
// construction and safely shared by concurrent cursors; all mutable search
// state lives in a cursor.
type backtracker struct {
	q    *query.CQ
	db   *query.DB
	opts Options

	vars []query.Var       // dense variable universe (body vars)
	slot map[query.Var]int // var → index into assign

	plan []planStep
	// fanStep is the first step that binds variables (earlier steps are
	// ground-atom tautologies); the parallel evaluator fans out over its
	// rows. −1 when no step binds anything — or when the first binding step
	// probes pre-bound (parameter) slots, whose keys a fan-out would skip.
	fanStep      int
	trivialFalse bool

	// preBound are the externally bound variables (parameter slots and the
	// prepared Decide path's head bindings), in the order Compiled.bind
	// receives their values; immediateIneqs/immediateCmps are the compiled
	// constraints over pre-bound variables only, checked once per execution
	// right after binding.
	preBound       []query.Var
	immediateIneqs []ineqCheck
	immediateCmps  []cmpCheck
}

// minFanWork gates the fan-out: below this many total plan rows (summed
// over the reduced step relations — a cheap proxy for search work) the
// goroutine, cursor, and merge overhead outweighs the win and the serial
// evaluator runs instead. A variable so tests can force the parallel path
// on small instances.
var minFanWork = 1024

// fanWidth caps the requested worker count by what the plan supports: a
// fan-out needs a binding first step with at least two rows to split, and
// enough total work to amortize per-worker setup.
func (e *backtracker) fanWidth(workers int) int {
	if workers <= 1 || e.fanStep < 0 || e.plan[e.fanStep].rel.Len() < 2 {
		return 1
	}
	work := 0
	for i := range e.plan {
		work += e.plan[i].rel.Len()
	}
	if work < minFanWork {
		return 1
	}
	return workers
}

type planStep struct {
	rel       *relation.Relation // S_j over distinct vars of the atom
	vars      []query.Var        // S_j's columns, as variables
	keyVars   []query.Var        // vars bound before this step
	newVars   []query.Var        // vars this step binds
	keyPos    []int              // positions of keyVars in S_j's schema
	newPos    []int              // positions of newVars
	keySlots  []int              // assign slots of keyVars (hoisted e.slot lookups)
	newSlots  []int              // assign slots of newVars
	index     *relation.Index
	ineqs     []ineqCheck // ≠ checks that become ready after this step
	cmps      []cmpCheck  // comparison checks that become ready after this step
	tautology bool        // ground atom already verified; skip at run time
}

// ineqCheck is a compiled ≠ constraint: assign[xSlot] must differ from
// assign[ySlot] (variable form) or from c (ySlot < 0).
type ineqCheck struct {
	xSlot int
	ySlot int
	c     relation.Value
}

// cmpCheck is a compiled </≤ constraint; a negative slot selects the
// constant operand instead.
type cmpCheck struct {
	lSlot, rSlot   int
	lConst, rConst relation.Value
	strict         bool
}

// newBacktracker compiles the plan for one (query, database) pair. preBound
// lists variables whose values arrive from outside the search before it
// starts (the prepared layer's parameter slots and decision-head bindings);
// they count as bound for ordering, index keys, constraint placement, and
// safety, and nil reproduces the classic self-contained evaluator.
func newBacktracker(q *query.CQ, db *query.DB, opts Options, preBound []query.Var) (*backtracker, error) {
	pre := make(map[query.Var]bool, len(preBound))
	for _, v := range preBound {
		pre[v] = true
	}
	if err := q.ValidateBound(db, pre); err != nil {
		return nil, err
	}
	e := &backtracker{q: q, db: db, opts: opts, slot: make(map[query.Var]int), fanStep: -1, preBound: preBound}
	for _, v := range preBound {
		if _, ok := e.slot[v]; !ok {
			e.slot[v] = len(e.vars)
			e.vars = append(e.vars, v)
		}
	}
	for _, v := range q.BodyVars() {
		if _, ok := e.slot[v]; !ok {
			e.slot[v] = len(e.vars)
			e.vars = append(e.vars, v)
		}
	}

	// Reduce each atom to S_j = π_{U_j} σ_{F_j}(R_j) over its distinct vars.
	reds := make([]reduced, len(q.Atoms))
	for i, a := range q.Atoms {
		s, vars := ReduceAtom(a, db)
		if s.Empty() {
			e.trivialFalse = true
			return e, nil
		}
		reds[i] = reduced{rel: s, vars: vars}
	}

	// Ground comparisons (markers from substitution, or user-written).
	for _, c := range q.Cmps {
		if !c.Left.IsVar && !c.Right.IsVar {
			if !c.Holds(c.Left.Const, c.Right.Const) {
				e.trivialFalse = true
				return e, nil
			}
		}
	}

	// Order the atoms. The default is the cost-based order of internal/plan
	// (estimated intermediate cardinalities from exact reduced sizes plus
	// cached base-table distinct counts); because the working database's
	// statistics are consulted on every construction, Datalog's per-round
	// firings re-plan against the current IDB sizes for free. NoReorder is
	// the ablation (and reference) path.
	var order []int
	if opts.NoReorder {
		order = make([]int, len(q.Atoms))
		for i := range order {
			order[i] = i
		}
	} else {
		order = plan.BuildBound(planInputs(q, db, reds), q.HeadVars(), preBound).Order()
	}

	// Build plan steps.
	bound := make(map[query.Var]bool)
	for _, v := range preBound {
		bound[v] = true
	}
	for _, ai := range order {
		rd := reds[ai]
		step := planStep{rel: rd.rel, vars: rd.vars}
		for _, v := range rd.vars {
			p := rd.rel.Pos(relation.Attr(v))
			if bound[v] {
				step.keyVars = append(step.keyVars, v)
				step.keyPos = append(step.keyPos, p)
				step.keySlots = append(step.keySlots, e.slot[v])
			} else {
				step.newVars = append(step.newVars, v)
				step.newPos = append(step.newPos, p)
				step.newSlots = append(step.newSlots, e.slot[v])
				bound[v] = true
			}
		}
		if len(rd.vars) == 0 {
			step.tautology = true // ground atom, already checked nonempty
		} else {
			keySchema := make(relation.Schema, len(step.keyVars))
			for i, v := range step.keyVars {
				keySchema[i] = relation.Attr(v)
			}
			step.index = relation.NewIndex(rd.rel, keySchema)
		}
		e.plan = append(e.plan, step)
	}

	// Attach each ≠/comparison, compiled down to assign slots, to the
	// earliest step after which all its variables are bound. Pre-bound
	// variables are ready before step 0; a constraint over pre-bound
	// variables only is checked once per execution, right after binding.
	readyAt := func(vs []query.Var) int {
		last := -1
		pos := make(map[query.Var]int)
		for si, st := range e.plan {
			for _, v := range st.newVars {
				pos[v] = si
			}
		}
		for _, v := range vs {
			if pre[v] {
				continue
			}
			if p := pos[v]; p > last {
				last = p
			}
		}
		return last
	}
	for _, iq := range q.Ineqs {
		chk := ineqCheck{xSlot: e.slot[iq.X], ySlot: -1, c: iq.C}
		vs := []query.Var{iq.X}
		if iq.YIsVar {
			vs = append(vs, iq.Y)
			chk.ySlot = e.slot[iq.Y]
		}
		if at := readyAt(vs); at >= 0 {
			e.plan[at].ineqs = append(e.plan[at].ineqs, chk)
		} else {
			e.immediateIneqs = append(e.immediateIneqs, chk)
		}
	}
	for _, c := range q.Cmps {
		chk := cmpCheck{lSlot: -1, rSlot: -1, lConst: c.Left.Const, rConst: c.Right.Const, strict: c.Strict}
		var vs []query.Var
		if c.Left.IsVar {
			vs = append(vs, c.Left.Var)
			chk.lSlot = e.slot[c.Left.Var]
		}
		if c.Right.IsVar {
			vs = append(vs, c.Right.Var)
			chk.rSlot = e.slot[c.Right.Var]
		}
		if len(vs) == 0 {
			continue // ground, already checked
		}
		if at := readyAt(vs); at >= 0 {
			e.plan[at].cmps = append(e.plan[at].cmps, chk)
		} else {
			e.immediateCmps = append(e.immediateCmps, chk)
		}
	}
	for si := range e.plan {
		if !e.plan[si].tautology {
			// A first binding step that probes pre-bound keys cannot fan out
			// (the row split would bypass its key match); execute serially.
			if len(e.plan[si].keyVars) == 0 {
				e.fanStep = si
			}
			break
		}
	}
	return e, nil
}

// reduced pairs one atom's reduced relation S_j with its distinct
// variables (matching S_j's schema order).
type reduced struct {
	rel  *relation.Relation
	vars []query.Var
}

// planInputs assembles the cost-model inputs for the query's reduced
// atoms: exact reduced cardinalities plus per-variable distinct counts
// taken from the base table's cached statistics (stats.For — computed once
// per relation snapshot, so repeated evaluations pay nothing) and capped by
// the reduced size. Labels are the bare relation names; PlanFor upgrades
// them to full atom notation for reports, keeping the per-evaluation path
// free of formatting allocations.
func planInputs(q *query.CQ, db *query.DB, reds []reduced) []plan.Input {
	inputs := make([]plan.Input, len(reds))
	for i, a := range q.Atoms {
		rd := reds[i]
		base := stats.For(db, a.Rel)
		dist := make([]int, len(rd.vars))
		freq := make([]int, len(rd.vars))
		for k, v := range rd.vars {
			for j, t := range a.Args {
				if t.IsVar && t.Var == v {
					dist[k] = base.Cols[j].Distinct
					freq[k] = base.Cols[j].MaxFreq
					break
				}
			}
		}
		inputs[i] = plan.Input{Label: a.Rel, Rows: rd.rel.Len(), Vars: rd.vars, Distinct: dist, MaxFreq: freq}
	}
	return inputs
}

// PlanFor builds, without evaluating, the cost-based logical plan the
// backtracking evaluator would execute for q on db — the structured form
// behind the facade's PlanReport. Atoms are reduced (a linear scan, not an
// evaluation) so the reported cardinalities match what the engine will
// actually order by; an atom that reduces to the empty relation simply
// contributes Rows=0 and drives the estimates to zero.
func PlanFor(q *query.CQ, db *query.DB) (*plan.Plan, error) {
	inputs, _, err := PlanInputs(q, db)
	if err != nil {
		return nil, err
	}
	for i, a := range q.Atoms {
		inputs[i].Label = a.String() // full atom notation, for the report
	}
	return plan.Build(inputs, q.HeadVars()), nil
}

// PlanInputs reduces q's atoms against db and assembles the shared
// cost-model inputs (exact reduced cardinalities plus cached distinct
// counts, bare relation names as labels). The reduced relations are
// returned alongside, in atom order, so callers that go on to evaluate —
// the decomposition engine materializes bags from them — pay for the
// reduction once.
func PlanInputs(q *query.CQ, db *query.DB) ([]plan.Input, []*relation.Relation, error) {
	if err := q.Validate(db); err != nil {
		return nil, nil, err
	}
	reds := make([]reduced, len(q.Atoms))
	rels := make([]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		s, vars := ReduceAtom(a, db)
		reds[i] = reduced{rel: s, vars: vars}
		rels[i] = s
	}
	return planInputs(q, db, reds), rels, nil
}

// cursor is the mutable search state of one backtracking traversal. Every
// worker of a parallel evaluation owns its own cursor; the underlying plan
// is shared and read-only.
type cursor struct {
	e      *backtracker
	assign []relation.Value // assign[slot] is the current value per variable
	key    [][]relation.Value
	// stop, when set, is polled once per search node so a worker abandons
	// its subtree soon after another worker ends the search (Bool queries).
	stop *atomic.Bool
}

func (e *backtracker) newCursor() *cursor {
	c := &cursor{e: e, assign: make([]relation.Value, len(e.vars))}
	c.key = make([][]relation.Value, len(e.plan))
	for i, st := range e.plan {
		c.key[i] = make([]relation.Value, len(st.keyVars))
	}
	return c
}

// bindRowID binds row i of a zero-key step into the assignment by direct
// column reads, reporting whether the step's attached constraints hold.
func (c *cursor) bindRowID(st *planStep, i int) bool {
	for k, s := range st.newSlots {
		c.assign[s] = st.rel.At(st.newPos[k], i)
	}
	return c.checkStep(st)
}

// run backtracks through the whole plan, invoking emit at every full
// solution. emit returns false to stop the search.
func (c *cursor) run(emit func() bool) {
	if len(c.e.plan) == 0 {
		// No atoms: validation guarantees no variables anywhere.
		emit()
		return
	}
	c.rec(0, emit)
}

// rec backtracks from the given step onward; it returns false when emit
// asked the search to stop.
func (c *cursor) rec(step int, emit func() bool) bool {
	if step == len(c.e.plan) {
		return emit()
	}
	if c.stop != nil && c.stop.Load() {
		return false
	}
	st := &c.e.plan[step]
	if st.tautology {
		return c.rec(step+1, emit)
	}
	for i, s := range st.keySlots {
		c.key[step][i] = c.assign[s]
	}
	// Probe the frozen index and read matched rows straight off the
	// relation's columns — no row view is materialized per match.
	for _, ri := range st.index.Lookup(c.key[step]) {
		i := int(ri)
		for k, s := range st.newSlots {
			c.assign[s] = st.rel.At(st.newPos[k], i)
		}
		if !c.checkStep(st) {
			continue
		}
		if !c.rec(step+1, emit) {
			return false
		}
	}
	return true
}

func (c *cursor) checkStep(st *planStep) bool {
	for _, iq := range st.ineqs {
		x := c.assign[iq.xSlot]
		if iq.ySlot >= 0 {
			if x == c.assign[iq.ySlot] {
				return false
			}
		} else if x == iq.c {
			return false
		}
	}
	for _, cc := range st.cmps {
		l, r := cc.lConst, cc.rConst
		if cc.lSlot >= 0 {
			l = c.assign[cc.lSlot]
		}
		if cc.rSlot >= 0 {
			r = c.assign[cc.rSlot]
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

// ReduceAtom computes S = π_U σ_F (R) for one atom: F selects the tuples
// matching the atom's constants and repeated variables, and the projection
// keeps one column per distinct variable, keyed by variable id (attribute
// Attr(v)). The returned vars list is the atom's distinct variables in
// first-occurrence order, matching S's schema.
func ReduceAtom(a query.Atom, db *query.DB) (*relation.Relation, []query.Var) {
	r := db.MustRel(a.Rel)
	vars := a.Vars()
	firstPos := make(map[query.Var]int)
	for i, t := range a.Args {
		if t.IsVar {
			if _, ok := firstPos[t.Var]; !ok {
				firstPos[t.Var] = i
			}
		}
	}
	schema := make(relation.Schema, len(vars))
	for i, v := range vars {
		schema[i] = relation.Attr(v)
	}
	pcols := make([]int, len(vars))
	for j, v := range vars {
		pcols[j] = firstPos[v]
	}
	seen := relation.NewTupleSet(len(vars))
	sel := make([]int32, 0, r.Len())
	for i := 0; i < r.Len(); i++ {
		ok := true
		for j, t := range a.Args {
			if t.IsVar {
				if r.At(firstPos[t.Var], i) != r.At(j, i) {
					ok = false
					break
				}
			} else if r.At(j, i) != t.Const {
				ok = false
				break
			}
		}
		if ok && seen.AddRel(r, i, pcols) {
			sel = append(sel, int32(i))
		}
	}
	return r.GatherCols(schema, pcols, sel), vars
}
