// Package wcoj is the worst-case-optimal join engine: a leapfrog-triejoin /
// generic-join evaluator that picks one global variable order from the
// shared planning statistics (plan.VarOrder — no per-engine heuristic) and
// intersects the atoms one variable at a time over sorted trie views, so
// the work is bounded by the AGM fractional-cover output bound instead of
// the pairwise backtracker's intermediate sizes.
//
// Routing is cost-gated like the decomposition engine, but bound against
// bound: Route.Use compares the AGM estimate with plan.WorstCost, the
// skew-aware (max-frequency) worst case of the backtracker's search on the
// same inputs. Trie construction happens at Compile — the prepared layer
// pays it once per epoch — and every execution only binary-searches the
// frozen column slices, polling the shared stop flag per intersection and
// checking the governor meter in batches.
package wcoj

import (
	"context"
	"fmt"
	"sync/atomic"

	"pyquery/internal/eval"
	"pyquery/internal/governor"
	"pyquery/internal/parallel"
	"pyquery/internal/plan"
	"pyquery/internal/query"
	"pyquery/internal/relation"
)

// Route is the worst-case-optimal plan for one (query, database) pair: the
// global variable order plus the cost-gate verdict against the worst-case
// backtracker bound.
type Route struct {
	// Order is the global variable order (plan.VarOrder).
	Order []query.Var
	// Cost is the AGM fractional-cover bound on the join's output — the
	// engine's work bound up to logarithmic factors.
	Cost float64
	// WorstCost is the skew-aware worst case of the backtracker's search on
	// the same inputs (plan.WorstCost over plan.Build's order), and Use the
	// gate verdict Cost < WorstCost.
	WorstCost float64
	Use       bool

	inputs []plan.Input
	reds   []*relation.Relation
}

// eligible mirrors the decomposition engine's structural boundary: the
// leapfrog intersection handles pure conjunctive bodies only. Ground
// comparisons are fine — Compile checks them up front.
func eligible(q *query.CQ) error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("wcoj: query has no relational atoms")
	}
	if len(q.Params()) > 0 {
		return fmt.Errorf("wcoj: parameterized templates execute through the compiled backtracker")
	}
	if len(q.Ineqs) > 0 {
		return fmt.Errorf("wcoj: query has ≠ atoms; use the generic engine")
	}
	for _, c := range q.Cmps {
		if c.Left.IsVar || c.Right.IsVar {
			return fmt.Errorf("wcoj: query has variable comparisons; use the comparison engine")
		}
	}
	return nil
}

// PlanFor builds the worst-case-optimal route: reduce the atoms once
// (shared eval.PlanInputs path, cached statistics), compute the AGM bound
// and the worst-case backtracker bound, and pick the global variable
// order. The Route carries the reduced relations so Compile builds tries
// without re-reducing.
func PlanFor(q *query.CQ, db *query.DB) (*Route, error) {
	if err := eligible(q); err != nil {
		return nil, err
	}
	inputs, reds, err := eval.PlanInputs(q, db)
	if err != nil {
		return nil, err
	}
	agm := plan.AGM(inputs)
	worst := plan.WorstCost(inputs, plan.Build(inputs, q.HeadVars()).Order())
	return &Route{
		Order: plan.VarOrder(inputs),
		Cost:  agm,
		// The relative epsilon absorbs the log/exp round-trip inside AGM, so
		// bound ties (a single atom: AGM = the scan) never fire the gate.
		WorstCost: worst,
		Use:       agm*(1+1e-9) < worst,
		inputs:    inputs,
		reds:      reds,
	}, nil
}

// part is one atom's participation at one depth of the variable order: the
// trie level whose variable is that depth's variable.
type part struct {
	atom, level int
}

// Compiled is the frozen leapfrog plan: one trie per relational atom (with
// ≥1 variable), the per-depth participation lists, and the head layout.
// Read-only after Compile; every execution owns its cursors and output.
type Compiled struct {
	head  []query.Term
	order []query.Var
	// depthOf[i] is the order depth of head position i, or -1 for constants.
	depthOf []int
	consts  []relation.Value
	tries   []*Trie
	byDepth [][]part
	// trivial marks plans with an empty reduced atom or a false ground
	// comparison: every execution answers empty/false.
	trivial bool
	// workers is the frozen parallelism budget: Exec shards the top-level
	// variable's matched domain across this many workers (≤ 1 = serial).
	workers int
}

// Compile freezes the leapfrog plan for q under the route: reduced atoms
// are sorted into tries under the global order (the prepared layer's one
// compile-time cost — linear-ish in the input, so it runs unmetered like
// the atom reductions), participation lists are indexed per depth, and the
// head projection is compiled to depth slots. workers is the resolved
// parallelism budget (parallel.Workers) frozen into the plan. Compiling a
// route whose gate declined (Use false) forces the engine — the entry behind
// qeval -engine wcoj, the equivalence suites, and benchrunner E10.
func Compile(q *query.CQ, rt *Route, workers int) (*Compiled, error) {
	if err := eligible(q); err != nil {
		return nil, err
	}
	c := &Compiled{head: q.Head, order: rt.Order, workers: workers}
	for _, cm := range q.Cmps {
		if !cm.Holds(cm.Left.Const, cm.Right.Const) {
			c.trivial = true
			return c, nil
		}
	}
	depth := make(map[query.Var]int, len(rt.Order))
	for d, v := range rt.Order {
		depth[v] = d
	}
	c.byDepth = make([][]part, len(rt.Order))
	for i, in := range rt.inputs {
		r := rt.reds[i]
		if r.Empty() {
			c.trivial = true
			return c, nil
		}
		if len(in.Vars) == 0 {
			continue // ground atom, nonempty: always satisfied
		}
		// perm sorts the atom's columns by global depth: trie level l reads
		// the column of the atom's l-th deepest... shallowest variable.
		perm := make([]int, len(in.Vars))
		for j := range perm {
			perm[j] = j
		}
		for a := 1; a < len(perm); a++ {
			for b := a; b > 0 && depth[in.Vars[perm[b]]] < depth[in.Vars[perm[b-1]]]; b-- {
				perm[b], perm[b-1] = perm[b-1], perm[b]
			}
		}
		k := len(c.tries)
		c.tries = append(c.tries, BuildTrie(r, perm))
		for l, col := range perm {
			d := depth[in.Vars[col]]
			c.byDepth[d] = append(c.byDepth[d], part{atom: k, level: l})
		}
	}
	c.depthOf = make([]int, len(q.Head))
	c.consts = make([]relation.Value, len(q.Head))
	for i, t := range q.Head {
		if t.IsVar {
			c.depthOf[i] = depth[t.Var]
		} else {
			c.depthOf[i] = -1
			c.consts[i] = t.Const
		}
	}
	return c, nil
}

// probeBatch is how many intersection steps a cursor takes between
// governor checkpoints: the hot loop pays a local counter, the meter one
// Check per batch (the governance contract's intersection checkpoint).
const probeBatch = 1024

// cursor is the mutable state of one leapfrog traversal. Every worker owns
// one; the Compiled plan is shared and read-only.
type cursor struct {
	c      *Compiled
	assign []relation.Value
	// lo/hi are each atom's current trie window [lo, hi): narrowed level by
	// level as the traversal binds the atom's variables.
	lo, hi []int
	// Per-depth scratch (entry lo, parent hi, child end per part), so the
	// recursion allocates nothing.
	entryLo, parentHi, ends [][]int
	stop                    *atomic.Bool
	m                       *governor.Meter
	steps                   int
}

func (c *Compiled) newCursor(stop *atomic.Bool, m *governor.Meter) *cursor {
	cu := &cursor{
		c:      c,
		assign: make([]relation.Value, len(c.order)),
		lo:     make([]int, len(c.tries)),
		hi:     make([]int, len(c.tries)),
		stop:   stop,
		m:      m,
	}
	for k, t := range c.tries {
		cu.hi[k] = t.Len()
	}
	cu.entryLo = make([][]int, len(c.byDepth))
	cu.parentHi = make([][]int, len(c.byDepth))
	cu.ends = make([][]int, len(c.byDepth))
	for d, parts := range c.byDepth {
		cu.entryLo[d] = make([]int, len(parts))
		cu.parentHi[d] = make([]int, len(parts))
		cu.ends[d] = make([]int, len(parts))
	}
	return cu
}

// step is the per-intersection checkpoint: a stop-flag load every match and
// a governor Check per probeBatch. false stops the traversal.
func (cu *cursor) step() bool {
	if cu.stop != nil && cu.stop.Load() {
		return false
	}
	cu.steps++
	if cu.steps >= probeBatch {
		cu.steps = 0
		if cu.m.Check("probe") != nil {
			return false
		}
	}
	return true
}

// rec runs the leapfrog intersection at depth d and recurses on every
// matched value; emit fires per full assignment. false propagates a stop
// (cancellation, meter trip, or the consumer ending the search).
func (cu *cursor) rec(d int, emit func() bool) bool {
	c := cu.c
	if d == len(c.order) {
		return emit()
	}
	parts := c.byDepth[d]
	entryLo, parentHi, ends := cu.entryLo[d], cu.parentHi[d], cu.ends[d]
	var v relation.Value
	for i, p := range parts {
		lo, hi := cu.lo[p.atom], cu.hi[p.atom]
		entryLo[i], parentHi[i] = lo, hi
		if lo >= hi {
			return true // an empty window: no value matches at this depth
		}
		if w := c.tries[p.atom].At(p.level, lo); i == 0 || w > v {
			v = w
		}
	}
	ok := true
	for {
		// Leapfrog: seek every part to the candidate; any overshoot raises
		// the candidate and restarts the round. v only grows, so narrowed
		// windows stay valid.
		aligned, exhausted := true, false
		for _, p := range parts {
			t := c.tries[p.atom]
			pos := t.Seek(p.level, cu.lo[p.atom], cu.hi[p.atom], v)
			if pos == cu.hi[p.atom] {
				exhausted = true
				break
			}
			cu.lo[p.atom] = pos
			if w := t.At(p.level, pos); w > v {
				v = w
				aligned = false
				break
			}
		}
		if exhausted {
			break
		}
		if !aligned {
			continue
		}
		if !cu.step() {
			ok = false
			break
		}
		cu.assign[d] = v
		for i, p := range parts {
			ends[i] = c.tries[p.atom].Next(p.level, cu.lo[p.atom], cu.hi[p.atom], v)
			cu.hi[p.atom] = ends[i] // child window [lo, end) for the next level
		}
		ok = cu.rec(d+1, emit)
		exhausted = false
		for i, p := range parts {
			cu.hi[p.atom] = parentHi[i]
			cu.lo[p.atom] = ends[i] // advance past v
			if ends[i] >= parentHi[i] {
				exhausted = true
			}
		}
		if !ok || exhausted {
			break
		}
		for i, p := range parts {
			if w := c.tries[p.atom].At(p.level, cu.lo[p.atom]); i == 0 || w > v {
				v = w
			}
		}
	}
	// Restore entry windows: a re-entry under a different ancestor branch
	// must see the windows its own parent set, not this invocation's final
	// positions.
	for i, p := range parts {
		cu.lo[p.atom], cu.hi[p.atom] = entryLo[i], parentHi[i]
	}
	return ok
}

// collector builds the emission callback: project the assignment through
// the head layout, dedup, append, and (under a meter) charge rows in
// batches. flush charges the partial batch and must run before the finish
// checkpoint.
func (c *Compiled) collector(cu *cursor, out *relation.Relation, seen *relation.TupleSet, m *governor.Meter) (emit func() bool, flush func()) {
	tuple := make([]relation.Value, len(c.head))
	copy(tuple, c.consts)
	return governor.BatchEmit(m, len(c.head), func() bool {
		for i, d := range c.depthOf {
			if d >= 0 {
				tuple[i] = cu.assign[d]
			}
		}
		if seen.Add(tuple) {
			out.Append(tuple...)
		}
		return true
	})
}

// topValues enumerates the matched values of the top-level variable (the
// depth-0 leapfrog, without descending) — the domain the parallel variant
// shards across workers.
func (c *Compiled) topValues() []relation.Value {
	parts := c.byDepth[0]
	var vals []relation.Value
	var v relation.Value
	for i, p := range parts {
		if c.tries[p.atom].Len() == 0 {
			return nil
		}
		if w := c.tries[p.atom].At(p.level, 0); i == 0 || w > v {
			v = w
		}
	}
	lo := make([]int, len(parts))
	for {
		aligned, exhausted := true, false
		for i, p := range parts {
			t := c.tries[p.atom]
			pos := t.Seek(p.level, lo[i], t.Len(), v)
			if pos == t.Len() {
				exhausted = true
				break
			}
			lo[i] = pos
			if w := t.At(p.level, pos); w > v {
				v = w
				aligned = false
				break
			}
		}
		if exhausted {
			return vals
		}
		if !aligned {
			continue
		}
		vals = append(vals, v)
		for i, p := range parts {
			t := c.tries[p.atom]
			lo[i] = t.Next(p.level, lo[i], t.Len(), v)
			if lo[i] == t.Len() {
				exhausted = true
			}
		}
		if exhausted {
			return vals
		}
		for i, p := range parts {
			if w := c.tries[p.atom].At(p.level, lo[i]); i == 0 || w > v {
				v = w
			}
		}
	}
}

// Exec runs the frozen leapfrog plan and returns the deduplicated answer
// relation over the positional head schema. The plan takes no bound values.
// The frozen worker budget shards the top-level variable's matched domain
// (per-worker accumulators, serial dedup merge); m, when non-nil, is the
// execution's resource meter.
func (c *Compiled) Exec(ctx context.Context, _ []relation.Value, m *governor.Meter) (*relation.Relation, error) {
	workers := c.workers
	out := query.NewTable(len(c.head))
	if err := governor.Check(ctx, m, "start"); err != nil {
		return nil, err
	}
	if c.trivial {
		return out, nil
	}
	stop, release := governor.Stop(ctx, m)
	defer release()
	if workers <= 1 || len(c.order) == 0 {
		cu := c.newCursor(stop, m)
		emit, flush := c.collector(cu, out, relation.NewTupleSet(len(c.head)), m)
		cu.rec(0, emit)
		flush()
		if err := governor.Check(ctx, m, "finish"); err != nil {
			return nil, err
		}
		return out, nil
	}
	top := c.topValues()
	if workers > len(top) {
		workers = len(top)
	}
	if len(top) == 0 {
		if err := governor.Check(ctx, m, "finish"); err != nil {
			return nil, err
		}
		return out, nil
	}
	parts := c.byDepth[0]
	outs := make([]*relation.Relation, workers)
	parallel.Chunks(workers, len(top), func(w, lo, hi int) {
		cu := c.newCursor(stop, m)
		local := query.NewTable(len(c.head))
		emit, flush := c.collector(cu, local, relation.NewTupleSet(len(c.head)), m)
		defer flush()
		for i := lo; i < hi; i++ {
			if stop != nil && stop.Load() {
				break
			}
			v := top[i]
			cu.assign[0] = v
			for _, p := range parts {
				t := c.tries[p.atom]
				pos := t.Seek(p.level, 0, t.Len(), v)
				cu.lo[p.atom] = pos
				cu.hi[p.atom] = t.Next(p.level, pos, t.Len(), v)
			}
			cont := cu.rec(1, emit)
			for _, p := range parts {
				cu.lo[p.atom], cu.hi[p.atom] = 0, c.tries[p.atom].Len()
			}
			if !cont {
				break
			}
		}
		outs[w] = local
	})
	if err := governor.Check(ctx, m, "finish"); err != nil {
		return nil, err
	}
	seen := relation.NewTupleSet(len(c.head))
	buf := make([]relation.Value, len(c.head))
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

// ExecBool decides emptiness with the frozen plan, stopping at the first
// witness. The decision search is serial (the first top-level match almost
// always decides) and materializes nothing, so no rows are charged.
func (c *Compiled) ExecBool(ctx context.Context, _ []relation.Value, m *governor.Meter) (bool, error) {
	if err := governor.Check(ctx, m, "start"); err != nil {
		return false, err
	}
	if c.trivial {
		return false, nil
	}
	stop, release := governor.Stop(ctx, m)
	defer release()
	cu := c.newCursor(stop, m)
	found := false
	cu.rec(0, func() bool {
		found = true
		return false
	})
	if !found {
		if err := governor.Check(ctx, m, "finish"); err != nil {
			return false, err
		}
	}
	return found, nil
}
