// Package yannakakis evaluates acyclic conjunctive queries by Yannakakis'
// algorithm ([18] in the paper): reduce each atom to S_j = π σ (R), build a
// join tree, run the full reducer (bottom-up then top-down semijoins) to
// eliminate dangling tuples, and finally join bottom-up while projecting
// onto the head variables — time polynomial in input + output.
//
// The tree-driven passes are exported as Tree, which runs over
// caller-supplied relations rather than query atoms: the decomposition
// engine (internal/decomp) hands it materialized bag relations on a bag
// tree, and Theorem 2's engine (internal/core) hands it each color trial's
// merged relations for Algorithm 2 (TopDownSemijoin, then JoinProject), so
// the acyclic, bounded-width and color-coding engines share one semijoin
// and join-project implementation.
package yannakakis

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"pyquery/internal/eval"
	"pyquery/internal/governor"
	"pyquery/internal/hypergraph"
	"pyquery/internal/parallel"
	"pyquery/internal/plan"
	"pyquery/internal/query"
	"pyquery/internal/relation"
)

// ErrCyclic is returned when the query hypergraph is not α-acyclic.
var ErrCyclic = errors.New("yannakakis: query hypergraph is cyclic")

// Options controls the evaluator.
type Options struct {
	// NoFullReducer skips the semijoin passes (ablation A2). Results are
	// identical; intermediate join sizes may blow up.
	NoFullReducer bool
	// Parallelism is the worker count. Each semijoin/join pass processes
	// the join tree level by level; the independent subtree reductions of a
	// level run across workers, and leftover budget flows into the
	// partitioned semijoin/join kernel. 0 means GOMAXPROCS; 1 is the serial
	// evaluator (byte-identical output to previous releases). Parallel runs
	// produce the same answer set; only row order may differ.
	Parallelism int
}

// IsAcyclic reports whether the hypergraph of the query's relational atoms
// is α-acyclic (≠/comparison atoms are ignored, per Section 5's definition
// of acyclic queries with inequalities).
func IsAcyclic(q *query.CQ) bool {
	h, _ := plan.AtomHypergraph(q)
	_, ok := h.JoinForest()
	return ok
}

// Program is a compiled acyclic statement: a frozen Tree template — the
// query's reduced atoms on their join tree (Compile), or materialized bags
// on their bag tree (internal/decomp hands them to NewProgram) — plus the
// head layout and the worker budget frozen at compile. It is read-only and
// safe for concurrent executions: each execution forks the template, runs
// the full reducer and the join-project pass (Exec) or the bottom-up
// semijoin pass alone (ExecBool, the O(n·q) decision procedure), so the one
// pass sequence serves the whole acyclic family.
type Program struct {
	q *query.CQ
	// tree is nil when some input reduced to the empty relation: every
	// execution answers empty until the database changes.
	tree          *Tree
	workers       int
	noFullReducer bool
	// frozenRows/frozenBytes are what a governed compile step already
	// materialized into the template (decomposition bags). Every governed
	// execution pre-charges them, so its budget accounts for the frozen
	// state it joins against.
	frozenRows, frozenBytes int64
}

// Compile validates, reduces atoms, and freezes the planned join tree of an
// acyclic pure conjunctive query (no ≠, no comparisons — those belong to
// the Theorem 2 engine), so the reduction scans and the tree construction
// are paid once.
func Compile(q *query.CQ, db *query.DB, opts Options) (*Program, error) {
	t, err := prepare(q, db)
	if err != nil {
		return nil, err
	}
	pr := NewProgram(q, t, parallel.Workers(opts.Parallelism), 0, 0)
	pr.noFullReducer = opts.NoFullReducer
	return pr, nil
}

// NewProgram wraps a caller-built tree (nil = trivially empty) as a
// program over q's head; frozenRows/frozenBytes are charged to the meter of
// every governed execution.
func NewProgram(q *query.CQ, t *Tree, workers int, frozenRows, frozenBytes int64) *Program {
	return &Program{q: q, tree: t, workers: workers, frozenRows: frozenRows, frozenBytes: frozenBytes}
}

// fork starts one execution: a private view of the template under the
// execution's context and meter. A trip on the frozen-state charge surfaces
// at the first pass checkpoint.
func (pr *Program) fork(ctx context.Context, m *governor.Meter) *Tree {
	if m != nil && (pr.frozenRows > 0 || pr.frozenBytes > 0) {
		m.Charge(pr.frozenRows, pr.frozenBytes, "frozen-bags")
	}
	t := pr.tree.Fork()
	t.Workers, t.Ctx, t.Meter = pr.workers, ctx, m
	return t
}

// Exec computes Q(d) over the positional schema 0…len(head)−1. The program
// takes no bound values (parameterized templates run on the backtracker);
// ctx and m stop the passes between semijoin/join steps.
func (pr *Program) Exec(ctx context.Context, _ []relation.Value, m *governor.Meter) (*relation.Relation, error) {
	if pr.tree == nil {
		return query.NewTable(len(pr.q.Head)), nil
	}
	t := pr.fork(ctx, m)
	if !pr.noFullReducer && (t.BottomUpSemijoin() || t.TopDownSemijoin()) {
		if err := governor.Check(ctx, m, "finish"); err != nil {
			return nil, err
		}
		return query.NewTable(len(pr.q.Head)), nil
	}
	pstar := t.JoinProject()
	if err := governor.Check(ctx, m, "finish"); err != nil {
		return nil, err
	}
	return HeadTuples(pr.q, pstar), nil
}

// ExecBool decides Q(d) ≠ ∅ with the bottom-up semijoin pass only.
func (pr *Program) ExecBool(ctx context.Context, _ []relation.Value, m *governor.Meter) (bool, error) {
	if pr.tree == nil {
		return false, nil
	}
	empty := pr.fork(ctx, m).BottomUpSemijoin()
	if err := governor.Check(ctx, m, "finish"); err != nil {
		return false, err
	}
	return !empty, nil
}

// Tree is the shared pass state: relations arranged on a single-rooted join
// tree. The acyclic engine builds one from the query's reduced atoms; the
// decomposition engine (internal/decomp) builds one from materialized bag
// relations. A Program freezes one as a template and forks it per execution.
type Tree struct {
	// Forest is the join tree (link a multi-component forest with
	// Forest.JoinTree first; the join pass starts at Roots[0]).
	Forest *hypergraph.Forest
	// Rels[j] is the current P_j relation of tree node j (schema keyed by
	// variable ids as attributes).
	Rels []*relation.Relation
	// SubtreeVars[j] is at(T[j]): the variables appearing in j's subtree.
	SubtreeVars []map[query.Var]bool
	// HeadVars are the variables the final projection keeps.
	HeadVars map[query.Var]bool
	// Workers is the parallelism budget for the passes (1 = serial).
	Workers int
	// Ctx, when cancelable, makes the passes bail out between semijoin/join
	// steps; a caller that set it must treat the result as garbage once
	// Ctx.Err() is non-nil (Program does).
	Ctx context.Context
	// Meter, when non-nil, is the execution's resource governor: every pass
	// boundary that polls Ctx becomes a typed checkpoint, and each freshly
	// materialized pass relation is charged against the row/byte budget. A
	// trip makes the passes bail out like a cancellation; the caller reads
	// the typed error from Meter.Err and must then discard the result.
	Meter *governor.Meter
	// sels[j], once a pass has run, is node j's current selection vector:
	// the surviving row ids of Rels[j], in ascending order. nil means "all
	// rows". The semijoin passes only ever narrow sels — Rels is never
	// mutated — and JoinProject materializes each node at most once, so a
	// Fork of a frozen prepared template shares the template's relations
	// safely by construction.
	sels [][]int32
}

// Fork returns an execution view of a frozen template: the tree shape and
// relation pointers are shared, but every pass that would filter a relation
// in place builds a new one instead, leaving the template intact for the
// next execution (and for concurrent ones — a template is read-only, each
// Fork is owned by its execution).
func (t *Tree) Fork() *Tree {
	ft := *t
	ft.Rels = append([]*relation.Relation(nil), t.Rels...)
	ft.sels = nil
	return &ft
}

// canceled reports whether the tree's context has been canceled.
func (t *Tree) canceled() bool { return t.Ctx != nil && t.Ctx.Err() != nil }

// stopped is the pass-boundary checkpoint: the governed check (typed trips,
// fault hook, ctx classification) when a meter is threaded, the plain ctx
// poll otherwise. True means abandon the pass; the caller reads the typed
// error from the meter (or the context) afterwards.
func (t *Tree) stopped(step string) bool {
	return governor.Check(t.Ctx, t.Meter, step) != nil
}

// tripped is the cheap worker-side poll (one atomic load, no checkpoint
// accounting) used inside parallel levels.
func (t *Tree) tripped() bool {
	if t.Meter != nil && t.Meter.Tripped() {
		return true
	}
	return t.canceled()
}

// charge bills a freshly materialized pass relation to the meter at its
// actual encoded size (4 bytes per narrow cell, 8 per wide). A trip here
// flips the stop flag; the pass notices at its next checkpoint.
func (t *Tree) charge(r *relation.Relation, step string) {
	if t.Meter != nil {
		t.Meter.Charge(int64(r.Len()), r.Bytes(), step)
	}
}

// ensureSels sizes the per-node selection-vector state before a pass.
func (t *Tree) ensureSels() {
	if t.sels == nil {
		t.sels = make([][]int32, len(t.Rels))
	}
}

// semijoinNode filters node dst by node src with the given worker budget
// and reports whether dst became empty. Nothing is materialized: the
// result is dst's narrowed selection vector over its frozen relation, and
// the meter is charged the vector's actual bytes (4 per surviving row id).
func (t *Tree) semijoinNode(dst, src, workers int) bool {
	sel := relation.SemijoinSelPar(t.Rels[dst], t.sels[dst], t.Rels[src], t.sels[src], workers)
	t.sels[dst] = sel
	if t.Meter != nil {
		t.Meter.Charge(int64(len(sel)), 4*int64(len(sel)), "semijoin")
	}
	return len(sel) == 0
}

// cur returns node j's current relation — Rels[j] narrowed by its
// selection vector, materialized if a pass has filtered it. The
// materialization is recorded so it happens at most once per node.
func (t *Tree) cur(j int) *relation.Relation {
	if t.sels == nil || t.sels[j] == nil {
		return t.Rels[j]
	}
	if len(t.sels[j]) != t.Rels[j].Len() {
		t.Rels[j] = t.Rels[j].Gather(t.sels[j])
	}
	t.sels[j] = nil
	return t.Rels[j]
}

// prepare validates, reduces atoms, and builds the join tree. It returns
// (nil, nil) when some atom reduces to the empty relation (the answer is
// trivially empty) and an error for cyclic or malformed queries.
func prepare(q *query.CQ, db *query.DB) (*Tree, error) {
	if len(q.Ineqs) > 0 {
		return nil, fmt.Errorf("yannakakis: query has ≠ atoms; use the core engine")
	}
	if err := q.Validate(db); err != nil {
		return nil, err
	}
	// Ground comparisons (user-written constants, or markers from head
	// substitution) are decided here; a variable comparison is Theorem 3
	// territory.
	for _, c := range q.Cmps {
		if c.Left.IsVar || c.Right.IsVar {
			return nil, fmt.Errorf("yannakakis: query has variable comparisons; use the backtracker")
		}
		if !c.Holds(c.Left.Const, c.Right.Const) {
			return nil, nil
		}
	}
	if len(q.Atoms) == 0 {
		// No atoms: the head is all constants; treat as single-node tree of
		// the 0-ary true relation.
		h := hypergraph.New(0, [][]int{{}})
		f, _ := h.JoinForest()
		return &Tree{Forest: f.JoinTree(),
			Rels:        []*relation.Relation{relation.NewBool(true)},
			SubtreeVars: []map[query.Var]bool{{}},
			HeadVars:    map[query.Var]bool{}}, nil
	}

	h, backTo := plan.AtomHypergraph(q)
	forest, ok := h.JoinForest()
	if !ok {
		return nil, ErrCyclic
	}

	rels := make([]*relation.Relation, len(q.Atoms))
	inputs := make([]plan.Input, len(q.Atoms))
	for i, a := range q.Atoms {
		s, vars := eval.ReduceAtom(a, db)
		if s.Empty() {
			return nil, nil
		}
		rels[i] = s
		inputs[i] = plan.Input{Label: a.Rel, Rows: s.Len(), Vars: vars}
	}

	// Weight the join tree by the reduced cardinalities: the planner roots
	// each component at its largest relation (so the full reducer shrinks it
	// and every merge probes rather than rebuilds it) and schedules the
	// semijoin/join passes most-selective-child-first.
	tree := plan.OrderForest(forest, inputs).JoinTree()

	// Subtree variable sets, translated back from vertex ids to Vars.
	subtreeVerts := h.SubtreeVertices(tree)
	subtreeVars := make([]map[query.Var]bool, len(subtreeVerts))
	for j, set := range subtreeVerts {
		m := make(map[query.Var]bool, len(set))
		for vert := range set {
			m[backTo[vert]] = true
		}
		subtreeVars[j] = m
	}

	headVars := make(map[query.Var]bool)
	for _, v := range q.HeadVars() {
		headVars[v] = true
	}
	return &Tree{Forest: tree, Rels: rels, SubtreeVars: subtreeVars, HeadVars: headVars}, nil
}

// levels groups the tree's nodes by depth (roots at level 0), each level in
// ascending node order. Nodes at the same level root disjoint subtrees, so
// per-node pass work within a level is independent — the unit the parallel
// passes fan out over.
func (t *Tree) levels() [][]int {
	depth := make([]int, len(t.Forest.Parent))
	maxd := 0
	// Reverse bottom-up order visits parents before children.
	for i := len(t.Forest.Order) - 1; i >= 0; i-- {
		j := t.Forest.Order[i]
		if u := t.Forest.Parent[j]; u >= 0 {
			depth[j] = depth[u] + 1
		}
		if depth[j] > maxd {
			maxd = depth[j]
		}
	}
	lv := make([][]int, maxd+1)
	for j, d := range depth {
		lv[d] = append(lv[d], j)
	}
	return lv
}

// BottomUpSemijoin runs the upward semijoin pass (children filter parents);
// it returns true if some relation became empty (the query is false). The
// pass relations are private to the evaluation, so each semijoin filters in
// place instead of rebuilding a relation per pass. With Workers > 1 the
// pass walks the tree level by level, deepest parents first: every parent
// of a level absorbs its children independently of the level's other
// parents, so they run across workers.
func (t *Tree) BottomUpSemijoin() bool {
	t.ensureSels()
	if t.Workers <= 1 {
		for _, j := range t.Forest.Order {
			if t.stopped("bottomup-semijoin") {
				return false
			}
			u := t.Forest.Parent[j]
			if u < 0 {
				continue
			}
			if t.semijoinNode(u, j, 1) {
				return true
			}
		}
		return false
	}
	lv := t.levels()
	var empty atomic.Bool
	for d := len(lv) - 2; d >= 0; d-- {
		if t.stopped("bottomup-semijoin") {
			return false
		}
		var parents []int
		for _, u := range lv[d] {
			if len(t.Forest.Children[u]) > 0 {
				parents = append(parents, u)
			}
		}
		if len(parents) == 0 {
			continue
		}
		outer, inner := parallel.Split(t.Workers, len(parents))
		parallel.ForEach(outer, len(parents), func(i int) {
			u := parents[i]
			for _, c := range t.Forest.Children[u] {
				if t.tripped() {
					return
				}
				if t.semijoinNode(u, c, inner) {
					empty.Store(true)
					return
				}
			}
		})
		if empty.Load() {
			return true
		}
	}
	return false
}

// TopDownSemijoin runs the downward semijoin pass (parents filter
// children); after BottomUpSemijoin the two passes are the full reducer,
// leaving the relations globally consistent (every remaining tuple
// participates in some full join result). It returns true if some relation
// became empty. With Workers > 1 the pass walks the tree level by level:
// each node of a level is filtered by its (already filtered) parent, the
// nodes narrow disjoint selections and only read their parents, so a level
// runs across workers.
func (t *Tree) TopDownSemijoin() bool {
	t.ensureSels()
	if t.Workers <= 1 {
		// Parents filter children, in reverse bottom-up order.
		for i := len(t.Forest.Order) - 1; i >= 0; i-- {
			if t.stopped("topdown-semijoin") {
				return false
			}
			j := t.Forest.Order[i]
			u := t.Forest.Parent[j]
			if u < 0 {
				continue
			}
			if t.semijoinNode(j, u, 1) {
				return true
			}
		}
		return false
	}
	lv := t.levels()
	var empty atomic.Bool
	for d := 1; d < len(lv); d++ {
		if t.stopped("topdown-semijoin") {
			return false
		}
		nodes := lv[d]
		outer, inner := parallel.Split(t.Workers, len(nodes))
		parallel.ForEach(outer, len(nodes), func(i int) {
			j := nodes[i]
			if t.tripped() {
				return
			}
			if t.semijoinNode(j, t.Forest.Parent[j], inner) {
				empty.Store(true)
			}
		})
		if empty.Load() {
			return true
		}
	}
	return false
}

// projSchema returns Z_j = (vars(P_j) ∩ vars(P_u)) ∪ (head vars in the
// subtree of j) — the columns node j must hand its parent u.
func (t *Tree) projSchema(j, u int) relation.Schema {
	proj := t.Rels[j].Schema().Intersect(t.Rels[u].Schema())
	for v := range t.SubtreeVars[j] {
		if t.HeadVars[v] {
			a := relation.Attr(v)
			if !proj.Has(a) && t.Rels[j].Schema().Has(a) {
				proj = append(proj, a)
			}
		}
	}
	return proj
}

// JoinProject performs the upward join pass, carrying only join attributes
// and head variables, and returns π_Z(⋈ all) over the head variables. With
// Workers > 1 the independent parents of each level absorb their subtrees
// concurrently (same answer set; row order may differ from serial).
//
// A governed run that trips (or a canceled context) makes the pass bail
// between joins, leaving the tree partially joined — the root may not even
// carry the head attributes yet — so JoinProject returns nil in that case
// and the caller must read the typed error from the meter (or context)
// instead of using the result.
func (t *Tree) JoinProject() *relation.Relation {
	t.ensureSels()
	if t.Workers <= 1 {
		for _, j := range t.Forest.Order {
			if t.stopped("join-project") {
				break
			}
			u := t.Forest.Parent[j]
			if u < 0 {
				continue
			}
			t.Rels[u] = relation.NaturalJoin(t.cur(u), relation.Project(t.cur(j), t.projSchema(j, u)))
			t.sels[u] = nil
			t.charge(t.Rels[u], "join-project")
		}
	} else {
		lv := t.levels()
		for d := len(lv) - 2; d >= 0 && !t.stopped("join-project"); d-- {
			var parents []int
			for _, u := range lv[d] {
				if len(t.Forest.Children[u]) > 0 {
					parents = append(parents, u)
				}
			}
			if len(parents) == 0 {
				continue
			}
			outer, inner := parallel.Split(t.Workers, len(parents))
			parallel.ForEach(outer, len(parents), func(i int) {
				u := parents[i]
				for _, c := range t.Forest.Children[u] {
					if t.tripped() {
						return
					}
					t.Rels[u] = relation.NaturalJoinPar(t.cur(u), relation.Project(t.cur(c), t.projSchema(c, u)), inner)
					t.sels[u] = nil
					t.charge(t.Rels[u], "join-project")
				}
			})
		}
	}
	if t.tripped() {
		return nil
	}
	root := t.Forest.Roots[0]
	t.Rels[root] = t.cur(root)
	zs := make(relation.Schema, 0, len(t.HeadVars))
	for v := range t.HeadVars {
		zs = append(zs, relation.Attr(v))
	}
	// Sort for determinism.
	for i := 0; i < len(zs); i++ {
		for j := i + 1; j < len(zs); j++ {
			if zs[j] < zs[i] {
				zs[i], zs[j] = zs[j], zs[i]
			}
		}
	}
	return relation.Project(t.Rels[root], zs)
}

// HeadTuples maps the head-variable relation pstar onto the positional head
// tuple layout {τ(t₀) | τ ∈ P*}.
func HeadTuples(q *query.CQ, pstar *relation.Relation) *relation.Relation {
	out := query.NewTable(len(q.Head))
	if len(q.Head) == 0 {
		if pstar.Bool() {
			out.Append()
		}
		return out
	}
	pos := make([]int, len(q.Head))
	for i, t := range q.Head {
		if t.IsVar {
			pos[i] = pstar.Pos(relation.Attr(t.Var))
		} else {
			pos[i] = -1
		}
	}
	tuple := make([]relation.Value, len(q.Head))
	for r := 0; r < pstar.Len(); r++ {
		for i, t := range q.Head {
			if pos[i] >= 0 {
				tuple[i] = pstar.At(pos[i], r)
			} else {
				tuple[i] = t.Const
			}
		}
		out.Append(tuple...)
	}
	return out.Dedup()
}
