// Package decomp evaluates cyclic conjunctive queries of bounded
// generalized hypertree width. Theorem 1 of the paper puts the query size
// in the exponent for general cyclic queries, but a width-k decomposition
// (internal/hypergraph.Decompose) reduces evaluation to an *acyclic*
// instance over materialized bags: each bag joins at most k atoms (so its
// size is at most n^k) and the bag tree is a join tree, so the shared
// Yannakakis passes (yannakakis.Tree) finish in time polynomial in input +
// output for fixed k — the bounded-width territory of Gottlob–Leone–
// Scarcello that Mengel's survey maps below the paper's lower bounds.
//
// The planner owns every width decision (ROADMAP standing rule): PlanFor
// estimates each bag with plan.BagCost from the shared statistics and
// compares the summed bag cost against the backtracker's plan.Build cost;
// pyquery routes to this engine only when the decomposition wins the
// estimate. Per-bag join orders come from plan.Build and the bag tree is
// rooted by plan.OrderForest on materialized cardinalities — this package
// never re-derives an ordering of its own.
package decomp

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"pyquery/internal/eval"
	"pyquery/internal/governor"
	"pyquery/internal/hypergraph"
	"pyquery/internal/parallel"
	"pyquery/internal/plan"
	"pyquery/internal/query"
	"pyquery/internal/relation"
	"pyquery/internal/yannakakis"
)

// MaxWidth is the largest guard count per bag the engine accepts: bag
// materialization costs up to n^MaxWidth, so the bound keeps the "tractable
// cyclic" class honest. Queries without a width-≤ MaxWidth decomposition
// stay with the generic backtracker.
const MaxWidth = 3

// ErrNoDecomposition is returned when no width-≤ MaxWidth decomposition
// exists for the query's hypergraph.
var ErrNoDecomposition = errors.New("decomp: no width-≤3 hypertree decomposition")

// BagPlan is the planning view of one bag.
type BagPlan struct {
	// Guards and Covered index q.Atoms: guards are joined to materialize
	// the bag, covered atoms are enforced by semijoin afterwards.
	Guards, Covered []int
	// Vars is the bag's χ in ascending variable order — the materialized
	// schema.
	Vars []query.Var
	// Est is the estimated materialized cardinality (plan.BagCost); the
	// per-bag cost sums into Route.Cost.
	Est float64
}

// Route is the decomposition plan for one (query, database) pair: the bag
// tree, per-bag estimates, and the cost-gate verdict against the generic
// backtracker.
type Route struct {
	// Decomp is the chosen width-≤ MaxWidth decomposition.
	Decomp *hypergraph.Decomposition
	// Bags mirrors Decomp.Bags with estimates and variable schemas.
	Bags []BagPlan
	// Width is the decomposition's width (max guards per bag).
	Width int
	// Cost is Σ bag costs — the engine's estimated materialization work.
	Cost float64
	// BacktrackCost is the generic backtracker's plan.Build cost on the
	// same inputs, and Use the gate verdict Cost < BacktrackCost.
	BacktrackCost float64
	Use           bool
	// Root is the estimate-weighted bag-tree root (Compile re-roots on
	// actual materialized cardinalities).
	Root int

	vars   []query.Var // hypergraph vertex id → query variable
	inputs []plan.Input
	reds   []*relation.Relation
}

// Decomposable reports the structural half of the routing decision: the
// query is a pure conjunctive query (no ≠ atoms, no variable comparisons)
// whose hypergraph admits a width-≤ MaxWidth decomposition. The facade's
// Plan consults it for cyclic queries; the database-dependent cost gate
// lives in PlanFor.
func Decomposable(q *query.CQ) bool {
	if eligible(q) != nil {
		return false
	}
	h, _ := plan.AtomHypergraph(q)
	_, ok := h.Decompose(MaxWidth, nil)
	return ok
}

// eligible rejects query shapes the engine does not handle: ≠ atoms and
// variable comparisons belong to the backtracker (cyclic) or the Theorem
// 2/3 engines (acyclic). Ground comparisons are fine — Compile checks
// them up front.
func eligible(q *query.CQ) error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("decomp: query has no relational atoms")
	}
	if len(q.Ineqs) > 0 {
		return fmt.Errorf("decomp: query has ≠ atoms; use the generic engine")
	}
	for _, c := range q.Cmps {
		if c.Left.IsVar || c.Right.IsVar {
			return fmt.Errorf("decomp: query has variable comparisons; use the comparison engine")
		}
	}
	return nil
}

// PlanFor builds the decomposition plan: reduce the atoms once, estimate
// every candidate bag with plan.BagCost (the search minimizes the summed
// estimate), and compare against the backtracker's plan.Build cost. The
// returned Route carries the reduced relations so Compile materializes the
// bags without re-reducing.
func PlanFor(q *query.CQ, db *query.DB) (*Route, error) {
	if err := eligible(q); err != nil {
		return nil, err
	}
	inputs, reds, err := eval.PlanInputs(q, db)
	if err != nil {
		return nil, err
	}
	back := plan.Build(inputs, q.HeadVars())
	h, vars := plan.AtomHypergraph(q)
	chiVars := func(guards []int) []query.Var {
		seen := make(map[int]bool)
		var out []query.Var
		for _, g := range guards {
			for _, vert := range h.Edges[g] {
				if !seen[vert] {
					seen[vert] = true
					out = append(out, vars[vert])
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	// A bag costs its guard join (Σ intermediate cardinalities) plus one
	// probe per covered-atom row (the enforcement semijoins) — the same
	// number the search minimizes and the gate compares.
	bagCost := func(guards, covered []int, outVars []query.Var) (float64, float64) {
		est, cost := plan.BagCost(inputs, guards, outVars)
		for _, ci := range covered {
			cost += float64(inputs[ci].Rows)
		}
		return est, cost
	}
	d, ok := h.Decompose(MaxWidth, func(guards, covered []int) float64 {
		_, cost := bagCost(guards, covered, chiVars(guards))
		return cost
	})
	if !ok {
		return nil, ErrNoDecomposition
	}
	rt := &Route{Decomp: d, Width: d.Width, BacktrackCost: back.Cost, vars: vars, inputs: inputs, reds: reds}
	ests := make([]float64, len(d.Bags))
	for i, b := range d.Bags {
		bagVars := make([]query.Var, len(b.Vertices))
		for j, vert := range b.Vertices {
			bagVars[j] = vars[vert]
		}
		est, cost := bagCost(b.Guards, b.Covered, bagVars)
		rt.Bags = append(rt.Bags, BagPlan{Guards: b.Guards, Covered: b.Covered, Vars: bagVars, Est: est})
		rt.Cost += cost
		ests[i] = est
	}
	rt.Root = d.Forest.RerootedBy(ests).JoinTree().Roots[0]
	rt.Use = rt.Cost < back.Cost
	return rt, nil
}

// Program is a compiled decomposition statement: the shared acyclic program
// (yannakakis.Program — Exec/ExecBool run the full reducer and join-project
// passes) over the frozen bag tree, plus what the bag materialization did.
type Program struct {
	*yannakakis.Program
	// BagRows[i] is bag i's materialized cardinality, in Route bag order, for
	// the estimated-vs-actual line qeval -explain prints; −1 marks a bag never
	// materialized because an earlier bag came up empty. nil when an atom
	// reduced to ∅ (or a ground comparison is false) and no bag was joined.
	BagRows []int
}

// Compile materializes the route's bags and freezes them on their bag tree:
// for a fixed database epoch the bags are as immutable as the plan, so the
// O(n^width) bag joins are paid here, once, and each execution runs only the
// acyclic passes. The bag joins are the one compile step that materializes
// superlinear state, so they run under the compile meter m (nil =
// ungoverned): every bag is a "bag" checkpoint and is charged at its actual
// size, a trip returns the meter's typed error, and the charged totals are
// pre-charged to every governed execution of the program.
func Compile(q *query.CQ, rt *Route, workers int, m *governor.Meter) (*Program, error) {
	if groundFalse(q) || anyEmpty(rt.reds) {
		return &Program{Program: yannakakis.NewProgram(q, nil, workers, 0, 0)}, nil
	}
	t, rows := materialize(q, rt, workers, m)
	if err := m.Err(); err != nil {
		return nil, err
	}
	return &Program{Program: yannakakis.NewProgram(q, t, workers, m.Rows(), m.Bytes()), BagRows: rows}, nil
}

// groundFalse reports whether a ground comparison already falsifies the
// query (markers from head substitution, or user-written constants).
func groundFalse(q *query.CQ) bool {
	for _, c := range q.Cmps {
		if !c.Left.IsVar && !c.Right.IsVar && !c.Holds(c.Left.Const, c.Right.Const) {
			return true
		}
	}
	return false
}

func anyEmpty(rels []*relation.Relation) bool {
	for _, r := range rels {
		if r.Empty() {
			return true
		}
	}
	return false
}

// materialize joins each bag's guard atoms (plan.Build order, partitioned
// kernel), projects onto χ, and semijoin-enforces the bag's covered atoms;
// bags run across workers with the leftover budget inside each join. The
// bag tree is then re-rooted by plan.OrderForest on the *actual*
// materialized cardinalities and wrapped as a yannakakis.Tree. A nil tree
// means some bag materialized to ∅ (the answer is empty) or the meter
// tripped — the caller consults the meter before trusting it.
func materialize(q *query.CQ, rt *Route, workers int, m *governor.Meter) (t *yannakakis.Tree, bagRows []int) {
	nb := len(rt.Bags)
	rels := make([]*relation.Relation, nb)
	var sawEmpty atomic.Bool
	outer, inner := parallel.Split(workers, nb)
	parallel.ForEach(outer, nb, func(u int) {
		if sawEmpty.Load() || m.Tripped() {
			return // rels[u] stays nil: skipped, BagRows reports −1
		}
		if m.Check("bag") != nil {
			return
		}
		r := rt.materializeBag(u, inner)
		if m.Charge(int64(r.Len()), r.Bytes(), "bag") != nil {
			return // over budget on this bag: the slot stays nil
		}
		rels[u] = r
		if r.Empty() {
			sawEmpty.Store(true)
		}
	})
	bagRows = make([]int, nb)
	for u, r := range rels {
		if r == nil {
			bagRows[u] = -1
		} else {
			bagRows[u] = r.Len()
		}
	}
	if sawEmpty.Load() || m.Tripped() {
		return nil, bagRows
	}

	bagInputs := make([]plan.Input, nb)
	for u := range rels {
		bagInputs[u] = plan.Input{Label: fmt.Sprintf("bag%d", u), Rows: rels[u].Len(), Vars: rt.Bags[u].Vars}
	}
	tree := plan.OrderForest(rt.Decomp.Forest, bagInputs).JoinTree()

	// Subtree variable sets over the bag hypergraph (vertices shared with
	// the atom hypergraph), translated back to query variables.
	bagEdges := make([][]int, nb)
	for u := range rt.Bags {
		bagEdges[u] = rt.Decomp.Bags[u].Vertices
	}
	hb := hypergraph.New(len(rt.vars), bagEdges)
	subtreeVerts := hb.SubtreeVertices(tree)
	subtreeVars := make([]map[query.Var]bool, nb)
	for u, set := range subtreeVerts {
		m := make(map[query.Var]bool, len(set))
		for vert := range set {
			m[rt.vars[vert]] = true
		}
		subtreeVars[u] = m
	}
	headVars := make(map[query.Var]bool)
	for _, v := range q.HeadVars() {
		headVars[v] = true
	}
	return &yannakakis.Tree{Forest: tree, Rels: rels, SubtreeVars: subtreeVars, HeadVars: headVars}, bagRows
}

// materializeBag builds one bag relation: guard joins in plan.Build order
// (over the same statistics-bearing inputs the bag estimate used),
// projection onto χ (always a fresh relation, so the in-place semijoin
// passes never touch a shared reduced atom), then covered-atom semijoins.
func (rt *Route) materializeBag(u, workers int) *relation.Relation {
	bag := rt.Bags[u]
	sub := make([]plan.Input, len(bag.Guards))
	for i, g := range bag.Guards {
		sub[i] = rt.inputs[g]
	}
	order := plan.Build(sub, bag.Vars).Order()
	cur := rt.reds[bag.Guards[order[0]]]
	for _, oi := range order[1:] {
		cur = relation.NaturalJoinPar(cur, rt.reds[bag.Guards[oi]], workers)
	}
	schema := make(relation.Schema, len(bag.Vars))
	for i, v := range bag.Vars {
		schema[i] = relation.Attr(v)
	}
	cur = relation.Project(cur, schema)
	for _, ci := range bag.Covered {
		cur = relation.SemijoinInPlacePar(cur, rt.reds[ci], workers)
		if cur.Empty() {
			break
		}
	}
	return cur
}
