// Package plan is the shared logical planning layer: a plan IR (ordered
// atom steps with estimated cardinalities), the distinct-count selectivity
// model that produces it, and the weighted join-forest policy the acyclic
// engines use to pick a root and a semijoin pass order.
//
// Every engine consumes this package (ROADMAP standing rule): the generic
// backtracker orders its steps by Build, Yannakakis and the Theorem 2
// color-coding engine root their join trees through OrderForest, the
// comparison engine inherits Build through its generic fallback, and
// Datalog re-plans each rule body per semi-naive round because the
// backtracker replans against the working database's current IDB sizes on
// every firing. The written atom order survives only behind the explicit
// ablation flag eval.Options.NoReorder.
package plan

import (
	"pyquery/internal/hypergraph"
	"pyquery/internal/query"
)

// Input describes one join input — typically an atom's reduced relation
// S_j = π σ R_j — to the cost model.
type Input struct {
	// Label names the input in reports (usually the atom's rule notation).
	Label string
	// Rows is the input's (exact) cardinality.
	Rows int
	// Vars are the input's columns as query variables.
	Vars []query.Var
	// Distinct estimates the distinct values per Vars entry (from
	// internal/stats). nil means unknown: every column is assumed fully
	// distinct (Rows), the conservative choice.
	Distinct []int
	// MaxFreq estimates the multiplicity of the most frequent value per Vars
	// entry (from internal/stats) — the worst-case fanout of probing this
	// input on that column alone. nil means unknown: every column may be
	// fully skewed (Rows), the conservative choice. Consumed by WorstCost.
	MaxFreq []int
}

// distinct returns the clamped distinct estimate of Vars[i]: at least 1, at
// most Rows.
func (in Input) distinct(i int) float64 {
	d := in.Rows
	if in.Distinct != nil {
		d = in.Distinct[i]
	}
	if d > in.Rows {
		d = in.Rows
	}
	if d < 1 {
		d = 1
	}
	return float64(d)
}

// maxFreq returns the clamped max-frequency estimate of Vars[i]: at least
// 1, at most Rows (for nonempty inputs).
func (in Input) maxFreq(i int) float64 {
	m := in.Rows
	if in.MaxFreq != nil {
		m = in.MaxFreq[i]
	}
	if m > in.Rows {
		m = in.Rows
	}
	if m < 1 {
		m = 1
	}
	return float64(m)
}

// Step is one ordered join step of a logical plan.
type Step struct {
	// Atom indexes the chosen Input (the caller's atom index).
	Atom int
	// Label repeats the input's label for rendering.
	Label string
	// Rows is the input's cardinality.
	Rows int
	// NewVars counts the variables first bound by this step.
	NewVars int
	// Est is the estimated cumulative cardinality of the intermediate
	// result after this step joins in.
	Est float64
}

// Plan is the shared logical plan IR: the cost-based join order with its
// estimates.
type Plan struct {
	// Inputs are the planner inputs, in the caller's atom order.
	Inputs []Input
	// Steps is the chosen order.
	Steps []Step
	// Cost is the sum of estimated intermediate cardinalities — a proxy for
	// the tuples a backtracking join enumerates.
	Cost float64
	// EstRows is the estimated answer cardinality after the head
	// projection.
	EstRows float64
}

// Order returns the atom indices in execution order.
func (p *Plan) Order() []int {
	out := make([]int, len(p.Steps))
	for i, st := range p.Steps {
		out[i] = st.Atom
	}
	return out
}

// Build greedily orders the inputs by estimated intermediate cardinality
// under the textbook distinct-count selectivity model: joining input j into
// an intermediate of estimated cardinality C multiplies by Rows_j and, for
// every already-bound variable v the input shares, divides by
// max(d(v), d_j(v)) — each side keeps at most that many distinct values of
// v, so at most a 1/max fraction of the cross product matches. After the
// join, d(v) tightens to the minimum of the sides, capped by C. Ties break
// toward the smaller input, then the lower atom index, so plans are
// deterministic. headVars (the distinct head variables) bound the final
// answer estimate by the product of their distinct counts.
func Build(inputs []Input, headVars []query.Var) *Plan {
	return BuildBound(inputs, headVars, nil)
}

// BuildBound is Build for a query executed with preBound variables already
// fixed to single values from outside — the compiled backtracker's
// parameter slots and the prepared Decide path's head bindings. Each
// pre-bound variable enters the model with one distinct value, so inputs
// sharing it are priced as highly selective probes and the greedy order
// starts from the parameter-touching atoms, exactly how the engine will
// execute them.
func BuildBound(inputs []Input, headVars []query.Var, preBound []query.Var) *Plan {
	p := &Plan{Inputs: inputs}
	n := len(inputs)
	used := make([]bool, n)
	bound := make(map[query.Var]float64, 8)
	for _, v := range preBound {
		bound[v] = 1
	}
	card := 1.0
	estOf := func(in Input) float64 {
		est := card * float64(in.Rows)
		for i, v := range in.Vars {
			if dv, ok := bound[v]; ok {
				m := in.distinct(i)
				if dv > m {
					m = dv
				}
				est /= m
			}
		}
		return est
	}
	for len(p.Steps) < n {
		best, bestEst, bestRows := -1, 0.0, 0
		for j, in := range inputs {
			if used[j] {
				continue
			}
			e := estOf(in)
			if best == -1 || e < bestEst || (e == bestEst && in.Rows < bestRows) {
				best, bestEst, bestRows = j, e, in.Rows
			}
		}
		used[best] = true
		in := inputs[best]
		newVars := 0
		for i, v := range in.Vars {
			d := in.distinct(i)
			if old, ok := bound[v]; ok {
				if old < d {
					d = old
				}
			} else {
				newVars++
			}
			if bestEst >= 1 && d > bestEst {
				d = bestEst // distinct values cannot exceed the row estimate
			}
			bound[v] = d
		}
		card = bestEst
		p.Steps = append(p.Steps, Step{
			Atom: best, Label: in.Label, Rows: in.Rows, NewVars: newVars, Est: card,
		})
		p.Cost += card
	}
	p.EstRows = card
	if len(headVars) > 0 {
		prod := 1.0
		for _, v := range headVars {
			if d, ok := bound[v]; ok {
				prod *= d
			}
		}
		if prod < p.EstRows {
			p.EstRows = prod
		}
	} else if n > 0 && p.EstRows > 1 {
		p.EstRows = 1 // Boolean query: zero or one (empty) answer tuple
	}
	return p
}

// BagCost estimates one decomposition bag under the same distinct-count
// selectivity model as Build: the guard inputs are joined in Build's order
// and outVars (the bag's χ) cap the materialized estimate the way head
// variables cap an answer estimate. It returns the estimated materialized
// cardinality and the bag's cost (Σ intermediate cardinalities of the
// guard join) — the numbers the decomposition gate in pyquery.PlanDB and
// internal/decomp weighs against the backtracker's Build cost.
func BagCost(inputs []Input, guards []int, outVars []query.Var) (est, cost float64) {
	sub := make([]Input, len(guards))
	for i, g := range guards {
		sub[i] = inputs[g]
	}
	p := Build(sub, outVars)
	return p.EstRows, p.Cost
}

// AtomHypergraph builds the hypergraph of the query's relational atoms:
// vertex i is vars[i] (the sorted body variables), one edge per atom. This
// is the single construction shared by the acyclicity tests and the
// engines.
func AtomHypergraph(q *query.CQ) (*hypergraph.Hypergraph, []query.Var) {
	vars := q.BodyVars()
	id := make(map[query.Var]int, len(vars))
	for i, v := range vars {
		id[v] = i
	}
	edges := make([][]int, len(q.Atoms))
	for i, a := range q.Atoms {
		for _, v := range a.Vars() {
			edges[i] = append(edges[i], id[v])
		}
	}
	return hypergraph.New(len(vars), edges), vars
}

// OrderForest applies the planner's weighting policy to an acyclic join
// forest: each component is re-rooted at its heaviest input — the relation
// that benefits most from being semijoin-reduced and the cheaper probe (vs
// build) side of every merge against it — and children are visited
// lightest-first, so the most selective semijoin shrinks each parent before
// the rest scan it. The underlying undirected forest is unchanged, so the
// join-forest property (and thus every engine's correctness argument) is
// preserved; only constant factors move.
func OrderForest(f *hypergraph.Forest, inputs []Input) *hypergraph.Forest {
	w := make([]float64, len(inputs))
	for i := range inputs {
		w[i] = float64(inputs[i].Rows)
	}
	return f.RerootedBy(w)
}
