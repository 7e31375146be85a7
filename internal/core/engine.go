// Package core implements the paper's algorithmic contribution (Theorem 2):
// fixed-parameter tractable evaluation of acyclic conjunctive queries with
// inequality (≠) atoms, and Section 5's extension to any ∧/∨ formula φ of
// ≠ atoms (parameter q). Both run through one pipeline: Compile lifts the
// query's ≠ atoms into the conjunction φ, CompileFormula takes φ as given.
//
// The structure follows Section 5:
//
//   - One rule handles every top-level conjunct of φ. A conjunct whose
//     variables all occur in one relational atom (x≠c, or x≠y sharing a
//     hyperedge: the paper's I₂) is pushed into the selections σ_Fⱼ of the
//     atoms holding them. Every other conjunct is colored: V₁ collects its
//     variables, its constants join the hash range, and k = |V₁| + #color
//     constants. Options.NoPushdown colors every conjunct.
//   - For a hash function h: D → {1,…,k}, every relation Sⱼ is extended
//     with hashed color columns x′ = h(x), and Algorithm 1 runs a bottom-up
//     pass over a join tree, merging each node into its parent with
//     σ_F(Pᵤ ⋈ π_{Yⱼ∩Yᵤ}(Pⱼ)). The Y-sets Yⱼ = UⱼU′ⱼW′ⱼ (Lemma 1) carry a
//     variable's color column up to the lowest node where all of a
//     conjunct's columns meet, and F checks each colored conjunct there,
//     on colors, exactly once: a lone x≠y is the paper's I₁ pair check, a
//     disjunction is checked at the lowest common ancestor of its
//     variables.
//   - Algorithm 2 (top-down semijoins, then bottom-up join-project) runs on
//     the merged relations as a yannakakis.Tree, and Q(d) = ⋃_h Q_h(d) over
//     a hash family: Monte-Carlo trials (⌈c·eᵏ⌉), a certified exact
//     k-perfect family, or a whp-perfect family of the paper's
//     2^{O(k)}·log|D| size shape.
package core

import (
	"context"
	"errors"
	"slices"

	"pyquery/internal/colorcoding"
	"pyquery/internal/eval"
	"pyquery/internal/governor"
	"pyquery/internal/hypergraph"
	"pyquery/internal/plan"
	"pyquery/internal/query"
	"pyquery/internal/relation"
	"pyquery/internal/yannakakis"
)

// ErrCyclic is returned when the relational-atom hypergraph is cyclic.
var ErrCyclic = errors.New("core: query hypergraph is cyclic")

// ErrComparisons is returned for queries with order comparisons, which are
// W[1]-complete even for acyclic queries (Theorem 3) and are not handled by
// this engine.
var ErrComparisons = errors.New("core: comparison atoms are not fixed-parameter tractable here (Theorem 3); use the backtracker")

// Strategy selects the hash family driving the color-coding loop.
type Strategy int

// Strategies.
const (
	// Auto uses the certified exact family when the relevant domain is
	// small enough to enumerate, and the whp-perfect family otherwise.
	Auto Strategy = iota
	// Exact forces the certified k-perfect family (errors when infeasible).
	Exact
	// WHP forces the seeded whp-perfect family.
	WHP
	// MonteCarlo uses ⌈c·eᵏ⌉ random trials: one-sided error — reported
	// tuples are always correct, and every true answer is found with
	// probability ≥ 1 − e^{−c}.
	MonteCarlo
)

// Options configures the engine. Every field is read here; the facade's
// routing, caching, and governor options live on pyquery.Options.
type Options struct {
	Strategy Strategy
	// C is the Monte-Carlo confidence multiplier (default 3).
	C float64
	// Seed drives every randomized choice; runs are reproducible.
	Seed int64
	// NoPushdown disables the selection pushdown (ablation A1): every
	// conjunct of φ is colored, its constants joining the hash range — the
	// paper's q-parameter extension. k grows, so the exponential factor
	// grows; answers are identical.
	NoPushdown bool
	// Parallelism is the worker count. The independent hash-function trials
	// of the color-coding loop run across workers; leftover budget flows
	// into the partitioned join/semijoin kernel inside each trial. 0 means
	// GOMAXPROCS; 1 is the serial engine. Results are set-equal at every
	// setting (trials commute under union).
	Parallelism int
}

// whpDelta is the whp-perfect family's failure bound.
const whpDelta = 1e-9

// Stats reports what a run did.
type Stats struct {
	K          int // |V₁| plus the colored conjuncts' constants
	I1, I2     int // colored and pushed-down conjuncts
	FamilySize int // hash functions tried
	Successes  int // hash functions with nonempty Q_h
}

// Partition splits the query's inequality atoms into I₁ (variables never
// co-occurring in a relational atom) and I₂ (the rest, including all x≠c
// atoms), and returns V₁ sorted. It is the conjunct rule of Compile applied
// to the conjunction of q.Ineqs: duplicate and reversed pairs collapse, and
// an x≠x atom yields ok=false (the query is unsatisfiable).
func Partition(q *query.CQ) (i1, i2 []query.Ineq, v1 []query.Var, ok bool) {
	pushed, colored, ok := split(q, FromConjunction(q.Ineqs), false)
	for _, c := range pushed {
		i2 = append(i2, c.f.(IneqAtom).Ineq)
	}
	for _, c := range colored {
		i1 = append(i1, c.f.(IneqAtom).Ineq)
		v1 = append(v1, c.vars...)
	}
	slices.Sort(v1)
	return i1, i2, slices.Compact(v1), ok
}

// prepared holds everything independent of the hash function. After
// prepare returns it is read-only, so concurrent runHash calls (one per
// color trial) may share it freely.
type prepared struct {
	q    *query.CQ
	opts Options

	// colored are the conjuncts checked on colors; pushed counts the
	// conjuncts applied as selections.
	colored []conjunct
	pushed  int
	// hashed is V₁, the variables of the colored conjuncts: each gets a
	// color column.
	hashed map[query.Var]bool
	k      int

	tree *hypergraph.Forest
	// base[j] = S_j with the pushed conjuncts applied (schema: var attrs).
	base []*relation.Relation
	// uj[j] = the distinct variables of atom j.
	uj [][]query.Var
	// yset[j] = Y_j as an attribute schema (original + hashed attributes).
	yset []relation.Schema
	// occursIn[j] = variables occurring anywhere in T[j].
	occursIn []map[query.Var]bool
	headVars map[query.Var]bool

	hOff int32 // hashed-attribute offset: hashed(x) = Attr(hOff + x)

	// relevant is the domain the hash family must separate: every value in
	// a V₁-variable column, plus the colored conjuncts' constants.
	relevant []relation.Value

	trivialEmpty bool
}

func (p *prepared) hattr(v query.Var) relation.Attr {
	return relation.Attr(p.hOff + int32(v))
}

// prepare compiles q under the inequality formula φ (the query's own ≠
// atoms are read only through φ).
func prepare(q *query.CQ, phi IneqFormula, db *query.DB, opts Options) (*prepared, error) {
	if err := q.Validate(db); err != nil {
		return nil, err
	}
	p := &prepared{q: q, opts: opts, headVars: make(map[query.Var]bool)}
	// Ground comparisons appear as unsatisfiability markers from BindHead;
	// anything with a variable is genuine Theorem 3 territory.
	for _, c := range q.Cmps {
		if c.Left.IsVar || c.Right.IsVar {
			return nil, ErrComparisons
		}
		if !c.Holds(c.Left.Const, c.Right.Const) {
			p.trivialEmpty = true
			return p, nil
		}
	}
	h, _ := plan.AtomHypergraph(q)
	forest, acyclic := h.JoinForest()
	if !acyclic {
		return nil, ErrCyclic
	}
	pushed, colored, ok := split(q, phi, opts.NoPushdown)
	if !ok {
		p.trivialEmpty = true
		return p, nil
	}
	p.colored, p.pushed = colored, len(pushed)
	for _, v := range q.HeadVars() {
		p.headVars[v] = true
	}

	// Hashed-attribute offset above every variable id.
	var maxVar query.Var
	for _, v := range q.Vars() {
		maxVar = max(maxVar, v)
	}
	p.hOff = int32(maxVar) + 1

	// The colored conjuncts' variables get color columns and their
	// constants join the hash range: k counts both.
	p.hashed = make(map[query.Var]bool)
	relevantSet := make(map[relation.Value]bool)
	for _, c := range colored {
		for _, v := range c.vars {
			p.hashed[v] = true
		}
		for _, k := range c.consts {
			relevantSet[k] = true
		}
	}
	p.k = len(p.hashed) + len(relevantSet) // only constants so far

	if len(q.Atoms) == 0 {
		// Constant-head query with no atoms (φ is then ground, decided by
		// split).
		hg := hypergraph.New(0, [][]int{{}})
		f, _ := hg.JoinForest()
		p.tree = f.JoinTree()
		p.base = []*relation.Relation{relation.NewBool(true)}
		p.uj = [][]query.Var{nil}
		p.yset = []relation.Schema{nil}
		p.occursIn = []map[query.Var]bool{{}}
		return p, nil
	}

	// Reduce atoms and push each pushed conjunct into every atom holding
	// its variables.
	p.base = make([]*relation.Relation, len(q.Atoms))
	p.uj = make([][]query.Var, len(q.Atoms))
	inputs := make([]plan.Input, len(q.Atoms))
	for j, a := range q.Atoms {
		s, vars := eval.ReduceAtom(a, db)
		var sels []test
		for _, c := range pushed {
			if holdsAll(vars, c.vars) {
				sels = append(sels, bind(c.f, func(v query.Var) int { return s.Pos(relation.Attr(v)) },
					func(k relation.Value) relation.Value { return k }))
			}
		}
		s = filter(s, sels)
		if s.Empty() {
			p.trivialEmpty = true
			return p, nil
		}
		p.base[j], p.uj[j] = s, vars
		inputs[j] = plan.Input{Label: a.Rel, Rows: s.Len(), Vars: vars}
		for _, v := range vars {
			if p.hashed[v] {
				col := s.Pos(relation.Attr(v))
				for r := 0; r < s.Len(); r++ {
					relevantSet[s.At(col, r)] = true
				}
			}
		}
	}
	// Root and order the join tree by the reduced (post-pushdown)
	// cardinalities — same planner policy as the Yannakakis engine; any
	// orientation of the spanning forest is a valid join tree, so Lemma 1's
	// Y-sets below adapt to whichever root minimizes the merge work.
	p.tree = plan.OrderForest(forest, inputs).JoinTree()
	p.relevant = make([]relation.Value, 0, len(relevantSet))
	for v := range relevantSet {
		p.relevant = append(p.relevant, v)
	}
	slices.Sort(p.relevant)

	// Subtree variable sets and the Y_j attribute sets of Lemma 1.
	backTo := q.BodyVars()
	subtreeVerts := h.SubtreeVertices(p.tree)
	p.occursIn = make([]map[query.Var]bool, len(subtreeVerts))
	for j, set := range subtreeVerts {
		m := make(map[query.Var]bool, len(set))
		for vert := range set {
			m[backTo[vert]] = true
		}
		p.occursIn[j] = m
	}
	p.computeYSets()
	return p, nil
}

// computeYSets fills yset[j] = U_j ∪ U′_j ∪ W′_j per the paper: W_j holds
// the V₁ variables that occur strictly below j (in exactly one child
// subtree) and still have a partner — another variable of a colored
// conjunct they share — outside that subtree, so their color columns must
// be carried through j up to the lowest node where the conjunct's columns
// meet.
func (p *prepared) computeYSets() {
	partners := make(map[query.Var][]query.Var)
	for _, c := range p.colored {
		for _, x := range c.vars {
			for _, y := range c.vars {
				if x != y {
					partners[x] = append(partners[x], y)
				}
			}
		}
	}
	p.yset = make([]relation.Schema, len(p.base))
	for j := range p.base {
		var y relation.Schema
		for _, v := range p.uj[j] {
			y = append(y, relation.Attr(v))
		}
		for _, v := range p.uj[j] {
			if p.hashed[v] {
				y = append(y, p.hattr(v))
			}
		}
		// W_j: x ∈ V₁ − U_j occurring in T[j] with a partner outside the
		// child subtree holding x.
		for x := range p.occursIn[j] {
			if slices.Contains(p.uj[j], x) || !p.hashed[x] {
				continue
			}
			// Find the unique child subtree containing x.
			var childSet map[query.Var]bool
			for _, c := range p.tree.Children[j] {
				if p.occursIn[c][x] {
					childSet = p.occursIn[c]
					break
				}
			}
			for _, l := range partners[x] {
				if !childSet[l] {
					y = append(y, p.hattr(x))
					break
				}
			}
		}
		p.yset[j] = y
	}
}

// --- per-hash-function passes -------------------------------------------

// extend builds S′_j: S_j plus one color column per V₁ variable of the
// atom. An atom with no such variable is S_j itself, shared read-only.
func (p *prepared) extend(j int, h colorcoding.Func) *relation.Relation {
	s := p.base[j]
	var hashedVars []query.Var
	for _, v := range p.uj[j] {
		if p.hashed[v] {
			hashedVars = append(hashedVars, v)
		}
	}
	if len(hashedVars) == 0 {
		return s
	}
	schema := s.Schema().Clone()
	srcPos := make([]int, len(hashedVars))
	for i, v := range hashedVars {
		schema = append(schema, p.hattr(v))
		srcPos[i] = s.Pos(relation.Attr(v))
	}
	out := relation.New(schema)
	row := make([]relation.Value, len(schema))
	for r := 0; r < s.Len(); r++ {
		s.RowTo(row[:s.Width()], r)
		for i, c := range srcPos {
			row[s.Width()+i] = relation.Value(h.Color(s.At(c, r)))
		}
		out.Append(row...)
	}
	return out
}

// check is the σ_F of Algorithm 1: it drops the rows of r that falsify, on
// colors, a colored conjunct whose color columns all meet in r for the
// first time — present in r but in neither input of the merge that built
// it (left, right; nil for an extended leaf). Every relation already
// satisfies the conjuncts whose columns it carries, so each conjunct is
// checked exactly once per row path, at the lowest node where its
// variables meet: a lone x≠y there is the paper's I₁ pair check.
func (p *prepared) check(r *relation.Relation, h colorcoding.Func, left, right relation.Schema) *relation.Relation {
	var tests []test
	for _, c := range p.colored {
		if p.colorsIn(r.Schema(), c) && !p.colorsIn(left, c) && !p.colorsIn(right, c) {
			tests = append(tests, bind(c.f, func(v query.Var) int { return r.Pos(p.hattr(v)) },
				func(k relation.Value) relation.Value { return relation.Value(h.Color(k)) }))
		}
	}
	return filter(r, tests)
}

// colorsIn reports whether s carries the color column of every variable
// of c.
func (p *prepared) colorsIn(s relation.Schema, c conjunct) bool {
	for _, v := range c.vars {
		if !s.Has(p.hattr(v)) {
			return false
		}
	}
	return true
}

// runHash executes Algorithm 1 (and, when needOutput, Algorithm 2) for one
// hash function. It returns Q_h's head-variable relation P* (nil unless
// needOutput) and whether Q_h(d) is nonempty. inner is the worker budget
// this trial may spend in the partitioned relational kernel (the driver
// splits the Parallelism budget across trials; ≤ 1 = serial ops); it is a
// parameter, not prepared state, so concurrent executions of one compiled
// Program can run trials under different budgets. ctx and m are the
// execution's: a trip or cancellation cuts the trial short with a false
// result, and the caller reads the typed error from them.
func (p *prepared) runHash(ctx context.Context, m *governor.Meter, h colorcoding.Func, needOutput bool, inner int) (*relation.Relation, bool) {
	rels := make([]*relation.Relation, len(p.base))
	for j := range p.base {
		rels[j] = p.check(p.extend(j, h), h, nil, nil)
		if rels[j].Empty() {
			return nil, false
		}
	}
	inner = max(inner, 1)

	// Algorithm 1: bottom-up merges with color filtering.
	for _, j := range p.tree.Order {
		u := p.tree.Parent[j]
		if u < 0 {
			continue
		}
		if governor.Check(ctx, m, "merge") != nil {
			return nil, false
		}
		proj := relation.Project(rels[j], rels[j].Schema().Intersect(p.yset[u]))
		rels[u] = p.check(relation.NaturalJoinPar(rels[u], proj, inner), h, rels[u].Schema(), proj.Schema())
		if rels[u].Empty() {
			return nil, false
		}
	}
	if !needOutput {
		return nil, true
	}

	// Algorithm 2 on the merged relations: top-down semijoins, then the
	// join-project pass carrying the head variables.
	t := &yannakakis.Tree{Forest: p.tree, Rels: rels, SubtreeVars: p.occursIn, HeadVars: p.headVars,
		Workers: inner, Ctx: ctx, Meter: m}
	t.TopDownSemijoin()
	pstar := t.JoinProject()
	return pstar, pstar != nil && pstar.Bool()
}
