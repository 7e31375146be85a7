// Package core implements the paper's algorithmic contribution (Theorem 2):
// fixed-parameter tractable evaluation of acyclic conjunctive queries with
// inequality (≠) atoms.
//
// The structure follows Section 5 exactly:
//
//   - The inequality atoms are partitioned into I₂ — x≠c atoms and x≠y atoms
//     whose variables share a hyperedge, which are pushed into the per-atom
//     selections σ_Fⱼ — and I₁, the x≠y atoms whose variables never co-occur.
//   - V₁ is the set of variables in I₁ and k = |V₁|. For a hash function
//     h: D → {1,…,k}, every relation Sⱼ is extended with hashed color columns
//     x′ = h(x), and Algorithm 1 runs a bottom-up pass over a join tree,
//     merging each node into its parent with σ_F(Pᵤ ⋈ π_{Yⱼ∩Yᵤ}(Pⱼ)) where F
//     checks color-distinctness of I₁ pairs. The attribute sets Yⱼ =
//     UⱼU′ⱼW′ⱼ (Lemma 1) route each color column from its subtree up to the
//     lowest common ancestor of its inequality partners.
//   - Algorithm 2 (top-down semijoins, then bottom-up join-project) computes
//     Q_h(d) output-sensitively, and Q(d) = ⋃_h Q_h(d) over a hash family:
//     Monte-Carlo trials (⌈c·eᵏ⌉), a certified exact k-perfect family, or a
//     whp-perfect family of the paper's 2^{O(k)}·log|D| size shape.
package core

import (
	"errors"

	"pyquery/internal/colorcoding"
	"pyquery/internal/eval"
	"pyquery/internal/hypergraph"
	"pyquery/internal/plan"
	"pyquery/internal/query"
	"pyquery/internal/relation"
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
	// Delta is the whp-family failure bound (default 1e-9).
	Delta float64
	// Seed drives every randomized choice; runs are reproducible.
	Seed int64
	// NoPushdown disables the I₂ selection pushdown (ablation A1): every
	// x≠y inequality is treated as I₁ and checked through color columns,
	// and x≠c atoms are checked on colors too, with the constants added to
	// the hash range — the paper's q-parameter extension. k grows, so the
	// exponential factor grows; answers are identical.
	NoPushdown bool
	// Parallelism is the worker count. The independent hash-function trials
	// of the color-coding loop run across workers; leftover budget flows
	// into the partitioned join/semijoin kernel inside each trial. 0 means
	// GOMAXPROCS; 1 is the serial engine. Results are set-equal at every
	// setting (trials commute under union).
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.C == 0 {
		o.C = 3
	}
	if o.Delta == 0 {
		o.Delta = 1e-9
	}
	return o
}

// Stats reports what a run did.
type Stats struct {
	K          int // |V₁| (plus inequality constants under NoPushdown)
	I1, I2     int // partition sizes
	FamilySize int // hash functions tried
	Successes  int // hash functions with nonempty Q_h
}

// Partition splits the query's inequality atoms into I₁ (variables never
// co-occurring in a relational atom) and I₂ (the rest, including all x≠c
// atoms), and returns V₁ sorted. Duplicate and reversed pairs are
// deduplicated; an x≠x atom yields ok=false (the query is unsatisfiable).
func Partition(q *query.CQ) (i1, i2 []query.Ineq, v1 []query.Var, ok bool) {
	coOccur := make(map[[2]query.Var]bool)
	for _, a := range q.Atoms {
		vars := a.Vars()
		for i := 0; i < len(vars); i++ {
			for j := 0; j < len(vars); j++ {
				coOccur[[2]query.Var{vars[i], vars[j]}] = true
			}
		}
	}
	seenPair := make(map[[2]query.Var]bool)
	seenConst := make(map[query.Ineq]bool)
	v1set := make(map[query.Var]bool)
	for _, iq := range q.Ineqs {
		if !iq.YIsVar {
			key := query.Ineq{X: iq.X, C: iq.C}
			if !seenConst[key] {
				seenConst[key] = true
				i2 = append(i2, iq)
			}
			continue
		}
		if iq.X == iq.Y {
			return nil, nil, nil, false
		}
		a, b := iq.X, iq.Y
		if a > b {
			a, b = b, a
		}
		pair := [2]query.Var{a, b}
		if seenPair[pair] {
			continue
		}
		seenPair[pair] = true
		if coOccur[pair] {
			i2 = append(i2, query.NeqVars(a, b))
		} else {
			i1 = append(i1, query.NeqVars(a, b))
			v1set[a] = true
			v1set[b] = true
		}
	}
	for v := range v1set {
		v1 = append(v1, v)
	}
	sortVarSlice(v1)
	return i1, i2, v1, true
}

func sortVarSlice(vs []query.Var) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// prepared holds everything independent of the hash function. After
// prepare returns it is read-only, so concurrent runHash calls (one per
// color trial) may share it freely.
type prepared struct {
	q    *query.CQ
	opts Options

	i1 []query.Ineq
	i2 []query.Ineq
	v1 []query.Var
	// constColors lists the distinct constants that must be separated by
	// the hash range under NoPushdown (empty otherwise).
	constColors []relation.Value
	k           int

	tree *hypergraph.Forest
	// base[j] = S_j with the I₂ selections applied (schema: var attrs).
	base []*relation.Relation
	// uj[j] = the distinct variables of atom j.
	uj [][]query.Var
	// yset[j] = Y_j as an attribute schema (original + hashed attributes).
	yset []relation.Schema
	// occursIn[j] = variables occurring anywhere in T[j].
	occursIn []map[query.Var]bool

	headAttrs relation.Schema
	hOff      int32 // hashed-attribute offset: hashed(x) = Attr(hOff + x)

	// relevant is the domain the hash family must separate: every value in
	// a V₁-variable column, plus inequality constants under NoPushdown.
	relevant []relation.Value

	trivialEmpty bool
}

func (p *prepared) hattr(v query.Var) relation.Attr {
	return relation.Attr(p.hOff + int32(v))
}

// IsAcyclicWithIneqs reports whether the query is an acyclic query with
// inequalities in the paper's sense: the hypergraph of the relational atoms
// alone (inequality edges excluded!) is α-acyclic.
func IsAcyclicWithIneqs(q *query.CQ) bool {
	h, _ := plan.AtomHypergraph(q)
	_, ok := h.JoinForest()
	return ok
}

func prepare(q *query.CQ, db *query.DB, opts Options) (*prepared, error) {
	if err := q.Validate(db); err != nil {
		return nil, err
	}
	p := &prepared{q: q, opts: opts}
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

	i1, i2, v1, ok := Partition(q)
	if !ok {
		p.trivialEmpty = true
		return p, nil
	}
	if opts.NoPushdown {
		// Reclassify every x≠y pair as I₁ and route x≠c through colors.
		i1 = i1[:0:0]
		v1set := make(map[query.Var]bool)
		constSet := make(map[relation.Value]bool)
		var i2c []query.Ineq
		seen := make(map[[2]query.Var]bool)
		for _, iq := range q.Ineqs {
			if iq.YIsVar {
				if iq.X == iq.Y {
					p.trivialEmpty = true
					return p, nil
				}
				a, b := iq.X, iq.Y
				if a > b {
					a, b = b, a
				}
				if seen[[2]query.Var{a, b}] {
					continue
				}
				seen[[2]query.Var{a, b}] = true
				i1 = append(i1, query.NeqVars(a, b))
				v1set[a] = true
				v1set[b] = true
			} else {
				i2c = append(i2c, iq)
				v1set[iq.X] = true
				constSet[iq.C] = true
			}
		}
		i2 = i2c
		v1 = v1[:0:0]
		for v := range v1set {
			v1 = append(v1, v)
		}
		sortVarSlice(v1)
		for c := range constSet {
			p.constColors = append(p.constColors, c)
		}
		sortValues(p.constColors)
	}
	p.i1, p.i2, p.v1 = i1, i2, v1
	p.k = len(v1) + len(p.constColors)

	// Hashed-attribute offset above every variable id.
	var maxVar query.Var
	for _, v := range q.Vars() {
		if v > maxVar {
			maxVar = v
		}
	}
	p.hOff = int32(maxVar) + 1

	// Join tree over the relational atoms.
	h, _ := plan.AtomHypergraph(q)
	forest, acyclic := h.JoinForest()
	if !acyclic {
		return nil, ErrCyclic
	}
	if len(q.Atoms) == 0 {
		// Constant-head query with no atoms (and hence no inequalities).
		hg := hypergraph.New(0, [][]int{{}})
		f, _ := hg.JoinForest()
		p.tree = f.JoinTree()
		p.base = []*relation.Relation{relation.NewBool(true)}
		p.uj = [][]query.Var{nil}
		p.yset = []relation.Schema{nil}
		p.occursIn = []map[query.Var]bool{{}}
		p.finishHead()
		return p, nil
	}

	// Reduce atoms and apply the I₂ pushdown.
	inV1 := make(map[query.Var]bool, len(v1))
	for _, v := range v1 {
		inV1[v] = true
	}
	p.base = make([]*relation.Relation, len(q.Atoms))
	p.uj = make([][]query.Var, len(q.Atoms))
	inputs := make([]plan.Input, len(q.Atoms))
	relevantSet := make(map[relation.Value]bool)
	for j, a := range q.Atoms {
		s, vars := eval.ReduceAtom(a, db)
		p.uj[j] = vars
		if !opts.NoPushdown {
			s = p.pushdownI2(s, vars)
		}
		if s.Empty() {
			p.trivialEmpty = true
			return p, nil
		}
		p.base[j] = s
		inputs[j] = plan.Input{Label: a.Rel, Rows: s.Len(), Vars: vars}
		for _, v := range vars {
			if inV1[v] {
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
	for _, c := range p.constColors {
		relevantSet[c] = true
	}
	p.relevant = make([]relation.Value, 0, len(relevantSet))
	for v := range relevantSet {
		p.relevant = append(p.relevant, v)
	}
	sortValues(p.relevant)

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
	p.computeYSets(inV1)
	p.finishHead()
	return p, nil
}

func (p *prepared) finishHead() {
	seen := make(map[relation.Attr]bool)
	for _, t := range p.q.Head {
		if t.IsVar {
			a := relation.Attr(t.Var)
			if !seen[a] {
				seen[a] = true
				p.headAttrs = append(p.headAttrs, a)
			}
		}
	}
}

// pushdownI2 applies the I₂ inequalities relevant to an atom's variable set
// directly to its reduced relation — the "(iii) and (iv)" selections of the
// paper's S_j construction.
func (p *prepared) pushdownI2(s *relation.Relation, vars []query.Var) *relation.Relation {
	has := make(map[query.Var]int, len(vars))
	for _, v := range vars {
		has[v] = s.Pos(relation.Attr(v))
	}
	type pairCheck struct{ a, b int }
	type constCheck struct {
		pos int
		c   relation.Value
	}
	var pairs []pairCheck
	var consts []constCheck
	for _, iq := range p.i2 {
		if iq.YIsVar {
			pa, aok := has[iq.X]
			pb, bok := has[iq.Y]
			if aok && bok {
				pairs = append(pairs, pairCheck{pa, pb})
			}
		} else if pos, ok := has[iq.X]; ok {
			consts = append(consts, constCheck{pos, iq.C})
		}
	}
	if len(pairs) == 0 && len(consts) == 0 {
		return s
	}
	return relation.Select(s, func(row []relation.Value) bool {
		for _, pc := range pairs {
			if row[pc.a] == row[pc.b] {
				return false
			}
		}
		for _, cc := range consts {
			if row[cc.pos] == cc.c {
				return false
			}
		}
		return true
	})
}

// computeYSets fills yset[j] = U_j ∪ U′_j ∪ W′_j per the paper: W_j holds
// the V₁ variables that occur strictly below j (in exactly one child
// subtree) and still have an unmet I₁ partner outside that subtree, so
// their color columns must be carried through j.
func (p *prepared) computeYSets(inV1 map[query.Var]bool) {
	partners := make(map[query.Var][]query.Var)
	for _, iq := range p.i1 {
		partners[iq.X] = append(partners[iq.X], iq.Y)
		partners[iq.Y] = append(partners[iq.Y], iq.X)
	}
	p.yset = make([]relation.Schema, len(p.base))
	for j := range p.base {
		var y relation.Schema
		for _, v := range p.uj[j] {
			y = append(y, relation.Attr(v))
		}
		for _, v := range p.uj[j] {
			if inV1[v] {
				y = append(y, p.hattr(v))
			}
		}
		inU := make(map[query.Var]bool, len(p.uj[j]))
		for _, v := range p.uj[j] {
			inU[v] = true
		}
		// W_j: x ∈ V₁ − U_j occurring in T[j] with a partner outside the
		// child subtree holding x.
		for x := range p.occursIn[j] {
			if inU[x] || !inV1[x] {
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
			if childSet == nil {
				continue // defensive: x ∈ U_j handled above
			}
			needed := false
			for _, l := range partners[x] {
				if !childSet[l] {
					needed = true
					break
				}
			}
			if needed {
				y = append(y, p.hattr(x))
			}
		}
		p.yset[j] = y
	}
}

func sortValues(vs []relation.Value) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// --- per-hash-function passes -------------------------------------------

// extend builds S′_j: S_j plus one color column per V₁ variable of the
// atom, and (under NoPushdown) applies the color checks for x≠c atoms.
func (p *prepared) extend(j int, h colorcoding.Func) *relation.Relation {
	s := p.base[j]
	var hashedVars []query.Var
	inV1 := make(map[query.Var]bool, len(p.v1))
	for _, v := range p.v1 {
		inV1[v] = true
	}
	for _, v := range p.uj[j] {
		if inV1[v] {
			hashedVars = append(hashedVars, v)
		}
	}
	if len(hashedVars) == 0 && len(p.constColors) == 0 {
		return s.Clone()
	}
	schema := s.Schema().Clone()
	srcPos := make([]int, len(hashedVars))
	for i, v := range hashedVars {
		schema = append(schema, p.hattr(v))
		srcPos[i] = s.Pos(relation.Attr(v))
	}
	out := relation.New(schema)

	// NoPushdown: color checks for x≠c atoms over this atom's columns.
	type constCheck struct {
		pos   int
		color int
	}
	var ccs []constCheck
	if p.opts.NoPushdown {
		for _, iq := range p.i2 {
			if iq.YIsVar {
				continue
			}
			if pos := s.Pos(relation.Attr(iq.X)); pos >= 0 {
				ccs = append(ccs, constCheck{pos, h.Color(iq.C)})
			}
		}
	}

	row := make([]relation.Value, len(schema))
	for r := 0; r < s.Len(); r++ {
		skip := false
		for _, cc := range ccs {
			if h.Color(s.At(cc.pos, r)) == cc.color {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		s.RowTo(row[:s.Width()], r)
		for i := range hashedVars {
			row[s.Width()+i] = relation.Value(h.Color(s.At(srcPos[i], r)))
		}
		out.Append(row...)
	}
	return out
}

// filterI1 drops rows whose colors collide on any I₁ pair with both hashed
// attributes present in the relation — the σ_F of Algorithm 1, applied
// whenever both columns have met.
func (p *prepared) filterI1(r *relation.Relation) *relation.Relation {
	type pairCheck struct{ a, b int }
	var pairs []pairCheck
	for _, iq := range p.i1 {
		pa := r.Pos(p.hattr(iq.X))
		pb := r.Pos(p.hattr(iq.Y))
		if pa >= 0 && pb >= 0 {
			pairs = append(pairs, pairCheck{pa, pb})
		}
	}
	if len(pairs) == 0 {
		return r
	}
	return relation.Select(r, func(row []relation.Value) bool {
		for _, pc := range pairs {
			if row[pc.a] == row[pc.b] {
				return false
			}
		}
		return true
	})
}

// runHash executes Algorithm 1 (and, when needOutput, Algorithm 2) for one
// hash function. It returns Q_h's head-variable relation P* (nil unless
// needOutput) and whether Q_h(d) is nonempty. inner is the worker budget
// this trial may spend in the partitioned relational kernel (the driver
// splits the Parallelism budget across trials; ≤ 1 = serial ops); it is a
// parameter, not prepared state, so concurrent executions of one compiled
// Program can run trials under different budgets.
func (p *prepared) runHash(h colorcoding.Func, needOutput bool, inner int) (*relation.Relation, bool) {
	rels := make([]*relation.Relation, len(p.base))
	for j := range p.base {
		rels[j] = p.filterI1(p.extend(j, h))
		if rels[j].Empty() {
			return nil, false
		}
	}

	if inner < 1 {
		inner = 1
	}

	// Algorithm 1: bottom-up merges with color filtering.
	for _, j := range p.tree.Order {
		u := p.tree.Parent[j]
		if u < 0 {
			continue
		}
		proj := relation.Project(rels[j], rels[j].Schema().Intersect(p.yset[u]))
		rels[u] = p.filterI1(relation.NaturalJoinPar(rels[u], proj, inner))
		if rels[u].Empty() {
			return nil, false
		}
	}
	if !needOutput {
		return nil, true
	}

	// Algorithm 2, step 1: top-down semijoins (full consistency).
	for i := len(p.tree.Order) - 1; i >= 0; i-- {
		j := p.tree.Order[i]
		u := p.tree.Parent[j]
		if u < 0 {
			continue
		}
		rels[j] = relation.SemijoinPar(rels[j], rels[u], inner)
	}

	// Algorithm 2, step 2: bottom-up join-project carrying head attributes.
	for _, j := range p.tree.Order {
		u := p.tree.Parent[j]
		if u < 0 {
			continue
		}
		proj := rels[j].Schema().Intersect(rels[u].Schema())
		for _, a := range p.headAttrs {
			if rels[j].Schema().Has(a) && !proj.Has(a) {
				proj = append(proj, a)
			}
		}
		rels[u] = relation.NaturalJoinPar(rels[u], relation.Project(rels[j], proj), inner)
	}
	root := p.tree.Roots[0]
	pstar := relation.Project(rels[root], p.headAttrs)
	return pstar, pstar.Bool()
}
