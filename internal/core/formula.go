package core

import (
	"fmt"

	"pyquery/internal/colorcoding"
	"pyquery/internal/eval"
	"pyquery/internal/parallel"
	"pyquery/internal/plan"
	"pyquery/internal/query"
	"pyquery/internal/relation"
	"pyquery/internal/yannakakis"
)

// IneqFormula is a positive Boolean combination (∧/∨) of inequality atoms —
// the Section 5 extension for parameter q: "instead of a conjunction of
// inequalities in the body of the query, we have an arbitrary Boolean
// formula φ built from inequality atoms using ∨ and ∧".
type IneqFormula interface {
	isIneqFormula()
	String() string
}

// IneqAtom is a single x≠y or x≠c atom used as a formula leaf.
type IneqAtom struct{ Ineq query.Ineq }

// IneqAnd is a conjunction; empty means true.
type IneqAnd struct{ Subs []IneqFormula }

// IneqOr is a disjunction; empty means false.
type IneqOr struct{ Subs []IneqFormula }

func (IneqAtom) isIneqFormula() {}
func (IneqAnd) isIneqFormula()  {}
func (IneqOr) isIneqFormula()   {}

func (f IneqAtom) String() string { return f.Ineq.String() }
func (f IneqAnd) String() string  { return nary("&", f.Subs) }
func (f IneqOr) String() string   { return nary("|", f.Subs) }

func nary(op string, subs []IneqFormula) string {
	s := "("
	for i, sub := range subs {
		if i > 0 {
			s += " " + op + " "
		}
		s += sub.String()
	}
	return s + ")"
}

// FromConjunction lifts a plain inequality list into formula form.
func FromConjunction(ineqs []query.Ineq) IneqFormula {
	subs := make([]IneqFormula, len(ineqs))
	for i, iq := range ineqs {
		subs[i] = IneqAtom{Ineq: iq}
	}
	return IneqAnd{Subs: subs}
}

// EvalIneqFormulaValues evaluates φ under a value assignment — the
// reference semantics used by tests and by the final filter's contract.
func EvalIneqFormulaValues(f IneqFormula, get func(query.Var) relation.Value) bool {
	switch g := f.(type) {
	case IneqAtom:
		x := get(g.Ineq.X)
		if g.Ineq.YIsVar {
			return x != get(g.Ineq.Y)
		}
		return x != g.Ineq.C
	case IneqAnd:
		for _, s := range g.Subs {
			if !EvalIneqFormulaValues(s, get) {
				return false
			}
		}
		return true
	case IneqOr:
		for _, s := range g.Subs {
			if EvalIneqFormulaValues(s, get) {
				return true
			}
		}
		return false
	}
	panic(fmt.Sprintf("core: unknown inequality formula node %T", f))
}

// ineqFormulaVars collects the distinct variables and constants of φ.
func ineqFormulaVars(f IneqFormula) (vars []query.Var, consts []relation.Value) {
	vset := map[query.Var]bool{}
	cset := map[relation.Value]bool{}
	var walk func(IneqFormula)
	walk = func(f IneqFormula) {
		switch g := f.(type) {
		case IneqAtom:
			vset[g.Ineq.X] = true
			if g.Ineq.YIsVar {
				vset[g.Ineq.Y] = true
			} else {
				cset[g.Ineq.C] = true
			}
		case IneqAnd:
			for _, s := range g.Subs {
				walk(s)
			}
		case IneqOr:
			for _, s := range g.Subs {
				walk(s)
			}
		}
	}
	walk(f)
	for v := range vset {
		vars = append(vars, v)
	}
	sortVarSlice(vars)
	for c := range cset {
		consts = append(consts, c)
	}
	sortValues(consts)
	return vars, consts
}

// EvaluateIneqFormula evaluates an acyclic pure conjunctive query whose
// inequality constraints form an arbitrary ∧/∨ formula φ (parameter q
// extension of Theorem 2). Unlike the conjunction case, selections cannot
// be pushed down the join tree: every color column rides to the root, φ is
// evaluated there on colors (sound because φ is monotone in its atoms and
// color-distinctness implies value-distinctness; complete over a k-perfect
// family on the φ-relevant values, with k = #vars + #constants of φ).
func EvaluateIneqFormula(q *query.CQ, phi IneqFormula, db *query.DB, opts Options) (*relation.Relation, error) {
	opts = opts.withDefaults()
	if len(q.Ineqs) > 0 || len(q.Cmps) > 0 {
		return nil, fmt.Errorf("core: move the query's inequality atoms into φ")
	}
	if err := q.Validate(db); err != nil {
		return nil, err
	}
	phiVars, phiConsts := ineqFormulaVars(phi)
	bodyVars := map[query.Var]bool{}
	for _, v := range q.BodyVars() {
		bodyVars[v] = true
	}
	for _, v := range phiVars {
		if !bodyVars[v] {
			return nil, fmt.Errorf("core: φ variable x%d does not occur in the query body", v)
		}
	}

	h, _ := plan.AtomHypergraph(q)
	forest, acyclic := h.JoinForest()
	if !acyclic {
		return nil, ErrCyclic
	}
	if len(q.Atoms) == 0 {
		// No atoms ⇒ no variables anywhere; φ is ground.
		out := query.NewTable(len(q.Head))
		ground := EvalIneqFormulaValues(phi, func(query.Var) relation.Value {
			panic("core: ground formula expected")
		})
		if ground {
			row := make([]relation.Value, len(q.Head))
			for i, t := range q.Head {
				row[i] = t.Const
			}
			out.Append(row...)
		}
		return out, nil
	}
	// Reduce atoms; collect the φ-relevant domain.
	inPhi := map[query.Var]bool{}
	for _, v := range phiVars {
		inPhi[v] = true
	}
	base := make([]*relation.Relation, len(q.Atoms))
	uj := make([][]query.Var, len(q.Atoms))
	inputs := make([]plan.Input, len(q.Atoms))
	relevant := map[relation.Value]bool{}
	for j, a := range q.Atoms {
		s, vars := eval.ReduceAtom(a, db)
		if s.Empty() {
			return query.NewTable(len(q.Head)), nil
		}
		base[j] = s
		uj[j] = vars
		inputs[j] = plan.Input{Label: a.Rel, Rows: s.Len(), Vars: vars}
		for _, v := range vars {
			if inPhi[v] {
				col := s.Pos(relation.Attr(v))
				for r := 0; r < s.Len(); r++ {
					relevant[s.At(col, r)] = true
				}
			}
		}
	}
	// Same planner policy as the conjunction path: root at the heaviest
	// reduced relation, lightest children first.
	tree := plan.OrderForest(forest, inputs).JoinTree()
	for _, c := range phiConsts {
		relevant[c] = true
	}
	domain := make([]relation.Value, 0, len(relevant))
	for v := range relevant {
		domain = append(domain, v)
	}
	sortValues(domain)
	k := len(phiVars) + len(phiConsts)

	var maxVar query.Var
	for _, v := range q.Vars() {
		if v > maxVar {
			maxVar = v
		}
	}
	hOff := int32(maxVar) + 1
	hattr := func(v query.Var) relation.Attr { return relation.Attr(hOff + int32(v)) }

	var headAttrs relation.Schema
	seenHead := map[relation.Attr]bool{}
	for _, t := range q.Head {
		if t.IsVar && !seenHead[relation.Attr(t.Var)] {
			seenHead[relation.Attr(t.Var)] = true
			headAttrs = append(headAttrs, relation.Attr(t.Var))
		}
	}

	fam, err := formulaFamily(domain, k, opts)
	if err != nil {
		return nil, err
	}

	// outer trials run concurrently; each trial spends the leftover budget
	// in the partitioned relational kernel.
	outer, inner := parallel.Split(parallel.Workers(opts.Parallelism), len(fam))

	runOne := func(hf colorcoding.Func) *relation.Relation {
		rels := make([]*relation.Relation, len(base))
		for j := range base {
			rels[j] = extendColors(base[j], uj[j], inPhi, hattr, hf)
		}
		// Full reducer on the base join attributes.
		for _, j := range tree.Order {
			u := tree.Parent[j]
			if u < 0 {
				continue
			}
			rels[u] = relation.SemijoinPar(rels[u], rels[j], inner)
			if rels[u].Empty() {
				return nil
			}
		}
		for i := len(tree.Order) - 1; i >= 0; i-- {
			j := tree.Order[i]
			u := tree.Parent[j]
			if u < 0 {
				continue
			}
			rels[j] = relation.SemijoinPar(rels[j], rels[u], inner)
		}
		// Bottom-up joins carrying every color and head column upward.
		for _, j := range tree.Order {
			u := tree.Parent[j]
			if u < 0 {
				continue
			}
			proj := rels[j].Schema().Intersect(rels[u].Schema())
			for _, v := range phiVars {
				a := hattr(v)
				if rels[j].Schema().Has(a) && !proj.Has(a) {
					proj = append(proj, a)
				}
			}
			for _, a := range headAttrs {
				if rels[j].Schema().Has(a) && !proj.Has(a) {
					proj = append(proj, a)
				}
			}
			rels[u] = relation.NaturalJoinPar(rels[u], relation.Project(rels[j], proj), inner)
			if rels[u].Empty() {
				return nil
			}
		}
		root := tree.Roots[0]
		// φ filter on colors: variables read their hashed column, constants
		// hash through hf.
		pos := map[query.Var]int{}
		ok := true
		for _, v := range phiVars {
			p := rels[root].Pos(hattr(v))
			if p < 0 {
				ok = false
				break
			}
			pos[v] = p
		}
		if !ok {
			return nil
		}
		// Rewrite φ's constants into their colors once per hash function,
		// then evaluate φ on the color columns.
		recolored := recolorConsts(phi, hf)
		filtered := relation.Select(rels[root], func(row []relation.Value) bool {
			return EvalIneqFormulaValues(recolored, func(v query.Var) relation.Value {
				return row[pos[v]]
			})
		})
		if filtered.Empty() {
			return nil
		}
		return relation.Project(filtered, headAttrs)
	}

	// Trials are independent; run them across the worker budget in batches,
	// merged in family order (identical result at any parallelism, peak
	// memory bounded by the batch width).
	acc, _ := batchedUnion(nil, nil, outer, len(fam), func(i int) *relation.Relation {
		return runOne(fam[i])
	}, nil)
	if acc == nil {
		return query.NewTable(len(q.Head)), nil
	}
	// Map head-variable rows onto the positional head layout.
	p := &prepared{q: q}
	p.finishHead()
	return yannakakis.HeadTuples(p.q, acc), nil
}

// formulaFamily mirrors family() for the formula extension.
func formulaFamily(domain []relation.Value, k int, opts Options) ([]colorcoding.Func, error) {
	switch opts.Strategy {
	case MonteCarlo:
		return colorcoding.Trials(k, opts.C, opts.Seed), nil
	case Exact:
		return colorcoding.ExactPerfect(domain, k)
	case WHP:
		return colorcoding.WHPPerfect(len(domain), k, opts.Delta, opts.Seed), nil
	default:
		const autoBudget = 50_000
		if colorcoding.ExactFeasible(len(domain), k, autoBudget) {
			return colorcoding.ExactPerfect(domain, k)
		}
		return colorcoding.WHPPerfect(len(domain), k, opts.Delta, opts.Seed), nil
	}
}

// extendColors returns s extended with one color column per φ-variable of
// the atom.
func extendColors(s *relation.Relation, vars []query.Var, inPhi map[query.Var]bool,
	hattr func(query.Var) relation.Attr, hf colorcoding.Func) *relation.Relation {
	var hashed []query.Var
	for _, v := range vars {
		if inPhi[v] {
			hashed = append(hashed, v)
		}
	}
	if len(hashed) == 0 {
		return s
	}
	schema := s.Schema().Clone()
	src := make([]int, len(hashed))
	for i, v := range hashed {
		schema = append(schema, hattr(v))
		src[i] = s.Pos(relation.Attr(v))
	}
	out := relation.New(schema)
	row := make([]relation.Value, len(schema))
	for r := 0; r < s.Len(); r++ {
		s.RowTo(row[:s.Width()], r)
		for i := range hashed {
			row[s.Width()+i] = relation.Value(hf.Color(s.At(src[i], r)))
		}
		out.Append(row...)
	}
	return out
}

// recolorConsts maps every x≠c constant of φ through the hash function so
// the root filter compares colors against colors.
func recolorConsts(f IneqFormula, hf colorcoding.Func) IneqFormula {
	switch g := f.(type) {
	case IneqAtom:
		if g.Ineq.YIsVar {
			return g
		}
		return IneqAtom{Ineq: query.NeqConst(g.Ineq.X, relation.Value(hf.Color(g.Ineq.C)))}
	case IneqAnd:
		subs := make([]IneqFormula, len(g.Subs))
		for i, s := range g.Subs {
			subs[i] = recolorConsts(s, hf)
		}
		return IneqAnd{Subs: subs}
	case IneqOr:
		subs := make([]IneqFormula, len(g.Subs))
		for i, s := range g.Subs {
			subs[i] = recolorConsts(s, hf)
		}
		return IneqOr{Subs: subs}
	}
	panic(fmt.Sprintf("core: unknown inequality formula node %T", f))
}
