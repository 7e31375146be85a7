package core

import (
	"fmt"
	"slices"

	"pyquery/internal/query"
	"pyquery/internal/relation"
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
	slices.Sort(vars)
	for c := range cset {
		consts = append(consts, c)
	}
	slices.Sort(consts)
	return vars, consts
}

// conjunct is one top-level conjunct of φ with its distinct variables and
// constants.
type conjunct struct {
	f      IneqFormula
	vars   []query.Var
	consts []relation.Value
}

// split applies the one conjunct rule to φ's top-level conjuncts (nested ∧
// is flattened): a conjunct whose variables all occur in one relational
// atom is pushed into the selections of the atoms holding them (the I₂ of
// the conjunction case; under noPushdown nothing is pushed), and every
// other conjunct is colored (I₁, disjunctions spanning atoms). Reversed
// and repeated atoms collapse, ground conjuncts are decided here, and
// ok=false reports a conjunct that is false outright (ground false, or
// x≠x).
func split(q *query.CQ, phi IneqFormula, noPushdown bool) (pushed, colored []conjunct, ok bool) {
	var flat []IneqFormula
	var walk func(IneqFormula)
	walk = func(f IneqFormula) {
		if g, isAnd := f.(IneqAnd); isAnd {
			for _, sub := range g.Subs {
				walk(sub)
			}
			return
		}
		flat = append(flat, f)
	}
	walk(phi)
	seen := make(map[query.Ineq]bool)
	for _, f := range flat {
		if a, isAtom := f.(IneqAtom); isAtom {
			iq := a.Ineq
			if iq.YIsVar && iq.X == iq.Y {
				return nil, nil, false
			}
			if iq.YIsVar && iq.X > iq.Y {
				iq.X, iq.Y = iq.Y, iq.X
			}
			if seen[iq] {
				continue
			}
			seen[iq] = true
			f = IneqAtom{Ineq: iq}
		}
		c := conjunct{f: f}
		c.vars, c.consts = ineqFormulaVars(f)
		switch {
		case len(c.vars) == 0:
			if !EvalIneqFormulaValues(f, nil) {
				return nil, nil, false
			}
		case !noPushdown && inOneAtom(q, c.vars):
			pushed = append(pushed, c)
		default:
			colored = append(colored, c)
		}
	}
	return pushed, colored, true
}

// inOneAtom reports whether some relational atom holds every variable.
func inOneAtom(q *query.CQ, vars []query.Var) bool {
	for _, a := range q.Atoms {
		if holdsAll(a.Vars(), vars) {
			return true
		}
	}
	return false
}

func holdsAll(have, want []query.Var) bool {
	for _, v := range want {
		if !slices.Contains(have, v) {
			return false
		}
	}
	return true
}

// test is a formula bound to a relation's columns: a leaf compares column
// a with column b, or with the constant c when b < 0; an inner node is the
// conjunction (and) or disjunction of subs.
type test struct {
	leaf, and bool
	a, b      int
	c         relation.Value
	subs      []test
}

// bind resolves f against a relation: col maps a variable to its column
// (the value column for a pushed conjunct, the color column for a
// colored one) and val maps a constant (identity, or its color).
func bind(f IneqFormula, col func(query.Var) int, val func(relation.Value) relation.Value) test {
	switch g := f.(type) {
	case IneqAtom:
		t := test{leaf: true, a: col(g.Ineq.X), b: -1}
		if g.Ineq.YIsVar {
			t.b = col(g.Ineq.Y)
		} else {
			t.c = val(g.Ineq.C)
		}
		return t
	case IneqAnd:
		return test{and: true, subs: bindAll(g.Subs, col, val)}
	case IneqOr:
		return test{subs: bindAll(g.Subs, col, val)}
	}
	panic(fmt.Sprintf("core: unknown inequality formula node %T", f))
}

func bindAll(fs []IneqFormula, col func(query.Var) int, val func(relation.Value) relation.Value) []test {
	ts := make([]test, len(fs))
	for i, f := range fs {
		ts[i] = bind(f, col, val)
	}
	return ts
}

// holds evaluates the bound formula on row i of r.
func (t *test) holds(r *relation.Relation, i int) bool {
	if t.leaf {
		if t.b < 0 {
			return r.At(t.a, i) != t.c
		}
		return r.At(t.a, i) != r.At(t.b, i)
	}
	for k := range t.subs {
		if t.subs[k].holds(r, i) != t.and {
			return !t.and
		}
	}
	return t.and
}

// filter keeps the rows of r that pass every test.
func filter(r *relation.Relation, tests []test) *relation.Relation {
	if len(tests) == 0 {
		return r
	}
	sel := make([]int32, 0, r.Len())
rows:
	for i := 0; i < r.Len(); i++ {
		for k := range tests {
			if !tests[k].holds(r, i) {
				continue rows
			}
		}
		sel = append(sel, int32(i))
	}
	if len(sel) == r.Len() {
		return r
	}
	return r.Gather(sel)
}
