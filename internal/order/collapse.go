package order

import (
	"errors"

	"pyquery/internal/plan"
	"pyquery/internal/query"
)

// ErrInconsistent is returned when the comparison constraints have no
// solution (a strict cycle, or two constants forced equal).
var ErrInconsistent = errors.New("order: comparison constraints are inconsistent")

// Collapse checks the consistency of a query's comparison atoms and
// collapses the implied equalities, returning Q′ per Theorem 3's
// preprocessing: variables forced equal are merged (smallest id wins),
// variables forced equal to a constant are substituted, and comparisons
// that become ground-true are dropped. The inequality (≠) atoms, head, and
// relational atoms are rewritten consistently. The comparisons "engine" is
// exactly this rewrite in front of the generic backtracker (eval.Compile on
// Q′; ErrInconsistent means the empty answer) — per Theorem 3 no
// fixed-parameter algorithm is expected, even for acyclic queries.
func Collapse(q *query.CQ) (*query.CQ, error) {
	if len(q.Cmps) == 0 {
		return q.Clone(), nil
	}
	sys := NewSystem(q.Cmps)
	varToVar, varToConst, ok := sys.ImpliedEqualities()
	if !ok {
		return nil, ErrInconsistent
	}
	mapVar := func(v query.Var) query.Term {
		if c, isC := varToConst[v]; isC {
			return query.C(c)
		}
		if w, isV := varToVar[v]; isV {
			return query.V(w)
		}
		return query.V(v)
	}
	mapTerm := func(t query.Term) query.Term {
		if t.IsVar {
			return mapVar(t.Var)
		}
		return t
	}

	out := &query.CQ{VarNames: q.VarNames}
	for _, t := range q.Head {
		out.Head = append(out.Head, mapTerm(t))
	}
	for _, a := range q.Atoms {
		args := make([]query.Term, len(a.Args))
		for i, t := range a.Args {
			args[i] = mapTerm(t)
		}
		out.Atoms = append(out.Atoms, query.Atom{Rel: a.Rel, Args: args})
	}
	for _, iq := range q.Ineqs {
		x := mapVar(iq.X)
		var y query.Term
		if iq.YIsVar {
			y = mapVar(iq.Y)
		} else {
			y = query.C(iq.C)
		}
		switch {
		case x.IsVar && y.IsVar:
			if x.Var == y.Var {
				return nil, ErrInconsistent // x≠x after collapse
			}
			out.Ineqs = append(out.Ineqs, query.NeqVars(x.Var, y.Var))
		case x.IsVar:
			out.Ineqs = append(out.Ineqs, query.NeqConst(x.Var, y.Const))
		case y.IsVar:
			out.Ineqs = append(out.Ineqs, query.NeqConst(y.Var, x.Const))
		default:
			if x.Const == y.Const {
				return nil, ErrInconsistent
			}
		}
	}
	for _, c := range q.Cmps {
		l, r := mapTerm(c.Left), mapTerm(c.Right)
		if !l.IsVar && !r.IsVar {
			if !c.Holds(l.Const, r.Const) {
				return nil, ErrInconsistent
			}
			continue // ground-true: drop
		}
		if l.IsVar && r.IsVar && l.Var == r.Var {
			if c.Strict {
				return nil, ErrInconsistent // x < x
			}
			continue // x ≤ x: drop
		}
		out.Cmps = append(out.Cmps, query.Cmp{Left: l, Right: r, Strict: c.Strict})
	}
	return out, nil
}

// IsAcyclicWithComparisons reports whether q is an acyclic conjunctive
// query with comparisons in Theorem 3's sense: after consistency checking
// and equality collapsing, the hypergraph of the relational atoms is
// α-acyclic. Inconsistent systems report false.
func IsAcyclicWithComparisons(q *query.CQ) bool {
	qc, err := Collapse(q)
	if err != nil {
		return false
	}
	return acyclicAtoms(qc)
}

// acyclicAtoms tests α-acyclicity of the relational-atom hypergraph.
func acyclicAtoms(q *query.CQ) bool {
	h, _ := plan.AtomHypergraph(q)
	_, ok := h.JoinForest()
	return ok
}
