package eval

import (
	"context"
	"fmt"

	"pyquery/internal/query"
	"pyquery/internal/relation"
)

// CanonicalDB builds the canonical (frozen) database of a pure conjunctive
// query: each variable becomes a fresh constant disjoint from the query's
// real constants, each atom becomes a tuple. It returns the database and
// the frozen head tuple. This is the Chandra–Merlin device behind
// containment testing ([5] in the paper).
func CanonicalDB(q *query.CQ) (*query.DB, []relation.Value, error) {
	if len(q.Ineqs) > 0 || len(q.Cmps) > 0 {
		return nil, nil, fmt.Errorf("eval: canonical database requires a pure conjunctive query")
	}
	// Fresh constants start above every constant in the query.
	var maxConst relation.Value
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if !t.IsVar && t.Const > maxConst {
				maxConst = t.Const
			}
		}
	}
	for _, t := range q.Head {
		if !t.IsVar && t.Const > maxConst {
			maxConst = t.Const
		}
	}
	frozen := func(v query.Var) relation.Value { return maxConst + 1 + relation.Value(v) }

	db := query.NewDB()
	arity := make(map[string]int)
	for _, a := range q.Atoms {
		if prev, ok := arity[a.Rel]; ok && prev != len(a.Args) {
			return nil, nil, fmt.Errorf("eval: relation %q used with arities %d and %d", a.Rel, prev, len(a.Args))
		}
		arity[a.Rel] = len(a.Args)
	}
	for name, ar := range arity {
		db.Set(name, query.NewTable(ar))
	}
	for _, a := range q.Atoms {
		r := db.MustRel(a.Rel)
		row := make([]relation.Value, len(a.Args))
		for i, t := range a.Args {
			if t.IsVar {
				row[i] = frozen(t.Var)
			} else {
				row[i] = t.Const
			}
		}
		r.Append(row...)
	}
	head := make([]relation.Value, len(q.Head))
	for i, t := range q.Head {
		if t.IsVar {
			head[i] = frozen(t.Var)
		} else {
			head[i] = t.Const
		}
	}
	return db, head, nil
}

// Contained reports whether sub ⊆ super holds for every database — i.e.
// whether there is a homomorphism from super to sub mapping head to head.
// Both queries must be pure CQs with heads of equal arity.
func Contained(sub, super *query.CQ) (bool, error) {
	if len(sub.Head) != len(super.Head) {
		return false, fmt.Errorf("eval: containment of queries with different head arities (%d vs %d)",
			len(sub.Head), len(super.Head))
	}
	if len(super.Ineqs) > 0 || len(super.Cmps) > 0 || len(sub.Ineqs) > 0 || len(sub.Cmps) > 0 {
		return false, fmt.Errorf("eval: containment implemented for pure conjunctive queries only")
	}
	db, frozenHead, err := CanonicalDB(sub)
	if err != nil {
		return false, err
	}
	// super may mention relations absent from sub's canonical database; any
	// such atom is unsatisfiable there, so containment fails — but we must
	// install empty relations so validation passes.
	for _, a := range super.Atoms {
		if r, ok := db.Rel(a.Rel); !ok {
			db.Set(a.Rel, query.NewTable(len(a.Args)))
		} else if r.Width() != len(a.Args) {
			return false, nil // arity mismatch: the atom can never match sub's relation
		}
	}
	bound, err := super.BindHead(frozenHead)
	if query.IsTrivialMismatch(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	c, err := Compile(bound, db, Options{}, nil)
	if err != nil {
		return false, err
	}
	return c.ExecBool(context.TODO(), nil, nil)
}

// Equivalent reports whether the two pure CQs are semantically equivalent
// (mutual containment).
func Equivalent(a, b *query.CQ) (bool, error) {
	ab, err := Contained(a, b)
	if err != nil {
		return false, err
	}
	if !ab {
		return false, nil
	}
	return Contained(b, a)
}

// Minimize returns an equivalent pure conjunctive query with a minimal
// number of atoms — the Chandra–Merlin core ([5] in the paper): atoms are
// removed greedily as long as the smaller query stays equivalent to the
// original. The result is unique up to isomorphism by the classical core
// theorem.
func Minimize(q *query.CQ) (*query.CQ, error) {
	if len(q.Ineqs) > 0 || len(q.Cmps) > 0 {
		return nil, fmt.Errorf("eval: minimization requires a pure conjunctive query")
	}
	cur := q.Clone()
	for {
		removed := false
		for i := 0; i < len(cur.Atoms); i++ {
			cand := cur.Clone()
			cand.Atoms = append(cand.Atoms[:i], cand.Atoms[i+1:]...)
			// Removing an atom can only grow the query (fewer constraints),
			// so cand ⊇ cur always; equivalence needs cand ⊆ cur. It also
			// must stay safe (head variables still in the body).
			if err := safeHead(cand); err != nil {
				continue
			}
			ok, err := Contained(cand, cur)
			if err != nil {
				return nil, err
			}
			if ok {
				cur = cand
				removed = true
				break
			}
		}
		if !removed {
			return cur, nil
		}
	}
}

// safeHead checks the range restriction after atom removal.
func safeHead(q *query.CQ) error {
	body := make(map[query.Var]bool)
	for _, v := range q.BodyVars() {
		body[v] = true
	}
	for _, t := range q.Head {
		if t.IsVar && !body[t.Var] {
			return fmt.Errorf("eval: unsafe head after removal")
		}
	}
	return nil
}
