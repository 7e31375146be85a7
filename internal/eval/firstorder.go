package eval

import (
	"errors"
	"fmt"

	"pyquery/internal/query"
	"pyquery/internal/relation"
)

// ErrUnboundVariable is returned when formula evaluation reaches an atom
// with an unbound variable — a formula that escaped validation (every
// public entry point validates first, so user queries get the specific
// validation message; this sentinel is the evaluator's own backstop).
var ErrUnboundVariable = errors.New("eval: unbound variable in atom")

// FirstOrder evaluates a first-order query under active-domain semantics:
// quantifiers range over the set of values occurring in the database. The
// evaluator is the direct recursive one — data complexity n^{O(v)} — and
// serves as the oracle for the W[P]-hardness reduction and as the paper's
// first-order baseline.
func FirstOrder(q *query.FOQuery, db *query.DB) (*relation.Relation, error) {
	if err := q.Validate(db); err != nil {
		return nil, err
	}
	ev := newFOEvaluator(db)
	out := query.NewTable(len(q.Head))

	headVars := make([]query.Var, 0, len(q.Head))
	seenVar := make(map[query.Var]bool)
	for _, t := range q.Head {
		if t.IsVar && !seenVar[t.Var] {
			seenVar[t.Var] = true
			headVars = append(headVars, t.Var)
		}
	}

	seen := relation.NewTupleSet(len(q.Head))
	tuple := make([]relation.Value, len(q.Head))
	var rec func(i int)
	rec = func(i int) {
		if i == len(headVars) {
			if ev.eval(q.Body) {
				for j, t := range q.Head {
					if t.IsVar {
						tuple[j] = ev.env[t.Var]
					} else {
						tuple[j] = t.Const
					}
				}
				if seen.Add(tuple) {
					out.Append(tuple...)
				}
			}
			return
		}
		v := headVars[i]
		for _, c := range ev.domain {
			ev.bind(v, c)
			rec(i + 1)
			ev.unbind(v)
		}
	}
	rec(0)
	if ev.err != nil {
		return nil, ev.err
	}
	return out, nil
}

// FirstOrderBool evaluates a Boolean first-order query.
func FirstOrderBool(q *query.FOQuery, db *query.DB) (bool, error) {
	if len(q.Head) != 0 {
		res, err := FirstOrder(q, db)
		if err != nil {
			return false, err
		}
		return res.Bool(), nil
	}
	if err := q.Validate(db); err != nil {
		return false, err
	}
	ev := newFOEvaluator(db)
	ok := ev.eval(q.Body)
	if ev.err != nil {
		return false, ev.err
	}
	return ok, nil
}

// Positive evaluates a positive query (no ¬, no ∀) — it is the same
// recursive evaluator with a front-door check, kept separate because the
// paper classifies the two languages differently.
func Positive(q *query.FOQuery, db *query.DB) (*relation.Relation, error) {
	if !query.IsPositive(q.Body) {
		return nil, errNotPositive
	}
	return FirstOrder(q, db)
}

// PositiveBool evaluates a Boolean positive query.
func PositiveBool(q *query.FOQuery, db *query.DB) (bool, error) {
	if !query.IsPositive(q.Body) {
		return false, errNotPositive
	}
	return FirstOrderBool(q, db)
}

var errNotPositive = errorString("eval: query body is not positive (contains ¬ or ∀)")

type errorString string

func (e errorString) Error() string { return string(e) }

type foEvaluator struct {
	domain []relation.Value
	member map[string]*relation.TupleSet
	env    map[query.Var]relation.Value
	// shadow stacks restore outer bindings on quantifier exit.
	saved map[query.Var][]binding
	// scratch holds atom arguments during membership checks (max EDB
	// arity), so atom evaluation does not allocate.
	scratch []relation.Value
	// err records the first structural failure (unbound variable, unknown
	// node) instead of panicking; once set, eval short-circuits to false
	// and the caller returns err instead of the garbage result.
	err error
}

type binding struct {
	val relation.Value
	ok  bool
}

func newFOEvaluator(db *query.DB) *foEvaluator {
	member := makeMemberSets(db)
	scratch := 0
	for _, set := range member {
		if w := set.Width(); w > scratch {
			scratch = w
		}
	}
	return &foEvaluator{
		domain:  db.ActiveDomain(),
		member:  member,
		env:     make(map[query.Var]relation.Value),
		saved:   make(map[query.Var][]binding),
		scratch: make([]relation.Value, scratch),
	}
}

// makeMemberSets builds one membership TupleSet per database relation —
// the O(1) atom-check structure shared by the FO and brute evaluators.
func makeMemberSets(db *query.DB) map[string]*relation.TupleSet {
	member := make(map[string]*relation.TupleSet)
	for _, name := range db.Names() {
		r := db.MustRel(name)
		set := relation.NewTupleSetSized(r.Width(), r.Len())
		buf := make([]relation.Value, r.Width())
		for i := 0; i < r.Len(); i++ {
			set.Add(r.RowTo(buf, i))
		}
		member[name] = set
	}
	return member
}

func (ev *foEvaluator) bind(v query.Var, c relation.Value) {
	old, ok := ev.env[v]
	ev.saved[v] = append(ev.saved[v], binding{old, ok})
	ev.env[v] = c
}

func (ev *foEvaluator) unbind(v query.Var) {
	st := ev.saved[v]
	b := st[len(st)-1]
	ev.saved[v] = st[:len(st)-1]
	if b.ok {
		ev.env[v] = b.val
	} else {
		delete(ev.env, v)
	}
}

func (ev *foEvaluator) eval(f query.Formula) bool {
	if ev.err != nil {
		return false
	}
	switch g := f.(type) {
	case query.FAtom:
		buf := ev.scratch[:len(g.Atom.Args)]
		for i, t := range g.Atom.Args {
			if t.IsVar {
				val, ok := ev.env[t.Var]
				if !ok {
					ev.err = fmt.Errorf("%w: variable x%d in atom %s (query not validated?)",
						ErrUnboundVariable, t.Var, g.Atom.Rel)
					return false
				}
				buf[i] = val
			} else {
				buf[i] = t.Const
			}
		}
		return ev.member[g.Atom.Rel].Contains(buf)
	case query.And:
		for _, s := range g.Subs {
			if !ev.eval(s) {
				return false
			}
		}
		return true
	case query.Or:
		for _, s := range g.Subs {
			if ev.eval(s) {
				return true
			}
		}
		return false
	case query.Not:
		return !ev.eval(g.Sub)
	case query.Exists:
		for _, c := range ev.domain {
			ev.bind(g.V, c)
			ok := ev.eval(g.Sub)
			ev.unbind(g.V)
			if ok {
				return true
			}
		}
		return false
	case query.Forall:
		for _, c := range ev.domain {
			ev.bind(g.V, c)
			ok := ev.eval(g.Sub)
			ev.unbind(g.V)
			if !ok {
				return false
			}
		}
		return true
	}
	ev.err = fmt.Errorf("eval: unknown formula node %T", f)
	return false
}
