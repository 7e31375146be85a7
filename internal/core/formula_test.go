package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pyquery/internal/query"
	"pyquery/internal/relation"
)

func TestIneqFormulaValues(t *testing.T) {
	// (x0≠x1 ∨ x0≠5) ∧ x1≠x2
	f := IneqAnd{Subs: []IneqFormula{
		IneqOr{Subs: []IneqFormula{
			IneqAtom{Ineq: query.NeqVars(0, 1)},
			IneqAtom{Ineq: query.NeqConst(0, 5)},
		}},
		IneqAtom{Ineq: query.NeqVars(1, 2)},
	}}
	get := func(vals map[query.Var]relation.Value) func(query.Var) relation.Value {
		return func(v query.Var) relation.Value { return vals[v] }
	}
	if !EvalIneqFormulaValues(f, get(map[query.Var]relation.Value{0: 1, 1: 2, 2: 3})) {
		t.Fatal("all-distinct should satisfy")
	}
	if EvalIneqFormulaValues(f, get(map[query.Var]relation.Value{0: 5, 1: 5, 2: 3})) {
		t.Fatal("x0=x1=5 falsifies both disjuncts")
	}
	if EvalIneqFormulaValues(f, get(map[query.Var]relation.Value{0: 1, 1: 2, 2: 2})) {
		t.Fatal("x1=x2 falsifies the second conjunct")
	}
	if (IneqAnd{}).String() != "()" && !EvalIneqFormulaValues(IneqAnd{}, nil) {
		t.Fatal("empty conjunction is true")
	}
	if EvalIneqFormulaValues(IneqOr{}, nil) {
		t.Fatal("empty disjunction is false")
	}
}

func TestFromConjunctionMatchesEvaluate(t *testing.T) {
	// The formula path with a pure conjunction must agree with the
	// conjunction engine on the Section 5 example.
	db := orgDB()
	q := multiProjectQuery()
	want, err := run(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pure := q.Clone()
	phi := FromConjunction(pure.Ineqs)
	pure.Ineqs = nil
	got, err := runFormula(pure, phi, db, Options{Strategy: Exact})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualSet(got, want) {
		t.Fatalf("formula path disagrees: %v vs %v", got, want)
	}
}

func TestEvaluateIneqFormulaDisjunction(t *testing.T) {
	// G(e) ← EP(e,p), EP(e,p2), (p≠p2 ∨ e≠1): every employee except those
	// equal to 1 qualifies trivially; employee 1 qualifies iff on >1
	// project. Over orgDB: employees {1 (two projects), 2, 3, 4} all pass
	// except... everyone passes: e≠1 covers 2,3,4 and p≠p2 covers 1.
	q := &query.CQ{
		Head: []query.Term{query.V(0)},
		Atoms: []query.Atom{
			query.NewAtom("EP", query.V(0), query.V(1)),
			query.NewAtom("EP", query.V(0), query.V(2)),
		},
	}
	phi := IneqOr{Subs: []IneqFormula{
		IneqAtom{Ineq: query.NeqVars(1, 2)},
		IneqAtom{Ineq: query.NeqConst(0, 1)},
	}}
	got, err := runFormula(q, phi, orgDB(), Options{Strategy: Exact})
	if err != nil {
		t.Fatal(err)
	}
	want := query.Table(1,
		[]relation.Value{1}, []relation.Value{2}, []relation.Value{3}, []relation.Value{4})
	if !relation.EqualSet(got, want) {
		t.Fatalf("disjunctive φ = %v, want %v", got, want)
	}
}

func TestEvaluateIneqFormulaRejections(t *testing.T) {
	db := orgDB()
	q := multiProjectQuery() // still carries its own ≠ atoms
	if _, err := runFormula(q, IneqAnd{}, db, Options{}); err == nil {
		t.Fatal("query-side ≠ atoms must be rejected")
	}
	pure := &query.CQ{Atoms: []query.Atom{query.NewAtom("EP", query.V(0), query.V(1))}}
	badVar := IneqAtom{Ineq: query.NeqVars(0, 9)}
	if _, err := runFormula(pure, badVar, db, Options{}); err == nil {
		t.Fatal("φ variable outside the body must be rejected")
	}
	cyc := &query.CQ{Atoms: []query.Atom{
		query.NewAtom("EP", query.V(0), query.V(1)),
		query.NewAtom("EP", query.V(1), query.V(2)),
		query.NewAtom("EP", query.V(2), query.V(0)),
	}}
	if _, err := runFormula(cyc, IneqAnd{}, db, Options{}); err == nil {
		t.Fatal("cyclic query must be rejected")
	}
}

// bruteIneqFormula enumerates assignments over the active domain.
func bruteIneqFormula(q *query.CQ, phi IneqFormula, db *query.DB) *relation.Relation {
	domain := db.ActiveDomain()
	vars := q.BodyVars()
	slot := make(map[query.Var]int)
	for i, v := range vars {
		slot[v] = i
	}
	assign := make([]relation.Value, len(vars))
	out := query.NewTable(len(q.Head))
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			for _, a := range q.Atoms {
				row := make([]relation.Value, len(a.Args))
				for j, t := range a.Args {
					if t.IsVar {
						row[j] = assign[slot[t.Var]]
					} else {
						row[j] = t.Const
					}
				}
				if !db.MustRel(a.Rel).Contains(row) {
					return
				}
			}
			if !EvalIneqFormulaValues(phi, func(v query.Var) relation.Value {
				return assign[slot[v]]
			}) {
				return
			}
			tuple := make([]relation.Value, len(q.Head))
			for j, t := range q.Head {
				if t.IsVar {
					tuple[j] = assign[slot[t.Var]]
				} else {
					tuple[j] = t.Const
				}
			}
			out.Append(tuple...)
			return
		}
		for _, c := range domain {
			assign[i] = c
			rec(i + 1)
		}
	}
	rec(0)
	return out.Dedup()
}

// Property: the formula engine agrees with brute force on random acyclic
// queries with random ∧/∨ inequality formulas — serial, without the
// pushdown (every conjunct colored), and with three workers. The random
// disjunctions often span subtrees, so they are checked at the lowest
// common ancestor of their variables.
func TestQuickIneqFormulaAgainstBrute(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		q, db := randAcyclicIneqInstance(rnd)
		q.Ineqs = nil // constraints live in φ here
		vars := q.BodyVars()
		if len(vars) == 0 {
			return true
		}
		var buildPhi func(depth int) IneqFormula
		buildPhi = func(depth int) IneqFormula {
			if depth == 0 || rnd.Intn(3) == 0 {
				x := vars[rnd.Intn(len(vars))]
				if rnd.Intn(4) == 0 {
					return IneqAtom{Ineq: query.NeqConst(x, relation.Value(rnd.Intn(4)))}
				}
				y := vars[rnd.Intn(len(vars))]
				if x == y {
					return IneqAtom{Ineq: query.NeqConst(x, relation.Value(rnd.Intn(4)))}
				}
				return IneqAtom{Ineq: query.NeqVars(x, y)}
			}
			if rnd.Intn(2) == 0 {
				return IneqAnd{Subs: []IneqFormula{buildPhi(depth - 1), buildPhi(depth - 1)}}
			}
			return IneqOr{Subs: []IneqFormula{buildPhi(depth - 1), buildPhi(depth - 1)}}
		}
		phi := buildPhi(2)
		pv, pc := ineqFormulaVars(phi)
		if len(pv)+len(pc) > 6 {
			return true // keep the exact family enumerable
		}
		want := bruteIneqFormula(q, phi, db)
		for _, opts := range []Options{
			{Strategy: Exact, Parallelism: 1},
			{Strategy: Exact, Parallelism: 1, NoPushdown: true},
			{Strategy: Exact, Parallelism: 3},
		} {
			got, err := runFormula(q, phi, db, opts)
			if err != nil {
				t.Logf("seed %d %+v: %v (φ=%v, q=%v)", seed, opts, err, phi, q)
				return false
			}
			if !relation.EqualSet(got, want) {
				t.Logf("seed %d %+v: mismatch on φ=%v q=%v:\n got %v\nwant %v", seed, opts, phi, q, got, want)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(121))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
