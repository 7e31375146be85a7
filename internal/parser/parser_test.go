package parser

import (
	"strings"
	"testing"

	"pyquery/internal/datalog"
	"pyquery/internal/eval"
	"pyquery/internal/query"
	"pyquery/internal/relation"
)

func TestParseCQBasic(t *testing.T) {
	p := New()
	q, err := p.ParseCQ(`G(x, y) :- R(x, z), S(z, y).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Head) != 2 || len(q.Atoms) != 2 {
		t.Fatalf("shape: %v", q)
	}
	if q.Atoms[0].Rel != "R" || q.Atoms[1].Rel != "S" {
		t.Fatalf("relations: %v", q)
	}
	// x, y, z get ids 0, 1, 2 in order of appearance.
	if !q.Head[0].Equal(query.V(0)) || !q.Head[1].Equal(query.V(1)) {
		t.Fatalf("head vars: %v", q.Head)
	}
	if q.VarNames[2] != "z" {
		t.Fatalf("var names: %v", q.VarNames)
	}
}

func TestParseCQConstraintsAndConstants(t *testing.T) {
	p := New()
	q, err := p.ParseCQ(`G(e) :- EP(e, p), EP(e, q), p != q, e != "bob", p < 100, 5 <= q`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Ineqs) != 2 || len(q.Cmps) != 2 {
		t.Fatalf("constraints: %v / %v", q.Ineqs, q.Cmps)
	}
	if !q.Ineqs[0].YIsVar || q.Ineqs[1].YIsVar {
		t.Fatalf("ineq forms: %v", q.Ineqs)
	}
	if q.Ineqs[1].C < StringBase {
		t.Fatal("string constant must intern above StringBase")
	}
	if q.Cmps[0].Right.Const != 100 || !q.Cmps[0].Strict {
		t.Fatalf("cmp1: %v", q.Cmps[0])
	}
	if q.Cmps[1].Left.Const != 5 || q.Cmps[1].Strict {
		t.Fatalf("cmp2: %v", q.Cmps[1])
	}
}

func TestParseCQBooleanAndNegatives(t *testing.T) {
	p := New()
	q, err := p.ParseCQ(`G() :- E(x, -3).`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsBoolean() || q.Atoms[0].Args[1].Const != -3 {
		t.Fatalf("boolean/negative: %v", q)
	}
}

func TestParseCQErrors(t *testing.T) {
	p := New()
	for _, src := range []string{
		``,
		`G(x)`,               // no body
		`G(x) :- R(x`,        // unclosed paren
		`G(x) :- R(x), y !`,  // bad operator
		`G(x) :- exists(x)`,  // reserved word as relation
		`G(x) :- R(x) extra`, // trailing garbage
		`G(x) :- R(x), "a" < `,
		`G(x) :- R(:)`,
	} {
		if _, err := p.ParseCQ(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestGroundIneqBecomesMarker(t *testing.T) {
	p := New()
	q, err := p.ParseCQ(`G() :- R(x), 3 != 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Cmps) != 1 || q.Cmps[0].Holds(0, 0) {
		t.Fatalf("ground-false ≠ should become unsatisfiable marker: %v", q)
	}
	// Ground-true ≠ becomes a trivially-true ground comparison (3 < 4): it
	// cannot vanish, or a body holding only ground-true constraints would
	// render empty and stop re-parsing.
	q2, err := p.ParseCQ(`G() :- R(x), 3 != 4`)
	if err != nil || len(q2.Ineqs) != 0 || len(q2.Cmps) != 1 {
		t.Fatalf("ground-true ≠ should become a comparison: %v %v", q2, err)
	}
	if c := q2.Cmps[0]; c.Left.Const != 3 || c.Right.Const != 4 || !c.Strict {
		t.Fatalf("want trivially-true 3 < 4 marker, got %v", c)
	}
	// A body consisting only of a ground-true ≠ must stay renderable and
	// re-parseable (it is the plan-cache fingerprint).
	q3, err := p.ParseCQ(`G(0) :- 0 != 1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New().ParseCQ(q3.String()); err != nil {
		t.Fatalf("render %q does not re-parse: %v", q3.String(), err)
	}
}

func TestParseFOQuery(t *testing.T) {
	p := New()
	q, err := p.ParseFOQuery(`{ (x) | forall y (!E(x, y) | exists z E(y, z)) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Head) != 1 {
		t.Fatalf("head: %v", q.Head)
	}
	if _, ok := q.Body.(query.Forall); !ok {
		t.Fatalf("body shape: %T", q.Body)
	}
	// Evaluate to make sure it is well-formed end to end.
	db := query.NewDB()
	db.Set("E", query.Table(2, []relation.Value{0, 1}, []relation.Value{1, 0}))
	res, err := eval.FirstOrder(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("eval: %v", res)
	}
}

func TestParseFOPrecedence(t *testing.T) {
	p := New()
	// & binds tighter than |: a|b&c = a | (b&c).
	q, err := p.ParseFOQuery(`{ () | E(1,1) | E(2,2) & E(3,3) }`)
	if err != nil {
		t.Fatal(err)
	}
	or, ok := q.Body.(query.Or)
	if !ok || len(or.Subs) != 2 {
		t.Fatalf("precedence: %v", q.Body)
	}
	if _, ok := or.Subs[1].(query.And); !ok {
		t.Fatalf("precedence: second disjunct should be a conjunction: %v", or.Subs[1])
	}
	// true/false literals.
	q2, err := p.ParseFOQuery(`{ () | true & !false }`)
	if err != nil {
		t.Fatal(err)
	}
	db := query.NewDB()
	ok2, err := eval.FirstOrderBool(q2, db)
	if err != nil || !ok2 {
		t.Fatalf("true & !false: %v %v", ok2, err)
	}
}

func TestParseFOErrors(t *testing.T) {
	p := New()
	for _, src := range []string{
		`{ x | E(x) }`,        // head must be parenthesized
		`{ (x) | }`,           // empty body
		`{ (x) | E(x) `,       // unclosed brace
		`{ (x) | E(x) } junk`, // trailing
		`{ (x) | exists E(x) }`,
	} {
		if _, err := p.ParseFOQuery(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseProgram(t *testing.T) {
	p := New()
	prog, db, err := p.ParseProgram(`
		% a little graph
		E(1,2). E(2,3). E(3,4).
		Reach(x,y) :- E(x,y).
		Reach(x,z) :- Reach(x,y), E(y,z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Goal != "Reach" || len(prog.Rules) != 2 {
		t.Fatalf("program: %+v", prog)
	}
	if db.MustRel("E").Len() != 3 {
		t.Fatalf("facts: %v", db.MustRel("E"))
	}
	goal, _, err := datalog.EvalGoal(prog, db, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if goal.Len() != 6 {
		t.Fatalf("closure size: %d", goal.Len())
	}
}

func TestParseProgramGoalDirectiveAndErrors(t *testing.T) {
	p := New()
	prog, _, err := p.ParseProgram(`
		T(x) :- E(x, y).
		U(x) :- T(x).
		goal U.
	`)
	if err != nil || prog.Goal != "U" {
		t.Fatalf("goal directive: %v %v", prog, err)
	}
	for _, src := range []string{
		`E(x).`,         // fact with variable
		`E(1). E(1,2).`, // arity conflict
		`T(x) :- .`,     // empty body
		`T(x)`,          // missing period
	} {
		if _, _, err := p.ParseProgram(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestSymbolsRoundTrip(t *testing.T) {
	s := NewSymbols()
	a := s.Value("alice")
	n := s.Value("42")
	if n != 42 {
		t.Fatalf("numeric token: %d", n)
	}
	if a < StringBase {
		t.Fatal("symbol below StringBase")
	}
	if s.String(a) != "alice" || s.String(n) != "42" {
		t.Fatalf("round trip: %q %q", s.String(a), s.String(n))
	}
	if s.Value("alice") != a {
		t.Fatal("interning unstable")
	}
}

func TestLoadCSV(t *testing.T) {
	db := query.NewDB()
	syms := NewSymbols()
	err := LoadCSV(db, "EP", strings.NewReader("alice,100\nbob,100\nalice,101\nalice,100\n"), syms)
	if err != nil {
		t.Fatal(err)
	}
	r := db.MustRel("EP")
	if r.Len() != 3 || r.Width() != 2 {
		t.Fatalf("csv: %v", r)
	}
	alice, _ := syms.d.Lookup("alice")
	if !r.Contains([]relation.Value{StringBase + alice, 100}) {
		t.Fatalf("mixed symbol/number row missing: %v", r)
	}
	out := FormatRelation(r, syms)
	if !strings.Contains(out, "alice,100") {
		t.Fatalf("format: %q", out)
	}
	// Ragged rows rejected.
	if err := LoadCSV(db, "Bad", strings.NewReader("a,b\nc\n"), syms); err == nil {
		t.Fatal("ragged csv accepted")
	}
	// Empty CSV → empty 0-ary relation.
	if err := LoadCSV(db, "Empty", strings.NewReader(""), syms); err != nil {
		t.Fatal(err)
	}
	if db.MustRel("Empty").Len() != 0 {
		t.Fatal("empty csv should make empty relation")
	}
}

// Integer fields that land inside the symbol-interning band must be
// rejected at load time: they would render back as symbol names (or offset
// by StringBase), the long-documented silent collision.
func TestLoadCSVCollidingLiteral(t *testing.T) {
	db := query.NewDB()
	syms := NewSymbols()
	in := "alice,1099511627777\n" // 2^40 + 1
	err := LoadCSV(db, "EP", strings.NewReader(in), syms)
	if err == nil || !strings.Contains(err.Error(), "collides with the symbol-interning range") {
		t.Fatalf("colliding literal accepted: %v", err)
	}
	// Just below the band still loads.
	if err := LoadCSV(db, "OK", strings.NewReader("alice,1099511627775\n"), syms); err != nil {
		t.Fatal(err)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	p := New()
	q, err := p.ParseCQ(`
		G(x) :- % head comment
			R(x, y),   // C-style comment
			x != y.
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Atoms) != 1 || len(q.Ineqs) != 1 {
		t.Fatalf("comment handling: %v", q)
	}
}

func TestParsedQueryRunsThroughEngines(t *testing.T) {
	p := New()
	q, err := p.ParseCQ(`G(e) :- EP(e, p1), EP(e, p2), p1 != p2.`)
	if err != nil {
		t.Fatal(err)
	}
	db := query.NewDB()
	db.Set("EP", query.Table(2,
		[]relation.Value{1, 100}, []relation.Value{1, 101}, []relation.Value{2, 100}))
	res, err := eval.ConjunctiveBrute(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Row(0)[0] != 1 {
		t.Fatalf("parsed query answer: %v", res)
	}
}

// TestRoundTripCQ checks that a query printed by CQ.String parses back to a
// structurally identical query (variable names xN map to the same ids).
func TestRoundTripCQ(t *testing.T) {
	p := New()
	q, err := p.ParseCQ(`G(a, b) :- R(a, c), S(c, b), a != b, c != 5, a < b, 3 <= c.`)
	if err != nil {
		t.Fatal(err)
	}
	p2 := New()
	q2, err := p2.ParseCQ(q.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Fatalf("round trip unstable:\n%q\n%q", q.String(), q2.String())
	}
	if len(q2.Atoms) != len(q.Atoms) || len(q2.Ineqs) != len(q.Ineqs) || len(q2.Cmps) != len(q.Cmps) {
		t.Fatalf("shape changed: %v vs %v", q, q2)
	}
}
