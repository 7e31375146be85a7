package reductions

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"pyquery/internal/boolcirc"
	"pyquery/internal/core"
	"pyquery/internal/eval"
	"pyquery/internal/governor"
	"pyquery/internal/graph"
	"pyquery/internal/order"
	"pyquery/internal/query"
	"pyquery/internal/relation"
)

// program is the compiled form every engine exports; run and runBool wrap an
// engine's Compile call into compile-plus-one-ungoverned-execution.
type program interface {
	Exec(context.Context, []relation.Value, *governor.Meter) (*relation.Relation, error)
	ExecBool(context.Context, []relation.Value, *governor.Meter) (bool, error)
}

func run(p program, err error) (*relation.Relation, error) {
	if err != nil {
		return nil, err
	}
	return p.Exec(context.Background(), nil, nil)
}

func runBool(p program, err error) (bool, error) {
	if err != nil {
		return false, err
	}
	return p.ExecBool(context.Background(), nil, nil)
}

// collapsed is the comparisons engine: the order.Collapse rewrite in front of
// the compiled backtracker (the reductions only build consistent systems).
func collapsed(q *query.CQ, db *query.DB) (program, error) {
	qc, err := order.Collapse(q)
	if err != nil {
		return nil, err
	}
	return eval.Compile(qc, db, eval.Options{}, nil)
}

// --- Theorem 1(1) lower bound: clique → conjunctive query -----------------

func TestCliqueToCQKnownGraphs(t *testing.T) {
	q, db := CliqueToCQ(graph.Complete(5), 4)
	ok, err := runBool(eval.Compile(q, db, eval.Options{}, nil))
	if err != nil || !ok {
		t.Fatalf("K5 has a 4-clique: %v %v", ok, err)
	}
	if q.NumVars() != 4 || len(q.Atoms) != 6 {
		t.Fatalf("query shape: v=%d atoms=%d", q.NumVars(), len(q.Atoms))
	}
	q, db = CliqueToCQ(graph.Path(6), 3)
	ok, err = runBool(eval.Compile(q, db, eval.Options{}, nil))
	if err != nil || ok {
		t.Fatalf("path has no triangle: %v %v", ok, err)
	}
}

func TestQuickCliqueToCQ(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		g := graph.Random(5+rnd.Intn(8), 0.4+0.3*rnd.Float64(), seed)
		k := 2 + rnd.Intn(3)
		q, db := CliqueToCQ(g, k)
		got, err := runBool(eval.Compile(q, db, eval.Options{}, nil))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return got == g.HasClique(k)
	}
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(101))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// --- Theorem 1(1) upper bound: CQ → weighted 2-CNF ------------------------

func TestCQToWeighted2CNFKnown(t *testing.T) {
	// Triangle query on K3 vs path graph.
	q, db := CliqueToCQ(graph.Complete(3), 3)
	red, err := CQToWeighted2CNF(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if red.Formula.MaxClauseWidth() > 2 {
		t.Fatalf("reduction must produce 2-CNF, got width %d", red.Formula.MaxClauseWidth())
	}
	assign, ok := red.Formula.WeightedSatisfiable(red.K)
	if !ok {
		t.Fatal("K3 triangle query must be satisfiable")
	}
	// Decode must give a genuine instantiation: all atoms matched.
	inst := red.Decode(assign)
	for _, a := range q.Atoms {
		row := make([]relation.Value, len(a.Args))
		for i, term := range a.Args {
			row[i] = inst[term.Var]
		}
		if !db.MustRel(a.Rel).Contains(row) {
			t.Fatalf("decoded instantiation %v misses atom %v", inst, a)
		}
	}

	q2, db2 := CliqueToCQ(graph.Path(5), 3)
	red2, err := CQToWeighted2CNF(q2, db2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := red2.Formula.WeightedSatisfiable(red2.K); ok {
		t.Fatal("path graph has no triangle; 2-CNF should be weight-unsat")
	}
}

func TestCQToWeighted2CNFRejects(t *testing.T) {
	db := query.NewDB()
	db.Set("R", query.Table(1, []relation.Value{1}))
	withHead := &query.CQ{Head: []query.Term{query.V(0)}, Atoms: []query.Atom{query.NewAtom("R", query.V(0))}}
	if _, err := CQToWeighted2CNF(withHead, db); err == nil {
		t.Fatal("non-Boolean query accepted")
	}
	withIneq := &query.CQ{Atoms: []query.Atom{query.NewAtom("R", query.V(0))},
		Ineqs: []query.Ineq{query.NeqConst(0, 5)}}
	if _, err := CQToWeighted2CNF(withIneq, db); err == nil {
		t.Fatal("≠ atoms accepted")
	}
}

func TestQuickCQToWeighted2CNF(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		q, db := randBoolCQ(rnd)
		want, err := runBool(eval.Compile(q, db, eval.Options{}, nil))
		if err != nil {
			return true
		}
		red, err := CQToWeighted2CNF(q, db)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		_, got := red.Formula.WeightedSatisfiable(red.K)
		if got != want {
			t.Logf("seed %d: 2CNF %v, query %v on %v", seed, got, want, q)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(102))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// randBoolCQ builds a small random Boolean pure CQ + database.
func randBoolCQ(rnd *rand.Rand) (*query.CQ, *query.DB) {
	db := query.NewDB()
	domain := 2 + rnd.Intn(3)
	names := []string{"R", "S"}
	arities := []int{1 + rnd.Intn(2), 2}
	for i, name := range names {
		r := query.NewTable(arities[i])
		row := make([]relation.Value, arities[i])
		for j := 0; j < rnd.Intn(8); j++ {
			for c := range row {
				row[c] = relation.Value(rnd.Intn(domain))
			}
			r.Append(row...)
		}
		r.Dedup()
		db.Set(name, r)
	}
	q := &query.CQ{}
	nvars := 1 + rnd.Intn(3)
	for i := 0; i < 1+rnd.Intn(3); i++ {
		ri := rnd.Intn(len(names))
		args := make([]query.Term, arities[ri])
		for j := range args {
			if rnd.Intn(6) == 0 {
				args[j] = query.C(relation.Value(rnd.Intn(domain)))
			} else {
				args[j] = query.V(query.Var(rnd.Intn(nvars)))
			}
		}
		q.Atoms = append(q.Atoms, query.Atom{Rel: names[ri], Args: args})
	}
	return q, db
}

// --- Theorem 1(1) upper bound, parameter v: BoundedVars -------------------

func TestBoundedVarsEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		q, db := randBoolCQ(rnd)
		// Give it a head sometimes.
		if vars := q.BodyVars(); len(vars) > 0 && rnd.Intn(2) == 0 {
			q.Head = []query.Term{query.V(vars[rnd.Intn(len(vars))])}
		}
		want, err := run(eval.Compile(q, db, eval.Options{}, nil))
		if err != nil {
			return true
		}
		q2, db2, err := BoundedVars(q, db)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(q2.Atoms) > 1<<uint(q.NumVars()) {
			t.Logf("seed %d: %d atoms exceeds 2^v", seed, len(q2.Atoms))
			return false
		}
		got, err := run(eval.Compile(q2, db2, eval.Options{}, nil))
		if err != nil {
			t.Logf("seed %d: transformed query error %v", seed, err)
			return false
		}
		if !relation.EqualSet(got, want) {
			t.Logf("seed %d: mismatch\n%v\n%v", seed, q, q2)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(103))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedVarsMergesSameVarSets(t *testing.T) {
	db := query.NewDB()
	db.Set("R", query.Table(2, []relation.Value{1, 2}, []relation.Value{2, 2}))
	db.Set("S", query.Table(2, []relation.Value{1, 2}, []relation.Value{1, 3}))
	// R(x0,x1) ∧ S(x0,x1) share the var set {x0,x1} → single intersected atom.
	q := &query.CQ{Atoms: []query.Atom{
		query.NewAtom("R", query.V(0), query.V(1)),
		query.NewAtom("S", query.V(0), query.V(1)),
	}}
	q2, db2, err := BoundedVars(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(q2.Atoms) != 1 {
		t.Fatalf("same-var-set atoms should merge: %v", q2)
	}
	rs := db2.MustRel(q2.Atoms[0].Rel)
	if rs.Len() != 1 || !rs.Contains([]relation.Value{1, 2}) {
		t.Fatalf("intersection wrong: %v", rs)
	}
}

// --- Theorem 1(2): positive queries ---------------------------------------

func randPositiveQuery(rnd *rand.Rand, nvars int) query.Formula {
	var build func(depth int) query.Formula
	build = func(depth int) query.Formula {
		if depth == 0 || rnd.Intn(3) == 0 {
			return query.FAtom{Atom: query.NewAtom("E",
				query.V(query.Var(rnd.Intn(nvars))), query.V(query.Var(rnd.Intn(nvars))))}
		}
		switch rnd.Intn(3) {
		case 0:
			return query.And{Subs: []query.Formula{build(depth - 1), build(depth - 1)}}
		case 1:
			return query.Or{Subs: []query.Formula{build(depth - 1), build(depth - 1)}}
		default:
			return query.Exists{V: query.Var(rnd.Intn(nvars)), Sub: build(depth - 1)}
		}
	}
	return build(3)
}

func TestQuickPositiveToUCQ(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		nvars := 2 + rnd.Intn(2)
		body := randPositiveQuery(rnd, nvars)
		// Close the query existentially.
		for _, v := range query.FreeVars(body) {
			body = query.Exists{V: v, Sub: body}
		}
		fo := &query.FOQuery{Body: body}
		db := query.NewDB()
		r := query.NewTable(2)
		for i := 0; i < rnd.Intn(8); i++ {
			r.Append(relation.Value(rnd.Intn(3)), relation.Value(rnd.Intn(3)))
		}
		r.Dedup()
		db.Set("E", r)
		want, err := eval.PositiveBool(fo, db)
		if err != nil {
			return true
		}
		cqs, err := PositiveToUCQ(fo)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		got := false
		for _, cq := range cqs {
			ok, err := runBool(eval.Compile(cq, db, eval.Options{}, nil))
			if err != nil {
				t.Logf("seed %d: CQ error %v on %v", seed, err, cq)
				return false
			}
			if ok {
				got = true
				break
			}
		}
		if got != want {
			t.Logf("seed %d: UCQ %v, positive %v", seed, got, want)
			return false
		}
		// Footnote 2: single clique instance.
		g, k, err := PositiveToClique(fo, db)
		if err != nil {
			t.Logf("seed %d: clique reduction error %v", seed, err)
			return false
		}
		if g.HasClique(k) != want {
			t.Logf("seed %d: clique %v, positive %v (k=%d, n=%d)", seed, g.HasClique(k), want, k, g.N)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(104))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPositiveToUCQRejectsNegation(t *testing.T) {
	fo := &query.FOQuery{Body: query.Not{Sub: query.FAtom{Atom: query.NewAtom("E", query.C(0), query.C(0))}}}
	if _, err := PositiveToUCQ(fo); err == nil {
		t.Fatal("negation accepted")
	}
}

// --- Theorem 1(2) lower bound: weighted formula sat → positive query ------

func TestQuickWeightedFormulaToPositive(t *testing.T) {
	var build func(rnd *rand.Rand, depth, vars int) boolcirc.Formula
	build = func(rnd *rand.Rand, depth, vars int) boolcirc.Formula {
		if depth == 0 || rnd.Intn(3) == 0 {
			return boolcirc.FVar{V: rnd.Intn(vars), Neg: rnd.Intn(2) == 0}
		}
		switch rnd.Intn(3) {
		case 0:
			return boolcirc.FNot{Sub: build(rnd, depth-1, vars)}
		case 1:
			return boolcirc.FAnd{Subs: []boolcirc.Formula{build(rnd, depth-1, vars), build(rnd, depth-1, vars)}}
		default:
			return boolcirc.FOr{Subs: []boolcirc.Formula{build(rnd, depth-1, vars), build(rnd, depth-1, vars)}}
		}
	}
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 2 + rnd.Intn(4)
		k := rnd.Intn(n + 1)
		phi := build(rnd, 3, n)
		_, want := boolcirc.WeightedSatFormula(phi, n, k)
		fo, db := WeightedFormulaToPositive(phi, n, k)
		got, err := eval.PositiveBool(fo, db)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if got != want {
			t.Logf("seed %d: query %v, formula %v (n=%d k=%d, φ=%v)", seed, got, want, n, k, phi)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(105))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// --- Theorem 1(3): monotone circuit sat → first-order query ---------------

func TestMonotoneCircuitToFOKnown(t *testing.T) {
	// OR(AND(x0,x1), x2): weight-1 satisfiable (x2), weight-2 satisfiable.
	c := boolcirc.New(3)
	a := c.AddGate(boolcirc.And, 0, 1)
	c.SetOutput(c.AddGate(boolcirc.Or, a, 2))
	for k := 0; k <= 3; k++ {
		fo, db, err := MonotoneCircuitToFO(c, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		got, err := eval.FirstOrderBool(fo, db)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		_, want := c.WeightedSatisfiable(k)
		if got != want {
			t.Fatalf("k=%d: FO %v, circuit %v", k, got, want)
		}
	}
	if _, _, err := MonotoneCircuitToFO(c, 4); err == nil {
		t.Fatal("k beyond inputs must be rejected")
	}
}

func TestQuickMonotoneCircuitToFO(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		inputs := 2 + rnd.Intn(3)
		c := boolcirc.New(inputs)
		for i := 0; i < 1+rnd.Intn(4); i++ {
			kind := boolcirc.And
			if rnd.Intn(2) == 0 {
				kind = boolcirc.Or
			}
			fanin := 1 + rnd.Intn(2)
			in := make([]int, fanin)
			for j := range in {
				in[j] = rnd.Intn(len(c.Gates))
			}
			c.AddGate(kind, in...)
		}
		c.SetOutput(len(c.Gates) - 1)
		k := rnd.Intn(min(inputs, 2) + 1)
		fo, db, err := MonotoneCircuitToFO(c, k)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		got, err := eval.FirstOrderBool(fo, db)
		if err != nil {
			t.Logf("seed %d: eval %v", seed, err)
			return false
		}
		_, want := c.WeightedSatisfiable(k)
		if got != want {
			t.Logf("seed %d: FO %v, circuit %v (k=%d)", seed, got, want, k)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(106))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- Theorem 3: clique → acyclic CQ with comparisons ----------------------

func TestCliqueToComparisonsKnown(t *testing.T) {
	q, db := CliqueToComparisons(graph.Complete(4), 3)
	if !order.IsAcyclicWithComparisons(q) {
		t.Fatal("Theorem 3 query must be acyclic with comparisons")
	}
	ok, err := runBool(collapsed(q, db))
	if err != nil || !ok {
		t.Fatalf("K4 has a triangle: %v %v", ok, err)
	}
	q2, db2 := CliqueToComparisons(graph.Path(5), 3)
	ok, err = runBool(collapsed(q2, db2))
	if err != nil || ok {
		t.Fatalf("path has no triangle: %v %v", ok, err)
	}
}

func TestQuickCliqueToComparisons(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		g := graph.Random(4+rnd.Intn(4), 0.5+0.3*rnd.Float64(), seed)
		k := 2 + rnd.Intn(2)
		q, db := CliqueToComparisons(g, k)
		got, err := runBool(collapsed(q, db))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if got != g.HasClique(k) {
			t.Logf("seed %d: query %v, clique %v (n=%d k=%d)", seed, got, g.HasClique(k), g.N, k)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(107))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// --- Section 5: Hamiltonian path → acyclic CQ with inequalities -----------

func TestHamPathToIneqCQ(t *testing.T) {
	// Path graph: Hamiltonian. Star: not.
	q, db := HamPathToIneqCQ(graph.Path(5))
	ok, err := runBool(core.Compile(q, db, core.Options{}))
	if err != nil || !ok {
		t.Fatalf("path graph is Hamiltonian: %v %v", ok, err)
	}
	star := graph.New(4)
	star.AddEdge(0, 1)
	star.AddEdge(0, 2)
	star.AddEdge(0, 3)
	q, db = HamPathToIneqCQ(star)
	ok, err = runBool(core.Compile(q, db, core.Options{}))
	if err != nil || ok {
		t.Fatalf("star is not Hamiltonian: %v %v", ok, err)
	}
}

func TestQuickHamPath(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 2 + rnd.Intn(5)
		g := graph.Random(n, 0.3+0.5*rnd.Float64(), seed)
		q, db := HamPathToIneqCQ(g)
		got, err := runBool(core.Compile(q, db, core.Options{}))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		_, want := g.HamiltonianPath()
		if got != want {
			t.Logf("seed %d: query %v, DP %v (n=%d)", seed, got, want, n)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(108))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
