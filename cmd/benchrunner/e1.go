package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"pyquery/internal/bench"
	"pyquery/internal/boolcirc"
	"pyquery/internal/eval"
	"pyquery/internal/graph"
	"pyquery/internal/query"
	"pyquery/internal/reductions"
	"pyquery/internal/relation"
)

// runE1 reproduces the Theorem 1 table. Part 1 validates each cell's
// reductions against independent oracles over instance sweeps; part 2
// measures the data-complexity exponent of generic evaluation on the clique
// query family — the "parameter in the exponent" the table predicts.
func runE1(w io.Writer, quick bool) {
	sweep := 40
	if quick {
		sweep = 10
	}
	rnd := rand.New(rand.NewSource(1))

	type cellCheck struct {
		lang, param, class string
		check              func() (agree, total int)
	}
	checks := []cellCheck{
		{"conjunctive", "q", "W[1]-complete", func() (int, int) {
			return checkCliqueLower(rnd, sweep), sweep
		}},
		{"conjunctive", "q (upper)", "∈ W[1] via weighted 2-CNF", func() (int, int) {
			return checkCQ2CNF(rnd, sweep), sweep
		}},
		{"conjunctive", "v (upper)", "∈ W[1] via R_S rewrite", func() (int, int) {
			return checkBoundedVars(rnd, sweep), sweep
		}},
		{"positive", "q", "W[1]-complete (UCQ + footnote 2)", func() (int, int) {
			return checkPositiveUCQ(rnd, sweep), sweep
		}},
		{"positive", "v", "W[SAT]-hard (weighted formula sat)", func() (int, int) {
			return checkWFormula(rnd, sweep), sweep
		}},
		{"first-order", "q and v", "W[t]-hard / W[P]-hard (circuit sat)", func() (int, int) {
			n := sweep / 2
			if n < 5 {
				n = 5
			}
			return checkCircuitFO(rnd, n), n
		}},
	}

	var rows [][]string
	for _, c := range checks {
		agree, total := c.check()
		status := "VERIFIED"
		if agree != total {
			status = fmt.Sprintf("FAILED (%d/%d)", agree, total)
		}
		rows = append(rows, []string{c.lang, c.param, c.class, fmt.Sprintf("%d/%d", agree, total), status})
	}
	fmt.Fprintln(w, "Reduction validation (each cell of the Theorem 1 table):")
	fmt.Fprint(w, bench.Table([]string{"language", "parameter", "paper class", "instances", "status"}, rows))

	// Part 2: the empirical exponent of generic clique-query evaluation.
	fmt.Fprintln(w, "\nEmpirical data-complexity exponent of the generic evaluator")
	fmt.Fprintln(w, "on the k-clique query over Turán graphs T(n,k−1) (no k-clique,")
	fmt.Fprintln(w, "maximal near-cliques → full search):")
	sizes := map[int][]int{
		3: {30, 45, 68, 100},
		4: {16, 24, 36},
		5: {10, 14, 20},
	}
	if quick {
		sizes = map[int][]int{3: {20, 30, 45}, 4: {10, 15, 22}, 5: {8, 11, 15}}
	}
	var erows [][]string
	for _, k := range []int{3, 4, 5} {
		var s bench.Series
		for _, n := range sizes[k] {
			g := turan(n, k-1)
			q, db := reductions.CliqueToCQ(g, k)
			secs := bench.Seconds(10*time.Millisecond, func() {
				ok, err := runBool(eval.Compile(q, db, serialEval, nil))
				if err != nil || ok {
					panic(fmt.Sprintf("turán graph should have no %d-clique: %v %v", k, ok, err))
				}
			})
			s.Add(float64(n), secs)
		}
		last := s.Points[len(s.Points)-1]
		erows = append(erows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%v", sizes[k]),
			bench.FmtSeconds(last.Y),
			bench.FmtFloat(s.Slope()),
			fmt.Sprintf("≈%d (paper: k in the exponent)", k),
		})
	}
	fmt.Fprint(w, bench.Table([]string{"k", "n sweep", "time @max n", "measured slope", "expected"}, erows))
}

// turan builds the Turán graph T(n,r): complete r-partite, no (r+1)-clique.
func turan(n, r int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if u%r != v%r {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func checkCliqueLower(rnd *rand.Rand, sweep int) int {
	agree := 0
	for i := 0; i < sweep; i++ {
		g := graph.Random(6+rnd.Intn(8), 0.3+0.5*rnd.Float64(), rnd.Int63())
		k := 2 + rnd.Intn(3)
		q, db := reductions.CliqueToCQ(g, k)
		got, err := runBool(eval.Compile(q, db, serialEval, nil))
		if err == nil && got == g.HasClique(k) {
			agree++
		}
	}
	return agree
}

func checkCQ2CNF(rnd *rand.Rand, sweep int) int {
	agree := 0
	for i := 0; i < sweep; i++ {
		q, db := randBoolCQ(rnd)
		want, err := runBool(eval.Compile(q, db, serialEval, nil))
		if err != nil {
			agree++ // nothing to validate
			continue
		}
		red, err := reductions.CQToWeighted2CNF(q, db)
		if err != nil {
			continue
		}
		if _, got := red.Formula.WeightedSatisfiable(red.K); got == want {
			agree++
		}
	}
	return agree
}

func checkBoundedVars(rnd *rand.Rand, sweep int) int {
	agree := 0
	for i := 0; i < sweep; i++ {
		q, db := randBoolCQ(rnd)
		want, err := run(eval.Compile(q, db, serialEval, nil))
		if err != nil {
			agree++
			continue
		}
		q2, db2, err := reductions.BoundedVars(q, db)
		if err != nil {
			continue
		}
		got, err := run(eval.Compile(q2, db2, serialEval, nil))
		if err == nil && relation.EqualSet(got, want) {
			agree++
		}
	}
	return agree
}

func checkPositiveUCQ(rnd *rand.Rand, sweep int) int {
	agree := 0
	for i := 0; i < sweep; i++ {
		fo, db := randPositive(rnd)
		want, err := eval.PositiveBool(fo, db)
		if err != nil {
			agree++
			continue
		}
		cqs, err := reductions.PositiveToUCQ(fo)
		if err != nil {
			continue
		}
		got := false
		for _, cq := range cqs {
			if ok, err := runBool(eval.Compile(cq, db, serialEval, nil)); err == nil && ok {
				got = true
				break
			}
		}
		g, k, err := reductions.PositiveToClique(fo, db)
		if err != nil {
			continue
		}
		if got == want && g.HasClique(k) == want {
			agree++
		}
	}
	return agree
}

func checkWFormula(rnd *rand.Rand, sweep int) int {
	agree := 0
	for i := 0; i < sweep; i++ {
		n := 2 + rnd.Intn(4)
		k := rnd.Intn(n + 1)
		phi := randBoolFormula(rnd, 3, n)
		_, want := boolcirc.WeightedSatFormula(phi, n, k)
		fo, db := reductions.WeightedFormulaToPositive(phi, n, k)
		if got, err := eval.PositiveBool(fo, db); err == nil && got == want {
			agree++
		}
	}
	return agree
}

func checkCircuitFO(rnd *rand.Rand, sweep int) int {
	agree := 0
	for i := 0; i < sweep; i++ {
		inputs := 2 + rnd.Intn(3)
		c := randMonotoneCircuit(rnd, inputs, 1+rnd.Intn(4))
		k := rnd.Intn(3)
		if k > inputs {
			k = inputs
		}
		fo, db, err := reductions.MonotoneCircuitToFO(c, k)
		if err != nil {
			continue
		}
		got, err := eval.FirstOrderBool(fo, db)
		_, want := c.WeightedSatisfiable(k)
		if err == nil && got == want {
			agree++
		}
	}
	return agree
}

// --- shared random instance builders --------------------------------------

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

func randPositive(rnd *rand.Rand) (*query.FOQuery, *query.DB) {
	nvars := 2 + rnd.Intn(2)
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
	body := build(3)
	for _, v := range query.FreeVars(body) {
		body = query.Exists{V: v, Sub: body}
	}
	db := query.NewDB()
	r := query.NewTable(2)
	for i := 0; i < rnd.Intn(8); i++ {
		r.Append(relation.Value(rnd.Intn(3)), relation.Value(rnd.Intn(3)))
	}
	r.Dedup()
	db.Set("E", r)
	return &query.FOQuery{Body: body}, db
}

func randBoolFormula(rnd *rand.Rand, depth, vars int) boolcirc.Formula {
	if depth == 0 || rnd.Intn(3) == 0 {
		return boolcirc.FVar{V: rnd.Intn(vars), Neg: rnd.Intn(2) == 0}
	}
	switch rnd.Intn(3) {
	case 0:
		return boolcirc.FNot{Sub: randBoolFormula(rnd, depth-1, vars)}
	case 1:
		return boolcirc.FAnd{Subs: []boolcirc.Formula{
			randBoolFormula(rnd, depth-1, vars), randBoolFormula(rnd, depth-1, vars)}}
	default:
		return boolcirc.FOr{Subs: []boolcirc.Formula{
			randBoolFormula(rnd, depth-1, vars), randBoolFormula(rnd, depth-1, vars)}}
	}
}

func randMonotoneCircuit(rnd *rand.Rand, inputs, extra int) *boolcirc.Circuit {
	c := boolcirc.New(inputs)
	for i := 0; i < extra; i++ {
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
	return c
}
