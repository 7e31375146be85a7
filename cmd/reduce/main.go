// Command reduce materializes the paper's reductions on concrete instances
// and cross-checks both sides, printing the constructed artifacts:
//
//	reduce -what clique2cq   -n 8 -p 0.5 -k 3 -seed 1
//	reduce -what clique2cmp  -n 6 -k 3
//	reduce -what cq22cnf     -n 8 -p 0.5 -k 3
//	reduce -what hampath     -n 6 -p 0.5
//	reduce -what circuit2fo  -k 2
//
// Useful for inspecting what the Theorem 1/3 constructions actually build.
package main

import (
	"flag"
	"fmt"
	"os"

	"pyquery"
	"pyquery/internal/boolcirc"
	"pyquery/internal/core"
	"pyquery/internal/eval"
	"pyquery/internal/graph"
	"pyquery/internal/order"
	"pyquery/internal/reductions"
)

func main() {
	what := flag.String("what", "clique2cq", "clique2cq | clique2cmp | cq22cnf | hampath | circuit2fo")
	n := flag.Int("n", 8, "graph vertices")
	p := flag.Float64("p", 0.5, "edge probability")
	k := flag.Int("k", 3, "parameter (clique size / weight)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	g := graph.Random(*n, *p, *seed)
	switch *what {
	case "clique2cq":
		q, db := reductions.CliqueToCQ(g, *k)
		fmt.Printf("graph: %v, k=%d\nquery: %v\n", g, *k, q)
		fmt.Printf("query size q=%d, variables v=%d, database %d tuples\n",
			q.Size(), q.NumVars(), db.Size())
		got, err := pyquery.EvaluateBool(q, db)
		check(err)
		fmt.Printf("query answer: %v; clique oracle: %v\n", got, g.HasClique(*k))

	case "clique2cmp":
		q, db := reductions.CliqueToComparisons(g, *k)
		fmt.Printf("graph: %v, k=%d\n", g, *k)
		fmt.Printf("query: %d atoms, %d comparisons, acyclic=%v\n",
			len(q.Atoms), len(q.Cmps), order.IsAcyclicWithComparisons(q))
		fmt.Printf("database: P=%d R=%d tuples\n", db.MustRel("P").Len(), db.MustRel("R").Len())
		got, err := pyquery.EvaluateBool(q, db)
		check(err)
		fmt.Printf("query answer: %v; clique oracle: %v\n", got, g.HasClique(*k))

	case "cq22cnf":
		q, db := reductions.CliqueToCQ(g, *k)
		red, err := reductions.CQToWeighted2CNF(q, db)
		check(err)
		fmt.Printf("query: %v\n2-CNF: %d variables, %d clauses, target weight %d\n",
			q, red.Formula.NumVars, len(red.Formula.Clauses), red.K)
		assign, ok := red.Formula.WeightedSatisfiable(red.K)
		fmt.Printf("weighted 2-CNF: sat=%v; clique oracle: %v\n", ok, g.HasClique(*k))
		if ok {
			fmt.Printf("decoded witness: %v\n", red.Decode(assign))
		}

	case "hampath":
		q, db := reductions.HamPathToIneqCQ(g)
		fmt.Printf("graph: %v\nquery: %d atoms, %d inequalities (acyclic-with-≠: %v)\n",
			g, len(q.Atoms), len(q.Ineqs), core.IsAcyclicWithIneqs(q))
		got, err := pyquery.EvaluateBool(q, db)
		check(err)
		_, want := g.HamiltonianPath()
		fmt.Printf("query answer: %v; Held–Karp oracle: %v\n", got, want)

	case "circuit2fo":
		// A fixed illustrative circuit: OR(AND(x0,x1), AND(x1,x2)).
		c := boolcirc.New(3)
		a1 := c.AddGate(boolcirc.And, 0, 1)
		a2 := c.AddGate(boolcirc.And, 1, 2)
		c.SetOutput(c.AddGate(boolcirc.Or, a1, a2))
		fo, db, err := reductions.MonotoneCircuitToFO(c, *k)
		check(err)
		fmt.Printf("circuit: %v, k=%d\nFO query: %v\n", c, *k, fo)
		fmt.Printf("wiring relation: %d tuples\n", db.MustRel("C").Len())
		got, err := eval.FirstOrderBool(fo, db)
		check(err)
		_, want := c.WeightedSatisfiable(*k)
		fmt.Printf("query answer: %v; circuit oracle: %v\n", got, want)

	default:
		fmt.Fprintf(os.Stderr, "reduce: unknown -what %q\n", *what)
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reduce:", err)
		os.Exit(1)
	}
}
