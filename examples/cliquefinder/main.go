// Cliquefinder demonstrates the Theorem 1 and Theorem 3 reductions as an
// application: finding cliques by asking database queries. It plants a
// clique in a random graph, encodes k-clique as (a) a conjunctive query and
// (b) an acyclic query with comparisons, evaluates both, and decodes a
// witness from the weighted 2-CNF side of the reduction.
package main

import (
	"fmt"
	"log"

	"pyquery"
	"pyquery/internal/graph"
	"pyquery/internal/order"
	"pyquery/internal/reductions"
)

func main() {
	const n, k = 30, 4
	g, planted := graph.PlantedClique(n, 0.25, k, 2024)
	fmt.Printf("graph: %v with a planted %d-clique at %v\n\n", g, k, planted)

	// (a) Theorem 1: the clique query P ← ⋀ G(xi,xj).
	q, db := reductions.CliqueToCQ(g, k)
	fmt.Printf("conjunctive query (%d atoms, %d vars): %v\n", len(q.Atoms), q.NumVars(), q)
	ok, err := pyquery.EvaluateBool(q, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query says %d-clique exists: %v (oracle: %v)\n\n", k, ok, g.HasClique(k))

	// Upper-bound direction: the same question as weighted 2-CNF, with a
	// decoded witness.
	red, err := reductions.CQToWeighted2CNF(q, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("as weighted 2-CNF: %d vars, %d clauses, weight %d\n",
		red.Formula.NumVars, len(red.Formula.Clauses), red.K)
	if assign, sat := red.Formula.WeightedSatisfiable(red.K); sat {
		inst := red.Decode(assign)
		clique := make([]int, 0, k)
		seen := map[int]bool{}
		for _, v := range inst {
			if !seen[int(v)] {
				seen[int(v)] = true
				clique = append(clique, int(v))
			}
		}
		fmt.Printf("decoded clique: %v (valid: %v)\n\n", clique, g.IsClique(clique))
	}

	// (b) Theorem 3: k-clique as an acyclic query with < comparisons.
	qc, dbc := reductions.CliqueToComparisons(g, k)
	fmt.Printf("comparison query: %d atoms, %d comparisons, acyclic=%v, |db|=%d\n",
		len(qc.Atoms), len(qc.Cmps), order.IsAcyclicWithComparisons(qc), dbc.Size())
	ok, err = pyquery.EvaluateBool(qc, dbc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("comparison query says %d-clique exists: %v\n", k, ok)
	fmt.Println("\n(the point of Theorem 3: even acyclic queries become W[1]-hard")
	fmt.Println("once order comparisons are allowed — contrast with ≠, Theorem 2)")
}
