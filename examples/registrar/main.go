// Registrar runs the paper's second Section 5 example — students taking
// courses outside their department — and shows what the Theorem 2 engine
// does under the hood: the I₁/I₂ partition, the hash range k, and the
// family it chose.
package main

import (
	"fmt"
	"log"

	"pyquery"
	"pyquery/internal/core"
	"pyquery/internal/workload"
)

func main() {
	db := workload.Registrar(2000, 60, 8, 3, 7)
	q := workload.OutsideDeptQuery()

	fmt.Println("query:", q)
	fmt.Println()
	fmt.Println(pyquery.Explain(q))

	res, stats, err := pyquery.EvaluateStats(q, db, pyquery.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d students take courses outside their department (of %d)\n",
		res.Len(), 2000)
	fmt.Printf("engine stats: k=%d, |I1|=%d, |I2|=%d, hash family size=%d, nonempty runs=%d\n",
		stats.K, stats.I1, stats.I2, stats.FamilySize, stats.Successes)

	// Force the Monte-Carlo family and verify agreement.
	mc, mcStats, err := pyquery.EvaluateStats(q, db, pyquery.Options{
		Strategy: core.MonteCarlo, C: 3, Seed: 99,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monte-carlo (c=3): %d answers with %d trials — %s\n",
		mc.Len(), mcStats.FamilySize,
		map[bool]string{true: "matches the exact family", false: "MISSED tuples (rerun with higher c)"}[mc.Len() == res.Len()])
}
