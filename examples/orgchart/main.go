// Orgchart evaluates the paper's "more than one project" query on a
// generated org chart at increasing scale, comparing the Theorem 2
// color-coding engine against the generic n^O(q) backtracking baseline —
// experiment E5 in miniature.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"pyquery"
	"pyquery/internal/bench"
	"pyquery/internal/eval"
	"pyquery/internal/relation"
	"pyquery/internal/workload"
)

func main() {
	q := workload.MultiProjectQuery()
	fmt.Println(pyquery.Explain(q))
	fmt.Println()

	var rows [][]string
	for _, n := range []int{500, 1000, 2000, 4000} {
		db := workload.OrgChart(n, 40, 3, 42)

		var coreRes *relation.Relation
		tCore := bench.Seconds(10*time.Millisecond, func() {
			var err error
			coreRes, err = pyquery.EvaluateOpts(q, db, pyquery.Options{NoCache: true})
			if err != nil {
				log.Fatal(err)
			}
		})
		var genRes *relation.Relation
		tGen := bench.Seconds(10*time.Millisecond, func() {
			bt, err := eval.Compile(q, db, eval.Options{}, nil)
			if err != nil {
				log.Fatal(err)
			}
			if genRes, err = bt.Exec(context.Background(), nil, nil); err != nil {
				log.Fatal(err)
			}
		})
		if !relation.EqualSet(coreRes, genRes) {
			log.Fatal("engines disagree")
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", db.Size()),
			fmt.Sprintf("%d", coreRes.Len()),
			bench.FmtSeconds(tCore), bench.FmtSeconds(tGen),
		})
	}
	fmt.Print(bench.Table(
		[]string{"employees", "|db|", "|answer|", "color-coding", "generic"}, rows))
}
