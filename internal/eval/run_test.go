package eval

import (
	"context"

	"pyquery/internal/query"
	"pyquery/internal/relation"
)

// run and runBool reach the backtracker the only way there is: Compile,
// then one ungoverned execution.
func run(q *query.CQ, db *query.DB, opts Options) (*relation.Relation, error) {
	c, err := Compile(q, db, opts, nil)
	if err != nil {
		return nil, err
	}
	return c.Exec(context.Background(), nil, nil)
}

func runBool(q *query.CQ, db *query.DB, opts Options) (bool, error) {
	c, err := Compile(q, db, opts, nil)
	if err != nil {
		return false, err
	}
	return c.ExecBool(context.Background(), nil, nil)
}
