package core

import (
	"context"

	"pyquery/internal/query"
	"pyquery/internal/relation"
)

// The helpers reach the engine the only way there is: Compile, then one
// ungoverned execution; the *Stats forms also read the program's statistics.

func runStats(q *query.CQ, db *query.DB, opts Options) (*relation.Relation, Stats, error) {
	pr, err := Compile(q, db, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	res, err := pr.Exec(context.Background(), nil, nil)
	return res, pr.Stats(), err
}

func runBoolStats(q *query.CQ, db *query.DB, opts Options) (bool, Stats, error) {
	pr, err := Compile(q, db, opts)
	if err != nil {
		return false, Stats{}, err
	}
	ok, err := pr.ExecBool(context.Background(), nil, nil)
	return ok, pr.Stats(), err
}

func run(q *query.CQ, db *query.DB, opts Options) (*relation.Relation, error) {
	res, _, err := runStats(q, db, opts)
	return res, err
}

func runBool(q *query.CQ, db *query.DB, opts Options) (bool, error) {
	ok, _, err := runBoolStats(q, db, opts)
	return ok, err
}

// decide answers t ∈ Q(d) in the paper's sense: substitute the constants of
// t into the body, then run the emptiness test on the bound query.
func decide(q *query.CQ, db *query.DB, t []relation.Value, opts Options) (bool, error) {
	bound, err := q.BindHead(t)
	if query.IsTrivialMismatch(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return runBool(bound, db, opts)
}
