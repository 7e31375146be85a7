package workload

import (
	"context"
	"math/rand"
	"testing"

	"pyquery/internal/core"
	"pyquery/internal/decomp"
	"pyquery/internal/eval"
	"pyquery/internal/governor"
	"pyquery/internal/relation"
	"pyquery/internal/yannakakis"
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

func TestOrgChartShape(t *testing.T) {
	db := OrgChart(50, 10, 3, 1)
	ep := db.MustRel("EP")
	if ep.Len() < 50 {
		t.Fatalf("each employee needs ≥1 assignment: %d rows", ep.Len())
	}
	q := MultiProjectQuery()
	if err := q.Validate(db); err != nil {
		t.Fatal(err)
	}
	if !yannakakis.IsAcyclic(q) {
		t.Fatal("org-chart query must be acyclic with inequalities")
	}
	res, err := run(core.Compile(q, db, core.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := run(eval.Compile(q, db, eval.Options{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualSet(res, want) {
		t.Fatal("engines disagree on org-chart")
	}
}

func TestRegistrarShape(t *testing.T) {
	db := Registrar(40, 12, 4, 3, 2)
	for _, name := range []string{"SD", "SC", "CD"} {
		if db.MustRel(name).Len() == 0 {
			t.Fatalf("relation %s empty", name)
		}
	}
	q := OutsideDeptQuery()
	if err := q.Validate(db); err != nil {
		t.Fatal(err)
	}
	res, err := run(core.Compile(q, db, core.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := run(eval.Compile(q, db, eval.Options{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualSet(res, want) {
		t.Fatal("engines disagree on registrar")
	}
}

func TestPathQueries(t *testing.T) {
	db := LayeredPathDB(6, 5, 2, 3)
	for k := 1; k <= 4; k++ {
		q := PathQuery(k)
		if !yannakakis.IsAcyclic(q) {
			t.Fatalf("path query k=%d must be acyclic", k)
		}
		ok, err := runBool(yannakakis.Compile(q, db, yannakakis.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("layered graph has a %d-path", k)
		}
	}
	// Longer than the layer count: no path.
	q := PathQuery(7)
	ok, err := runBool(yannakakis.Compile(q, db, yannakakis.Options{}))
	if err != nil || ok {
		t.Fatalf("7-path in 6 layers: %v %v", ok, err)
	}
}

func TestSimplePathQueryPartition(t *testing.T) {
	q := SimplePathQuery(3)
	i1, i2, v1, ok := core.Partition(q)
	if !ok {
		t.Fatal("partition failed")
	}
	// Adjacent pairs co-occur (I2): (0,1),(1,2),(2,3); rest I1: (0,2),(0,3),(1,3).
	if len(i2) != 3 || len(i1) != 3 {
		t.Fatalf("partition: i1=%d i2=%d", len(i1), len(i2))
	}
	if len(v1) != 4 {
		t.Fatalf("V1 = %v", v1)
	}
	e := EndpointsDistinctPathQuery(3)
	i1, _, v1, _ = core.Partition(e)
	if len(i1) != 1 || len(v1) != 2 {
		t.Fatalf("endpoint query partition: %v %v", i1, v1)
	}
}

func TestStarQuery(t *testing.T) {
	q := StarQuery(3)
	if len(q.Atoms) != 3 || len(q.Ineqs) != 3 {
		t.Fatalf("star shape: %v", q)
	}
	db := GraphDB(20, 60, 4)
	got, err := run(core.Compile(q, db, core.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := run(eval.Compile(q, db, eval.Options{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualSet(got, want) {
		t.Fatal("star query engines disagree")
	}
}

func TestRandomAcyclicCQIsAcyclic(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		q, db := RandomAcyclicCQ(rnd, AcyclicSpec{
			MaxAtoms: 4, MaxFresh: 2, Domain: 4, MaxRows: 8,
			IneqPairs: 2, IneqConsts: 1, HeadVars: true,
		})
		if !yannakakis.IsAcyclic(q) {
			t.Fatalf("iteration %d: cyclic query generated: %v", i, q)
		}
		if err := q.Validate(db); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

func TestCyclicLowWidthShapes(t *testing.T) {
	// Every shape of the family must be cyclic (the backtracker's class)
	// yet inside the decomposition engine's structural class, and both
	// engines must agree on the answer.
	specs := []CyclicLowWidthSpec{
		{CycleLen: 4, Nodes: 12, Degree: 4, Seed: 1},
		{CycleLen: 6, Nodes: 12, Degree: 4, Seed: 2},
		{CycleLen: 5, Chords: 1, Nodes: 10, Degree: 4, Seed: 3},
		{Paths: 2, PathLen: 2, Nodes: 12, Degree: 4, Seed: 4},
		{Paths: 3, PathLen: 3, Nodes: 10, Degree: 4, Seed: 5},
	}
	for i, spec := range specs {
		q, db := CyclicLowWidth(spec)
		if yannakakis.IsAcyclic(q) {
			t.Fatalf("spec %d: query is acyclic: %v", i, q)
		}
		if !decomp.Decomposable(q) {
			t.Fatalf("spec %d: not decomposable: %v", i, q)
		}
		want, err := run(eval.Compile(q, db, eval.Options{Parallelism: 1, NoReorder: true}, nil))
		if err != nil {
			t.Fatalf("spec %d backtracker: %v", i, err)
		}
		rt, err := decomp.PlanFor(q, db)
		if err != nil {
			t.Fatalf("spec %d decomp plan: %v", i, err)
		}
		got, err := run(decomp.Compile(q, rt, 1, nil))
		if err != nil {
			t.Fatalf("spec %d decomp: %v", i, err)
		}
		if !relation.EqualSet(got, want) {
			t.Fatalf("spec %d: engines disagree on %v", i, q)
		}
	}
}

func TestCompleteDigraphDB(t *testing.T) {
	db := CompleteDigraphDB(4)
	if db.MustRel("E").Len() != 16 {
		t.Fatalf("complete digraph with loops: %d", db.MustRel("E").Len())
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a := OrgChart(20, 5, 3, 7)
	b := OrgChart(20, 5, 3, 7)
	if !relation.EqualSet(a.MustRel("EP"), b.MustRel("EP")) {
		t.Fatal("OrgChart not deterministic for fixed seed")
	}
	c := OrgChart(20, 5, 3, 8)
	if relation.EqualSet(a.MustRel("EP"), c.MustRel("EP")) {
		t.Fatal("different seeds should differ (overwhelmingly)")
	}
}
