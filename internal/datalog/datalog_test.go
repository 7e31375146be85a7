package datalog

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pyquery/internal/query"
	"pyquery/internal/relation"
)

func edgeDB(edges ...[2]int) *query.DB {
	db := query.NewDB()
	r := query.NewTable(2)
	for _, e := range edges {
		r.Append(relation.Value(e[0]), relation.Value(e[1]))
	}
	db.Set("E", r)
	return db
}

func TestReachabilityPath(t *testing.T) {
	db := edgeDB([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3})
	p := Reachability()
	goal, stats, err := EvalGoal(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Reach = all pairs (i,j) with i<j on the path: 6 pairs.
	if goal.Len() != 6 {
		t.Fatalf("reach size = %d, want 6\n%v", goal.Len(), goal)
	}
	if !goal.Contains([]relation.Value{0, 3}) {
		t.Fatal("0 should reach 3")
	}
	if goal.Contains([]relation.Value{3, 0}) {
		t.Fatal("3 must not reach 0")
	}
	if stats.Rounds < 3 {
		t.Fatalf("a 3-hop chain needs ≥3 rounds, got %d", stats.Rounds)
	}
}

func TestReachabilityCycle(t *testing.T) {
	db := edgeDB([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0})
	goal, _, err := EvalGoal(Reachability(), db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if goal.Len() != 9 {
		t.Fatalf("cycle closure = %d pairs, want 9", goal.Len())
	}
}

func TestNaiveMatchesSemiNaive(t *testing.T) {
	db := edgeDB([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 1})
	p := Reachability()
	semi, _, err := EvalGoal(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, _, err := EvalGoal(p, db, Options{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.EqualSet(semi, naive) {
		t.Fatalf("strategies disagree:\n%v\nvs\n%v", semi, naive)
	}
}

func TestSameGeneration(t *testing.T) {
	// Par(child, parent): two siblings under a common root, and a grandchild.
	db := query.NewDB()
	db.Set("Par", query.Table(2,
		[]relation.Value{1, 0}, // 1's parent is 0
		[]relation.Value{2, 0}, // 2's parent is 0
		[]relation.Value{3, 1}, // 3's parent is 1
		[]relation.Value{4, 2}, // 4's parent is 2
	))
	goal, _, err := EvalGoal(SameGeneration(), db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !goal.Contains([]relation.Value{1, 2}) {
		t.Fatal("siblings 1,2 are same generation")
	}
	if !goal.Contains([]relation.Value{3, 4}) {
		t.Fatal("cousins 3,4 are same generation")
	}
	if goal.Contains([]relation.Value{1, 3}) {
		t.Fatal("parent/child are not same generation")
	}
}

func TestValidate(t *testing.T) {
	db := edgeDB([2]int{0, 1})
	// Goal not defined.
	bad := &Program{Rules: Reachability().Rules, Goal: "Nope"}
	if err := bad.Validate(db); err == nil {
		t.Fatal("undefined goal accepted")
	}
	// IDB colliding with EDB.
	coll := &Program{Rules: []Rule{{Head: query.NewAtom("E", query.V(0), query.V(1)),
		Body: []query.Atom{query.NewAtom("E", query.V(0), query.V(1))}}}, Goal: "E"}
	if err := coll.Validate(db); err == nil {
		t.Fatal("IDB/EDB collision accepted")
	}
	// Unsafe head variable.
	unsafe := &Program{Rules: []Rule{{Head: query.NewAtom("T", query.V(9)),
		Body: []query.Atom{query.NewAtom("E", query.V(0), query.V(1))}}}, Goal: "T"}
	if err := unsafe.Validate(db); err == nil {
		t.Fatal("unsafe rule accepted")
	}
	// Unknown body relation.
	unk := &Program{Rules: []Rule{{Head: query.NewAtom("T", query.V(0)),
		Body: []query.Atom{query.NewAtom("Z", query.V(0))}}}, Goal: "T"}
	if err := unk.Validate(db); err == nil {
		t.Fatal("unknown body relation accepted")
	}
	// Inconsistent IDB arity.
	inc := &Program{Rules: []Rule{
		{Head: query.NewAtom("T", query.V(0)), Body: []query.Atom{query.NewAtom("E", query.V(0), query.V(1))}},
		{Head: query.NewAtom("T", query.V(0), query.V(1)), Body: []query.Atom{query.NewAtom("T", query.V(0)), query.NewAtom("E", query.V(0), query.V(1))}},
	}, Goal: "T"}
	if err := inc.Validate(db); err == nil {
		t.Fatal("inconsistent arity accepted")
	}
	// EDB atom arity mismatch.
	arity := &Program{Rules: []Rule{{Head: query.NewAtom("T", query.V(0)),
		Body: []query.Atom{query.NewAtom("E", query.V(0))}}}, Goal: "T"}
	if err := arity.Validate(db); err == nil {
		t.Fatal("EDB arity mismatch accepted")
	}
}

// completeDigraph returns the complete digraph with self-loops on n nodes.
func completeDigraph(n int) *query.DB {
	db := query.NewDB()
	r := query.NewTable(2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r.Append(relation.Value(i), relation.Value(j))
		}
	}
	db.Set("E", r)
	return db
}

func TestVardiFamilyCounts(t *testing.T) {
	// On the complete digraph with loops, |T| = n^k exactly (E7's claim).
	for _, tc := range []struct{ n, k int }{
		{2, 1}, {3, 1}, {2, 2}, {3, 2}, {4, 2}, {2, 3}, {3, 3},
	} {
		p := VardiFamily(tc.k)
		db := completeDigraph(tc.n)
		goal, _, err := EvalGoal(p, db, Options{})
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		want := 1
		for i := 0; i < tc.k; i++ {
			want *= tc.n
		}
		if goal.Len() != want {
			t.Fatalf("n=%d k=%d: |T| = %d, want n^k = %d", tc.n, tc.k, goal.Len(), want)
		}
	}
}

// TestEvalCancelStopsRunningFiring: a cancel must stop the rule firing
// that is running, not only the next one. On the two-layer graph A⇄B
// (|A| = 1000, |B| = 12) VardiFamily(2)'s seed round copies the 24 000
// edges in a few milliseconds, and its first slide firing derives
// |A|²·|B| = 12 M tuples — hundreds of milliseconds, over 20× the cancel
// delay — so an evaluation that only polls between firings returns long
// after the cancel.
func TestEvalCancelStopsRunningFiring(t *testing.T) {
	const a, b = 1000, 12
	db := query.NewDB()
	e := query.NewTable(2)
	for i := 0; i < a; i++ {
		for j := a; j < a+b; j++ {
			e.Append(relation.Value(i), relation.Value(j))
			e.Append(relation.Value(j), relation.Value(i))
		}
	}
	db.Set("E", e)
	const delay = 10 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(delay, cancel)
	start := time.Now()
	_, _, err := EvalGoal(VardiFamily(2), db, Options{Parallelism: 1, Ctx: ctx})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if elapsed > 10*delay {
		t.Fatalf("canceled after %v but returned after %v: the running firing ignored the cancel", delay, elapsed)
	}
}

func TestVardiFamilyValidatesAndMaxArity(t *testing.T) {
	p := VardiFamily(3)
	db := completeDigraph(2)
	if err := p.Validate(db); err != nil {
		t.Fatalf("VardiFamily(3) invalid: %v", err)
	}
	if got := p.MaxArity(db); got != 3 {
		t.Fatalf("MaxArity = %d, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("VardiFamily(0) should panic")
		}
	}()
	VardiFamily(0)
}

// bfsReach computes reachability pairs by BFS — the oracle.
func bfsReach(n int, edges [][2]int) map[[2]int]bool {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	out := make(map[[2]int]bool)
	for s := 0; s < n; s++ {
		seen := make([]bool, n)
		queue := append([]int(nil), adj[s]...)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if seen[v] {
				continue
			}
			seen[v] = true
			out[[2]int{s, v}] = true
			queue = append(queue, adj[v]...)
		}
	}
	return out
}

// Property: Datalog transitive closure equals BFS closure, and semi-naive
// equals naive, on random digraphs.
func TestQuickReachabilityAgainstBFS(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 2 + rnd.Intn(6)
		var edges [][2]int
		for i := 0; i < rnd.Intn(12); i++ {
			edges = append(edges, [2]int{rnd.Intn(n), rnd.Intn(n)})
		}
		db := edgeDB(edges...)
		semi, _, err := EvalGoal(Reachability(), db, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		naive, _, err := EvalGoal(Reachability(), db, Options{Naive: true})
		if err != nil || !relation.EqualSet(semi, naive) {
			t.Logf("seed %d: naive/semi-naive disagree", seed)
			return false
		}
		want := bfsReach(n, edges)
		if semi.Len() != len(want) {
			t.Logf("seed %d: closure size %d, bfs %d", seed, semi.Len(), len(want))
			return false
		}
		for pair := range want {
			if !semi.Contains([]relation.Value{relation.Value(pair[0]), relation.Value(pair[1])}) {
				t.Logf("seed %d: missing pair %v", seed, pair)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(91))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
