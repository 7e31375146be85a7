// Package workload generates the synthetic databases and query families
// used by the experiments: the paper's Section 5 org-chart and registrar
// examples at controllable scale, random graph databases, path/star query
// families with controllable inequality load, and random acyclic queries
// (ear construction). All generators are seeded and deterministic.
package workload

import (
	"math/rand"

	"pyquery/internal/query"
	"pyquery/internal/relation"
)

// OrgChart builds the employee–project database of the paper's first
// Section 5 example: EP(employee, project), each employee assigned to
// 1…maxAssign random projects. Employees are 0…nEmp−1; projects are
// 10⁶…10⁶+nProj−1 (disjoint value ranges keep hashes honest).
func OrgChart(nEmp, nProj, maxAssign int, seed int64) *query.DB {
	rnd := rand.New(rand.NewSource(seed))
	db := query.NewDB()
	ep := query.NewTable(2)
	for e := 0; e < nEmp; e++ {
		k := 1 + rnd.Intn(maxAssign)
		for i := 0; i < k; i++ {
			p := 1_000_000 + rnd.Intn(nProj)
			ep.Append(relation.Value(e), relation.Value(p))
		}
	}
	ep.Dedup()
	db.Set("EP", ep)
	return db
}

// MultiProjectQuery is the paper's query "find the employees that work on
// more than one project": G(e) ← EP(e,p), EP(e,p′), p ≠ p′.
func MultiProjectQuery() *query.CQ {
	return &query.CQ{
		Head: []query.Term{query.V(0)},
		Atoms: []query.Atom{
			query.NewAtom("EP", query.V(0), query.V(1)),
			query.NewAtom("EP", query.V(0), query.V(2)),
		},
		Ineqs:    []query.Ineq{query.NeqVars(1, 2)},
		VarNames: []string{"e", "p", "p2"},
	}
}

// Registrar builds the student–course–department database of the paper's
// second example: SD(student, dept), SC(student, course), CD(course, dept).
// Students 0…, courses 10⁶…, departments 2·10⁶….
func Registrar(nStud, nCourse, nDept, coursesPer int, seed int64) *query.DB {
	rnd := rand.New(rand.NewSource(seed))
	db := query.NewDB()
	sd := query.NewTable(2)
	sc := query.NewTable(2)
	cd := query.NewTable(2)
	dept := func(i int) relation.Value { return relation.Value(2_000_000 + i) }
	course := func(i int) relation.Value { return relation.Value(1_000_000 + i) }
	for c := 0; c < nCourse; c++ {
		cd.Append(course(c), dept(rnd.Intn(nDept)))
	}
	for s := 0; s < nStud; s++ {
		sd.Append(relation.Value(s), dept(rnd.Intn(nDept)))
		for i := 0; i < 1+rnd.Intn(coursesPer); i++ {
			sc.Append(relation.Value(s), course(rnd.Intn(nCourse)))
		}
	}
	sd.Dedup()
	sc.Dedup()
	cd.Dedup()
	db.Set("SD", sd)
	db.Set("SC", sc)
	db.Set("CD", cd)
	return db
}

// OutsideDeptQuery is "find the students that take courses outside their
// department": G(s) ← SD(s,d), SC(s,c), CD(c,d′), d ≠ d′.
func OutsideDeptQuery() *query.CQ {
	return &query.CQ{
		Head: []query.Term{query.V(0)},
		Atoms: []query.Atom{
			query.NewAtom("SD", query.V(0), query.V(1)),
			query.NewAtom("SC", query.V(0), query.V(2)),
			query.NewAtom("CD", query.V(2), query.V(3)),
		},
		Ineqs:    []query.Ineq{query.NeqVars(1, 3)},
		VarNames: []string{"s", "d", "c", "d2"},
	}
}

// GraphDB wraps a directed edge set as a database {E(·,·)}.
func GraphDB(nNodes, nEdges int, seed int64) *query.DB {
	rnd := rand.New(rand.NewSource(seed))
	db := query.NewDB()
	e := query.NewTable(2)
	for i := 0; i < nEdges; i++ {
		e.Append(relation.Value(rnd.Intn(nNodes)), relation.Value(rnd.Intn(nNodes)))
	}
	e.Dedup()
	db.Set("E", e)
	return db
}

// PathQuery is the Boolean k-path query G() ← E(x₀,x₁), …, E(x_{k−1},x_k):
// acyclic, k+1 variables.
func PathQuery(k int) *query.CQ {
	q := &query.CQ{}
	for i := 0; i < k; i++ {
		q.Atoms = append(q.Atoms, query.NewAtom("E", query.V(query.Var(i)), query.V(query.Var(i+1))))
	}
	return q
}

// SimplePathQuery is PathQuery plus all-pairs inequalities — the k-simple-
// path query whose tractability is the Monien/color-coding special case the
// paper cites. All non-adjacent pairs land in I₁.
func SimplePathQuery(k int) *query.CQ {
	q := PathQuery(k)
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			q.Ineqs = append(q.Ineqs, query.NeqVars(query.Var(i), query.Var(j)))
		}
	}
	return q
}

// EndpointsDistinctPathQuery is PathQuery plus the single inequality
// x₀ ≠ x_k — the minimal I₁ load (k = 2 hash colors).
func EndpointsDistinctPathQuery(k int) *query.CQ {
	q := PathQuery(k)
	q.Ineqs = []query.Ineq{query.NeqVars(0, query.Var(k))}
	return q
}

// StarQuery returns G(x₀) ← E(x₀,x₁), …, E(x₀,x_k) with pairwise-distinct
// leaves: leaves never co-occur, so all (k choose 2) inequalities are I₁.
func StarQuery(k int) *query.CQ {
	q := &query.CQ{Head: []query.Term{query.V(0)}}
	for i := 1; i <= k; i++ {
		q.Atoms = append(q.Atoms, query.NewAtom("E", query.V(0), query.V(query.Var(i))))
	}
	for i := 1; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			q.Ineqs = append(q.Ineqs, query.NeqVars(query.Var(i), query.Var(j)))
		}
	}
	return q
}

// RandomAcyclicCQ builds a random acyclic conjunctive query by ear
// construction (every atom shares variables with one earlier atom) plus a
// matching database; optionally with random inequalities. Relations are
// named A, B, C, … in atom order.
type AcyclicSpec struct {
	MaxAtoms   int // ≥ 1
	MaxFresh   int // fresh vars per atom, ≥ 1
	Domain     int
	MaxRows    int
	IneqPairs  int  // random x≠y atoms
	IneqConsts int  // random x≠c atoms
	HeadVars   bool // project a random subset of vars
}

// RandomAcyclicCQ generates (query, database) from the spec.
func RandomAcyclicCQ(rnd *rand.Rand, spec AcyclicSpec) (*query.CQ, *query.DB) {
	db := query.NewDB()
	nAtoms := 1 + rnd.Intn(spec.MaxAtoms)
	q := &query.CQ{}
	nextVar := query.Var(0)
	atomVars := make([][]query.Var, 0, nAtoms)
	for i := 0; i < nAtoms; i++ {
		var vars []query.Var
		if i > 0 {
			parent := atomVars[rnd.Intn(len(atomVars))]
			for _, v := range parent {
				if rnd.Intn(2) == 0 {
					vars = append(vars, v)
				}
			}
		}
		for f := 0; f < 1+rnd.Intn(spec.MaxFresh); f++ {
			vars = append(vars, nextVar)
			nextVar++
		}
		atomVars = append(atomVars, vars)
	}
	for i, vars := range atomVars {
		name := string(rune('A' + i))
		r := query.NewTable(len(vars))
		row := make([]relation.Value, len(vars))
		for j := 0; j < 1+rnd.Intn(spec.MaxRows); j++ {
			for c := range row {
				row[c] = relation.Value(rnd.Intn(spec.Domain))
			}
			r.Append(row...)
		}
		r.Dedup()
		db.Set(name, r)
		args := make([]query.Term, len(vars))
		for j, v := range vars {
			args[j] = query.V(v)
		}
		q.Atoms = append(q.Atoms, query.Atom{Rel: name, Args: args})
	}
	all := q.BodyVars()
	if spec.HeadVars {
		for _, v := range all {
			if rnd.Intn(3) == 0 {
				q.Head = append(q.Head, query.V(v))
			}
		}
	}
	for i := 0; i < spec.IneqPairs && len(all) >= 2; i++ {
		x, y := all[rnd.Intn(len(all))], all[rnd.Intn(len(all))]
		if x != y {
			q.Ineqs = append(q.Ineqs, query.NeqVars(x, y))
		}
	}
	for i := 0; i < spec.IneqConsts && len(all) >= 1; i++ {
		q.Ineqs = append(q.Ineqs,
			query.NeqConst(all[rnd.Intn(len(all))], relation.Value(rnd.Intn(spec.Domain))))
	}
	return q, db
}

// CycleQuery is the n-cycle join G(x0, x_{n/2}) ← E(x0,x1), …, E(x_{n−1},x0):
// cyclic for n ≥ 3 but generalized hypertree width 2 (opposite arcs pair
// into bags), so it routes to the decomposition engine while the
// backtracker pays the n^O(q) cycle exponent. The two-variable head forces
// full enumeration (no early exit).
func CycleQuery(n int) *query.CQ {
	q := &query.CQ{Head: []query.Term{query.V(0), query.V(query.Var(n / 2))}}
	for i := 0; i < n; i++ {
		q.Atoms = append(q.Atoms, query.NewAtom("E", query.V(query.Var(i)), query.V(query.Var((i+1)%n))))
	}
	return q
}

// ThetaQuery joins p internally-disjoint directed s→t paths of length ℓ
// through E (the "theta" multigraph): G(s,t) ← p·ℓ atoms. Cyclic for
// p ≥ 2 yet width 2 at every size — each path becomes a chain of bags
// hanging off one (s,…,t) bag — so it is the tunable-size axis of the
// cyclic low-width family (CycleQuery's length, or chords, tune width).
func ThetaQuery(paths, pathLen int) *query.CQ {
	s, t := query.Var(0), query.Var(1)
	q := &query.CQ{Head: []query.Term{query.V(s), query.V(t)}}
	next := query.Var(2)
	for p := 0; p < paths; p++ {
		prev := s
		for step := 0; step < pathLen-1; step++ {
			q.Atoms = append(q.Atoms, query.NewAtom("E", query.V(prev), query.V(next)))
			prev = next
			next++
		}
		q.Atoms = append(q.Atoms, query.NewAtom("E", query.V(prev), query.V(t)))
	}
	return q
}

// CyclicLowWidthSpec configures the CyclicLowWidth generator: either an
// n-cycle (CycleLen ≥ 3, optionally Chords extra atoms x_i→x_{i+2} raising
// the effective width) or a theta join (Paths ≥ 2 s→t paths of PathLen
// atoms), over a random digraph with Nodes vertices and average out-degree
// Degree. Degree ≫ 1 is the regime where bag materialization (≈|E|·Degree
// tuples per width-2 bag) beats the backtracker's ≈|E|·Degree^(q−2)
// enumeration.
type CyclicLowWidthSpec struct {
	CycleLen, Chords int
	Paths, PathLen   int
	Nodes, Degree    int
	Seed             int64
}

// CyclicLowWidth generates (query, database) from the spec — the E8/A6
// workload for the decomposition engine's routing class.
func CyclicLowWidth(spec CyclicLowWidthSpec) (*query.CQ, *query.DB) {
	var q *query.CQ
	if spec.CycleLen >= 3 {
		q = CycleQuery(spec.CycleLen)
		for c := 0; c < spec.Chords; c++ {
			i := (2 * c) % spec.CycleLen
			q.Atoms = append(q.Atoms, query.NewAtom("E",
				query.V(query.Var(i)), query.V(query.Var((i+2)%spec.CycleLen))))
		}
	} else {
		q = ThetaQuery(spec.Paths, spec.PathLen)
	}
	return q, GraphDB(spec.Nodes, spec.Nodes*spec.Degree, spec.Seed)
}

// TriangleQuery is the directed-triangle join with full-variable head
// G(x,y,z) ← E(x,y), E(y,z), E(z,x): the smallest cyclic query, and the
// canonical worst-case-optimal-join workload (AGM bound |E|^{3/2} vs the
// backtracker's quadratic blowup on skewed graphs).
func TriangleQuery() *query.CQ {
	return &query.CQ{
		Head: []query.Term{query.V(0), query.V(1), query.V(2)},
		Atoms: []query.Atom{
			query.NewAtom("E", query.V(0), query.V(1)),
			query.NewAtom("E", query.V(1), query.V(2)),
			query.NewAtom("E", query.V(2), query.V(0)),
		},
	}
}

// CliqueQuery is the k-clique join with full-variable head: one E(x_i,x_j)
// atom per ordered pair i < j. Cyclic for k ≥ 3 with (k choose 2) atoms —
// the high-width end of the E10 worst-case-optimal family.
func CliqueQuery(k int) *query.CQ {
	q := &query.CQ{}
	for i := 0; i < k; i++ {
		q.Head = append(q.Head, query.V(query.Var(i)))
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			q.Atoms = append(q.Atoms, query.NewAtom("E", query.V(query.Var(i)), query.V(query.Var(j))))
		}
	}
	return q
}

// HubGraphDB is the skewed instance of the E10 family: one hub wired to
// leaves bidirectionally (maximal degree skew — the hub's frequency is
// ~half the edge list) plus a small bidirectional clique so triangle and
// k-clique queries have nonempty answers. A backtracker binding an edge
// into the hub then scans the hub's whole neighborhood per candidate
// (Θ(leaves²) over the query), while the leapfrog intersection meets each
// neighborhood list with a binary search. Deterministic, no seed.
func HubGraphDB(leaves, clique int) *query.DB {
	db := query.NewDB()
	e := query.NewTable(2)
	for i := 1; i <= leaves; i++ {
		e.Append(relation.Value(0), relation.Value(i))
		e.Append(relation.Value(i), relation.Value(0))
	}
	cnode := func(i int) relation.Value { return relation.Value(1_000_000 + i) }
	for i := 0; i < clique; i++ {
		for j := 0; j < clique; j++ {
			if i != j {
				e.Append(cnode(i), cnode(j))
			}
		}
	}
	db.Set("E", e)
	return db
}

// CompleteDigraphDB returns the complete digraph with self-loops — the
// worst case for the Vardi family (E7).
func CompleteDigraphDB(n int) *query.DB {
	db := query.NewDB()
	e := query.NewTable(2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			e.Append(relation.Value(i), relation.Value(j))
		}
	}
	db.Set("E", e)
	return db
}

// DeadEndPathDB is the adversarial instance for generic evaluation of the
// simple k-path query: k dense layers of the given width (complete
// bipartite between consecutive layers) whose last layer has no outgoing
// edges, plus one isolated edge so the final atom is nonempty. Backtracking
// must enumerate ~width^(k-1) prefixes before concluding "no k-path", while
// the Theorem 2 engine's joins stay linear in the database.
func DeadEndPathDB(width, k int) *query.DB {
	db := query.NewDB()
	e := query.NewTable(2)
	node := func(layer, i int) relation.Value { return relation.Value(layer*width + i) }
	for l := 0; l+1 < k; l++ { // layers 0..k-1; no edges leave layer k-1
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				e.Append(node(l, i), node(l+1, j))
			}
		}
	}
	// The isolated edge keeps every atom satisfiable in isolation.
	e.Append(relation.Value(1_000_000), relation.Value(1_000_001))
	db.Set("E", e)
	return db
}

// LayeredPathDB builds an ℓ-layered digraph (w nodes per layer, every node
// wired to d random nodes of the next layer) — path queries over it have
// answers but no short cycles, which keeps the k-path family honest.
func LayeredPathDB(layers, width, outDeg int, seed int64) *query.DB {
	rnd := rand.New(rand.NewSource(seed))
	db := query.NewDB()
	e := query.NewTable(2)
	node := func(layer, i int) relation.Value { return relation.Value(layer*width + i) }
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for d := 0; d < outDeg; d++ {
				e.Append(node(l, i), node(l+1, rnd.Intn(width)))
			}
		}
	}
	e.Dedup()
	db.Set("E", e)
	return db
}
