package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Everything the benchmark feeds the program is generated here from the
// seed: the same seed gives the same relations, statements and request
// sequences. The program under test only ever sees CSV text, rule text
// and HTTP bodies.

type edge struct{ a, b int }

// graph is one generated binary relation plus the adjacency the oracle
// and the request generators read. Node i renders as "n0007" when the
// relation is symbolic (wire interning and de-interning are then on the
// request path) and as the decimal integer otherwise.
type graph struct {
	rel      string
	nodes    int
	symbolic bool
	edges    []edge
	out      [][]int
	has      map[edge]bool
}

func newGraph(rel string, nodes int, symbolic bool, edges []edge) *graph {
	g := &graph{rel: rel, nodes: nodes, symbolic: symbolic, out: make([][]int, nodes), has: make(map[edge]bool, len(edges))}
	for _, e := range edges {
		g.add(e)
	}
	return g
}

func (g *graph) add(e edge) {
	g.edges = append(g.edges, e)
	g.out[e.a] = append(g.out[e.a], e.b)
	g.has[e] = true
}

// node renders node i the way the CSV and the wire carry it.
func (g *graph) node(i int) string {
	if g.symbolic {
		return fmt.Sprintf("n%04d", i)
	}
	return strconv.Itoa(i)
}

func (g *graph) csv() string {
	var b strings.Builder
	for _, e := range g.edges {
		b.WriteString(g.node(e.a))
		b.WriteByte(',')
		b.WriteString(g.node(e.b))
		b.WriteByte('\n')
	}
	return b.String()
}

// randomGraph draws m distinct directed edges over n nodes with the
// out-degrees as equal as m allows: every node gets ⌊m/n⌋ random distinct
// targets and m mod n random nodes one more. Equal out-degrees keep the
// work per request nearly the same for every key and every seed — a
// 2-path answer from x has out(x)·out(y) candidate rows whichever nodes the
// seed made hot — so runs with different seeds measure the same load.
// Every node id occurs in the CSV, and so in the server's symbol table.
// Self-loops are allowed; the ≠ shapes need them.
func randomGraph(rnd *rand.Rand, rel string, n, m int, symbolic bool) *graph {
	if m < n {
		m = n
	}
	if m > n*n {
		m = n * n
	}
	g := newGraph(rel, n, symbolic, nil)
	deg := make([]int, n)
	for a := range deg {
		deg[a] = m / n
	}
	for _, a := range rnd.Perm(n)[:m%n] {
		deg[a]++
	}
	for a, d := range deg {
		for len(g.out[a]) < d {
			if e := (edge{a, rnd.Intn(n)}); !g.has[e] {
				g.add(e)
			}
		}
	}
	return g
}

// hubGraph is the skewed instance the worst-case-optimal engine exists
// for: one hub wired both ways to every leaf, plus a small bidirectional
// clique that holds the triangles.
func hubGraph(rel string, leaves, clique int) *graph {
	g := newGraph(rel, 1+leaves+clique, false, nil)
	for i := 1; i <= leaves; i++ {
		g.add(edge{0, i})
		g.add(edge{i, 0})
	}
	for i := 0; i < clique; i++ {
		for j := 0; j < clique; j++ {
			if i != j {
				g.add(edge{1 + leaves + i, 1 + leaves + j})
			}
		}
	}
	return g
}

// freshEdges draws k distinct edges over g's nodes that g does not hold:
// the pool the churn writer inserts from.
func freshEdges(rnd *rand.Rand, g *graph, k int) []edge {
	seen := make(map[edge]bool, k)
	out := make([]edge, 0, k)
	for len(out) < k {
		e := edge{rnd.Intn(g.nodes), rnd.Intn(g.nodes)}
		if !g.has[e] && !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// shape is one of the six query classes the paper tells apart. stmt is
// the registered form over the shape's own relation (%[1]s); adhoc is the
// same body with the anchor variable x replaced by a constant (%[2]s) —
// what a library caller who inlines constants sends.
type shape struct {
	name  string
	stmt  string
	adhoc string
	ref   func(g *graph, anchor int) [][]int
}

var shapes = []shape{
	{"path2", "Q(x,z) :- %[1]s(x,y), %[1]s(y,z).", "Q(z) :- %[1]s(%[2]s,y), %[1]s(y,z).", refHop2},
	{"path-neq", "Q(x,z) :- %[1]s(x,y), %[1]s(y,z), x != z.", "Q(z) :- %[1]s(%[2]s,y), %[1]s(y,z), z != %[2]s.", refPath(func(x, z int) bool { return x != z })},
	{"path-lt", "Q(x,z) :- %[1]s(x,y), %[1]s(y,z), x < z.", "Q(z) :- %[1]s(%[2]s,y), %[1]s(y,z), %[2]s < z.", refPath(func(x, z int) bool { return x < z })},
	// Two internally disjoint x→z paths of length 2: cyclic, width 2. Under
	// homomorphism semantics both paths may coincide, so the answer is the
	// 2-path relation; the engine still does the cyclic work.
	{"theta", "Q(x,z) :- %[1]s(x,a), %[1]s(a,z), %[1]s(x,b), %[1]s(b,z).", "Q(z) :- %[1]s(%[2]s,a), %[1]s(a,z), %[1]s(%[2]s,b), %[1]s(b,z).", refHop2},
	{"tri-hub", "Q(x,y,z) :- %[1]s(x,y), %[1]s(y,z), %[1]s(z,x).", "Q(y,z) :- %[1]s(%[2]s,y), %[1]s(y,z), %[1]s(z,%[2]s).", refTriangle(false)},
	{"tri-neq", "Q(x,y,z) :- %[1]s(x,y), %[1]s(y,z), %[1]s(z,x), x != y.", "Q(y,z) :- %[1]s(%[2]s,y), %[1]s(y,z), %[1]s(z,%[2]s), y != %[2]s.", refTriangle(true)},
}

// sizes fixes every input dimension. full() is the recorded configuration
// (sized on a 2-core host so each analytic statement takes 1–5 ms and a
// round of six stays unimodal).
type sizes struct {
	graphNodes, graphEdges int               // E: serve-point, serve-churn
	shapeRel               map[string][2]int // per shape: nodes, edges (tri-hub: leaves, clique)
	hot, cold              int               // lib-adhoc text pools
	fresh                  int               // churn writer's insert pool
}

func full() sizes {
	return sizes{
		graphNodes: 2000, graphEdges: 20000,
		shapeRel: map[string][2]int{
			"path2":    {500, 3200},
			"path-neq": {100, 250},
			"path-lt":  {1500, 4000},
			"theta":    {500, 1400},
			"tri-hub":  {700, 16},
			"tri-neq":  {800, 5000},
		},
		hot: 16, cold: 512, fresh: 8192,
	}
}

// relName is the relation a shape's statement runs over. Each shape has
// its own so each can be sized on its own.
func relName(shapeIdx int) string { return "R" + strconv.Itoa(shapeIdx) }

// inputs is everything one run generates.
type inputs struct {
	seed   int64
	sz     sizes
	E      *graph   // symbolic point/churn graph
	shapeG []*graph // one per shape, integer ids
	fresh  []edge   // edges absent from E, for the writer
	zipf   []int    // node permutation: zipf rank → node id
	hot    []adhocText
	cold   []adhocText
}

// adhocText is one constants-inlined query text and its reference answer.
type adhocText struct {
	shape int
	text  string
	want  answer
}

func generate(seed int64, sz sizes) *inputs {
	rnd := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, sz: sz}
	in.E = randomGraph(rnd, "E", sz.graphNodes, sz.graphEdges, true)
	for i, sh := range shapes {
		d := sz.shapeRel[sh.name]
		if sh.name == "tri-hub" {
			in.shapeG = append(in.shapeG, hubGraph(relName(i), d[0], d[1]))
		} else {
			in.shapeG = append(in.shapeG, randomGraph(rnd, relName(i), d[0], d[1], false))
		}
	}
	in.fresh = freshEdges(rnd, in.E, sz.fresh)
	in.zipf = rnd.Perm(sz.graphNodes)
	// Ad-hoc pools: texts cycle through the shapes; anchors are distinct per
	// shape, so every text has its own plan-cache fingerprint.
	texts := func(n int, skip int) []adhocText {
		out := make([]adhocText, n)
		for i := range out {
			si := i % len(shapes)
			g := in.shapeG[si]
			anchor := (skip + i/len(shapes)) % g.nodes
			out[i] = adhocText{
				shape: si,
				text:  fmt.Sprintf(shapes[si].adhoc, g.rel, g.node(anchor)),
				want:  answerOf(g, shapes[si].ref(g, anchor)),
			}
		}
		return out
	}
	in.hot = texts(sz.hot, 0)
	in.cold = texts(sz.cold, (sz.hot+len(shapes)-1)/len(shapes))
	return in
}

// stmtDef is one statement registered with the server.
type stmtDef struct{ name, text string }

func (in *inputs) shapeStmts() []stmtDef {
	out := make([]stmtDef, len(shapes))
	for i, sh := range shapes {
		out[i] = stmtDef{sh.name, fmt.Sprintf(sh.stmt, relName(i))}
	}
	return out
}

const (
	adjText  = "Q(y) :- E($src, x), E(x, y)."
	hop2Text = "Q(x,z) :- E(x,y), E(y,z)."
)

// srcSeq draws the Zipf(1.1) point-lookup keys: a few hot sources carry
// most requests, the tail keeps the batcher's flight map churning.
func (in *inputs) srcSeq(rnd *rand.Rand, n int) []int {
	z := rand.NewZipf(rnd, 1.1, 1, uint64(in.E.nodes-1))
	out := make([]int, n)
	for i := range out {
		out[i] = in.zipf[z.Uint64()]
	}
	return out
}
