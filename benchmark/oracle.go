package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"pyquery"
)

// The oracle is a brute-force evaluator over the generated adjacency
// lists. It shares no code with the engines, the planner or the server:
// every answer the benchmark times is compared with it by row count and
// an order-independent hash of the rendered rows.

type answer struct {
	n    int
	hash uint64
}

func rowHash(cells []string) uint64 {
	h := fnv.New64a()
	for _, c := range cells {
		h.Write([]byte(c))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// answerOf renders reference rows (node indexes) the way g's relation
// renders them and folds them into an answer.
func answerOf(g *graph, rows [][]int) answer {
	a := answer{n: len(rows)}
	cells := make([]string, 0, 3)
	for _, r := range rows {
		cells = cells[:0]
		for _, v := range r {
			cells = append(cells, g.node(v))
		}
		a.hash += rowHash(cells)
	}
	return a
}

// wireCell renders one decoded JSON cell: integers arrive as json.Number,
// symbols as strings.
func wireCell(v any) (string, error) {
	switch x := v.(type) {
	case json.Number:
		return x.String(), nil
	case string:
		return x, nil
	}
	return "", fmt.Errorf("unexpected cell %T", v)
}

// answerOfWire folds a decoded JSON "rows" array.
func answerOfWire(rows [][]any) (answer, error) {
	a := answer{n: len(rows)}
	cells := make([]string, 0, 3)
	for _, r := range rows {
		cells = cells[:0]
		for _, v := range r {
			c, err := wireCell(v)
			if err != nil {
				return a, err
			}
			cells = append(cells, c)
		}
		a.hash += rowHash(cells)
	}
	return a, nil
}

// answerOfRel folds a library result; render maps a value to its wire
// form (decimal for integers, the symbol's name otherwise).
func answerOfRel(r *pyquery.Relation, render func(pyquery.Value) string) answer {
	a := answer{n: r.Len()}
	buf := make([]pyquery.Value, r.Width())
	cells := make([]string, r.Width())
	for i := 0; i < r.Len(); i++ {
		r.RowTo(buf, i)
		for j, v := range buf {
			cells[j] = render(v)
		}
		a.hash += rowHash(cells)
	}
	return a
}

// anchors lists the candidate bindings of the anchor variable x: one node
// for the constants-inlined form, every node otherwise. With an anchor the
// reference rows omit x, as the ad-hoc heads do.
func anchors(g *graph, anchor int) (xs []int, keepX bool) {
	if anchor >= 0 {
		return []int{anchor}, false
	}
	xs = make([]int, g.nodes)
	for i := range xs {
		xs[i] = i
	}
	return xs, true
}

// refPath is the reference for every 2-path shape: pairs (x,z) with some
// y such that x→y→z, filtered by keep.
func refPath(keep func(x, z int) bool) func(*graph, int) [][]int {
	return func(g *graph, anchor int) [][]int {
		xs, keepX := anchors(g, anchor)
		var rows [][]int
		for _, x := range xs {
			seen := map[int]bool{}
			for _, y := range g.out[x] {
				for _, z := range g.out[y] {
					if seen[z] || !keep(x, z) {
						continue
					}
					seen[z] = true
					if keepX {
						rows = append(rows, []int{x, z})
					} else {
						rows = append(rows, []int{z})
					}
				}
			}
		}
		return rows
	}
}

// refHop2 is the unfiltered 2-path reference: path2, theta, adj (with an
// anchor) and hop2.
var refHop2 = refPath(func(x, z int) bool { return true })

// refTriangle is the reference for the directed triangles x→y→z→x,
// optionally requiring x ≠ y.
func refTriangle(neq bool) func(*graph, int) [][]int {
	return func(g *graph, anchor int) [][]int {
		xs, keepX := anchors(g, anchor)
		var rows [][]int
		for _, x := range xs {
			for _, y := range g.out[x] {
				if neq && x == y {
					continue
				}
				for _, z := range g.out[y] {
					if !g.has[edge{z, x}] {
						continue
					}
					if keepX {
						rows = append(rows, []int{x, y, z})
					} else {
						rows = append(rows, []int{y, z})
					}
				}
			}
		}
		return rows
	}
}

// pairSet is the client-side copy of a binary view (hop2) that the churn
// workload maintains from refresh deltas and finally compares with a
// fresh execution.
type pairSet map[[2]string]bool

func (p pairSet) apply(added, removed [][]any) error {
	for _, r := range removed {
		k, err := pairKey(r)
		if err != nil {
			return err
		}
		if !p[k] {
			return fmt.Errorf("refresh removed %v, which the view does not hold", k)
		}
		delete(p, k)
	}
	for _, r := range added {
		k, err := pairKey(r)
		if err != nil {
			return err
		}
		if p[k] {
			return fmt.Errorf("refresh added %v, which the view already holds", k)
		}
		p[k] = true
	}
	return nil
}

func pairKey(r []any) ([2]string, error) {
	if len(r) != 2 {
		return [2]string{}, fmt.Errorf("row of width %d, want 2", len(r))
	}
	var k [2]string
	for i, v := range r {
		c, err := wireCell(v)
		if err != nil {
			return k, err
		}
		k[i] = c
	}
	return k, nil
}

func (p pairSet) answer() answer {
	a := answer{n: len(p)}
	for k := range p {
		a.hash += rowHash(k[:])
	}
	return a
}
