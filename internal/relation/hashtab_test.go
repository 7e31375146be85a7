package relation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refKey is the retired string encoding, kept here as the reference
// semantics the hash containers must reproduce exactly.
func refKey(row []Value) string {
	b := make([]byte, 8*len(row))
	for i, v := range row {
		u := uint64(v)
		for j := 0; j < 8; j++ {
			b[8*i+j] = byte(u >> (8 * j))
		}
	}
	return string(b)
}

// goldenValue is the hash seed reinterpreted as a Value — a worst-plausible
// input for the mixer.
var goldenValue = Value(int64(-7046029254386353131)) // uint64(0x9e3779b97f4a7c15)

// valuePools are the generator alphabets, including collision-hostile
// patterns: dense small ints, values differing only in high bits (multiples
// of 2^32), int64 extremes, and mixed-sign near-zero values.
var valuePools = [][]Value{
	{0, 1, 2, 3},
	{-2, -1, 0, 1, 2},
	{0, 1 << 32, 2 << 32, 3 << 32, 1, (1 << 32) + 1},
	{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1},
	{0, goldenValue, -goldenValue, 1 << 62, -(1 << 62)},
}

func randRow(rng *rand.Rand, pool []Value, width int) []Value {
	row := make([]Value, width)
	for i := range row {
		if rng.Intn(4) == 0 {
			row[i] = Value(rng.Int63() - rng.Int63())
		} else {
			row[i] = pool[rng.Intn(len(pool))]
		}
	}
	return row
}

func TestTupleSetMatchesStringMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{0, 1, 2, 3, 5} {
		for pi, pool := range valuePools {
			t.Run(fmt.Sprintf("w=%d/pool=%d", width, pi), func(t *testing.T) {
				set := NewTupleSet(width)
				ref := make(map[string]bool)
				var rows [][]Value
				for i := 0; i < 600; i++ {
					row := randRow(rng, pool, width)
					rows = append(rows, row)
					k := refKey(row)
					added := set.Add(row)
					if added == ref[k] {
						t.Fatalf("Add(%v) = %v, reference says new=%v", row, added, !ref[k])
					}
					ref[k] = true
				}
				if set.Len() != len(ref) {
					t.Fatalf("Len = %d, reference has %d distinct tuples", set.Len(), len(ref))
				}
				// Membership agrees for inserted rows and fresh probes.
				for _, row := range rows {
					if !set.Contains(row) {
						t.Fatalf("Contains(%v) = false for inserted row", row)
					}
				}
				for i := 0; i < 200; i++ {
					row := randRow(rng, pool, width)
					if got, want := set.Contains(row), ref[refKey(row)]; got != want {
						t.Fatalf("Contains(%v) = %v, reference %v", row, got, want)
					}
				}
			})
		}
	}
}

func TestTupleSetCols(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pool := valuePools[2]
	// Project width-4 rows onto columns (3, 1) in place and check the set
	// matches inserting the materialized projections; the identity column
	// list keys whole rows the same way Add does.
	r := New(Schema{0, 1, 2, 3})
	for i := 0; i < 500; i++ {
		r.Append(randRow(rng, pool, 4)...)
	}
	cols := []int{3, 1}
	set, rows, all := NewTupleSet(2), NewTupleSet(4), identity(4)
	ref, refRows := make(map[string]bool), make(map[string]bool)
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		proj := []Value{row[3], row[1]}
		k := refKey(proj)
		if added := set.AddRel(r, i, cols); added == ref[k] {
			t.Fatalf("AddRel(%v) = %v, reference says new=%v", row, added, !ref[k])
		}
		ref[k] = true
		if !set.ContainsRel(r, i, cols) {
			t.Fatalf("ContainsRel false right after AddRel (%v)", row)
		}
		if !set.Contains(proj) {
			t.Fatalf("Contains(%v) false after AddRel of the same projection", proj)
		}
		if added := rows.AddRel(r, i, all); added == refRows[refKey(row)] {
			t.Fatalf("AddRel(identity) of %v = %v, reference says new=%v", row, added, !refRows[refKey(row)])
		}
		refRows[refKey(row)] = true
		if rows.Add(row) || !rows.ContainsRel(r, i, all) {
			t.Fatalf("whole-row forms disagree on %v", row)
		}
	}
	if set.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", set.Len(), len(ref))
	}
}

func TestTupleIndexMatchesStringMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, width := range []int{1, 2, 4} {
		for pi, pool := range valuePools {
			t.Run(fmt.Sprintf("w=%d/pool=%d", width, pi), func(t *testing.T) {
				ix := NewTupleIndex(width)
				ref := make(map[string][]int32)
				var keys [][]Value
				for id := int32(0); id < 500; id++ {
					key := randRow(rng, pool, width)
					keys = append(keys, key)
					ix.Add(key, id)
					ref[refKey(key)] = append(ref[refKey(key)], id)
				}
				if ix.Distinct() != len(ref) {
					t.Fatalf("Distinct = %d, reference %d", ix.Distinct(), len(ref))
				}
				if ix.Len() != 500 {
					t.Fatalf("Len = %d, want 500", ix.Len())
				}
				// Each (pre-freeze chain walk) agrees, including order.
				probe := keys[rng.Intn(len(keys))]
				var chain []int32
				ix.Each(probe, func(id int32) bool { chain = append(chain, id); return true })
				wantChain := ref[refKey(probe)]
				if !equalIDs(chain, wantChain) {
					t.Fatalf("Each(%v) = %v, reference %v", probe, chain, wantChain)
				}
				// IDs (frozen spans) agree with the reference lists, in
				// insertion order, for all keys plus misses.
				for _, key := range keys {
					if got, want := ix.IDs(key), ref[refKey(key)]; !equalIDs(got, want) {
						t.Fatalf("IDs(%v) = %v, reference %v", key, got, want)
					}
				}
				for i := 0; i < 100; i++ {
					key := randRow(rng, pool, width)
					if got, want := ix.IDs(key), ref[refKey(key)]; !equalIDs(got, want) {
						t.Fatalf("IDs(%v) = %v, reference %v", key, got, want)
					}
				}
			})
		}
	}
}

func TestTupleIndexFrozenEachAndAddPanics(t *testing.T) {
	ix := NewTupleIndex(2)
	ix.Add([]Value{1, 2}, 7)
	ix.Add([]Value{1, 2}, 9)
	if got := ix.IDs([]Value{1, 2}); len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("IDs = %v, want [7 9]", got)
	}
	if ix.Len() != 2 {
		t.Fatalf("frozen Len = %d, want 2", ix.Len())
	}
	var seen []int32
	ix.Each([]Value{1, 2}, func(id int32) bool { seen = append(seen, id); return true })
	if len(seen) != 2 || seen[0] != 7 || seen[1] != 9 {
		t.Fatalf("frozen Each = %v, want [7 9]", seen)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add after Freeze did not panic")
		}
	}()
	ix.Add([]Value{3, 4}, 1)
}

// TestIndexMatchesReference cross-checks the relation-level Index against a
// string-keyed reference built from the same relation.
func TestIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for pi, pool := range valuePools {
		t.Run(fmt.Sprintf("pool=%d", pi), func(t *testing.T) {
			r := New(Schema{0, 1, 2})
			for i := 0; i < 400; i++ {
				r.Append(randRow(rng, pool, 3)...)
			}
			ix := NewIndex(r, Schema{2, 0})
			ref := make(map[string][]int32)
			for i := 0; i < r.Len(); i++ {
				row := r.Row(i)
				ref[refKey([]Value{row[2], row[0]})] = append(ref[refKey([]Value{row[2], row[0]})], int32(i))
			}
			if ix.Distinct() != len(ref) {
				t.Fatalf("Distinct = %d, reference %d", ix.Distinct(), len(ref))
			}
			for i := 0; i < 200; i++ {
				key := randRow(rng, pool, 2)
				if got, want := ix.Lookup(key), ref[refKey(key)]; !equalIDs(got, want) {
					t.Fatalf("Lookup(%v) = %v, reference %v", key, got, want)
				}
			}
		})
	}
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
