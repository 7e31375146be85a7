package relation

import (
	"math"
	"testing"
)

// fuzzAlphabet is the collision-hostile value base the fuzzer draws from:
// multiples of 2^32 (equal low words), int64 extremes (±2^63), the hash
// seed reinterpreted as a Value, and small ints. A value byte b decodes to
// fuzzAlphabet[b&15] + b>>4, so each column ranges over 256 values and a
// width-1 table grows across several doublings.
var fuzzAlphabet = [16]Value{
	0, 1, -1, 1 << 32, 2 << 32, 3 << 32, -(1 << 32), math.MinInt64,
	math.MaxInt64 - 15, math.MinInt64 + 1, 1 << 62, -(1 << 62),
	goldenValue, -goldenValue, 7 << 40, 2,
}

// FuzzTupleContainers drives all four tuple containers through one decoded
// operation sequence and checks each against a string-keyed model. The
// first byte picks the width (0–3); each operation is an opcode byte
// followed by width value bytes. Opcode bit 3 switches between the two key
// forms: a caller-built []Value, or the same tuple appended to a relation
// and probed in place through the identity column list.
func FuzzTupleContainers(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 8, 1, 2, 1, 1, 2, 9, 3, 4})
	f.Add([]byte{1, 4, 5, 4, 6, 5, 5, 12, 6, 6, 5, 14, 7})
	f.Add([]byte{0, 0, 2, 3, 4, 5, 6, 7, 8, 0, 2})
	f.Add([]byte{3, 2, 1, 2, 3, 2, 1, 2, 3, 11, 1, 2, 3, 3, 0, 0, 0, 10, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := int(data[0] % 4)
		data = data[1:]
		all := identity(w)
		r := New(Schema{0, 1, 2}[:w])
		set, ix := NewTupleSet(w), NewTupleIndex(w)
		m, c := NewTupleMap(w), NewTupleCounter(w)
		setModel := map[string]bool{}
		ixModel := map[string][]int32{}
		ixIDs := 0
		mapModel := map[string]int32{}
		cModel := map[string]int64{}
		var cOrder []string
		row := make([]Value, w)
		for step := 0; len(data) > w; step++ {
			op := data[0]
			for k := range row {
				b := data[1+k]
				row[k] = fuzzAlphabet[b&15] + Value(b>>4)
			}
			data = data[1+w:]
			k := refKey(row)
			rel := op&8 != 0
			i := r.Len()
			r.Append(row...)
			switch op & 7 {
			case 0: // TupleSet.Add / AddRel
				var added bool
				if rel {
					added = set.AddRel(r, i, all)
				} else {
					added = set.Add(row)
				}
				if added == setModel[k] {
					t.Fatalf("step %d: set add %v = %v, model has it: %v", step, row, added, setModel[k])
				}
				setModel[k] = true
			case 1: // TupleSet.Contains / ContainsRel
				got := set.Contains(row)
				if rel {
					got = set.ContainsRel(r, i, all)
				}
				if got != setModel[k] {
					t.Fatalf("step %d: set contains %v = %v, model %v", step, row, got, setModel[k])
				}
			case 2: // TupleIndex.Add / AddRel until frozen; Freeze on bit 4
				if ix.frozen {
					break
				}
				id := int32(step)
				if rel {
					ix.AddRel(r, i, all, id)
				} else {
					ix.Add(row, id)
				}
				ixModel[k] = append(ixModel[k], id)
				ixIDs++
				if op&16 != 0 {
					ix.Freeze()
				}
			case 3: // TupleIndex.Each (either state) and IDs / IDsRel (freezes)
				var got []int32
				ix.Each(row, func(id int32) bool { got = append(got, id); return true })
				if !equalIDs(got, ixModel[k]) {
					t.Fatalf("step %d: index Each(%v) = %v, model %v (frozen=%v)", step, row, got, ixModel[k], ix.frozen)
				}
				if op&16 == 0 {
					break
				}
				got = ix.IDs(row)
				if rel {
					got = ix.IDsRel(r, i, all)
				}
				if !equalIDs(got, ixModel[k]) {
					t.Fatalf("step %d: index IDs(%v) = %v, model %v", step, row, got, ixModel[k])
				}
			case 4: // TupleMap.Set
				v := int32(step)
				_, had := mapModel[k]
				if added := m.Set(row, v); added == had {
					t.Fatalf("step %d: map Set(%v) new=%v, model had it: %v", step, row, added, had)
				}
				mapModel[k] = v
			case 5: // TupleMap.Delete
				_, had := mapModel[k]
				if deleted := m.Delete(row); deleted != had {
					t.Fatalf("step %d: map Delete(%v) = %v, model %v", step, row, deleted, had)
				}
				delete(mapModel, k)
			case 6: // TupleCounter.Add
				d := int64(op>>4) - 8
				if _, ok := cModel[k]; !ok {
					cOrder = append(cOrder, k)
				}
				cModel[k] += d
				if got := c.Add(row, d); got != cModel[k] {
					t.Fatalf("step %d: counter Add(%v, %d) = %d, model %d", step, row, d, got, cModel[k])
				}
			case 7: // probes of map and counter; Clear the counter on bit 4
				want, had := mapModel[k]
				if got, ok := m.Get(row); ok != had || got != want {
					t.Fatalf("step %d: map Get(%v) = (%d,%v), model (%d,%v)", step, row, got, ok, want, had)
				}
				if got := c.Count(row); got != cModel[k] {
					t.Fatalf("step %d: counter Count(%v) = %d, model %d", step, row, got, cModel[k])
				}
				if op&16 != 0 {
					if c.Clear() != c {
						t.Fatal("Clear must return its receiver")
					}
					cModel, cOrder = map[string]int64{}, nil
				}
			}
			if set.Len() != len(setModel) || ix.Distinct() != len(ixModel) || ix.Len() != ixIDs ||
				m.Len() != len(mapModel) || c.Len() != len(cModel) {
				t.Fatalf("step %d: sizes set %d/%d index %d/%d ids %d/%d map %d/%d counter %d/%d", step,
					set.Len(), len(setModel), ix.Distinct(), len(ixModel), ix.Len(), ixIDs,
					m.Len(), len(mapModel), c.Len(), len(cModel))
			}
		}
		// Every surviving map entry is still reachable after the churn, and
		// the counter yields first-touch order.
		n := 0
		c.Each(func(row []Value, got int64) bool {
			if k := refKey(row); n >= len(cOrder) || k != cOrder[n] || got != cModel[k] {
				t.Fatalf("counter Each #%d = (%v, %d) out of first-touch order", n, row, got)
			}
			n++
			return true
		})
		if n != len(cOrder) {
			t.Fatalf("counter Each yielded %d tuples, model %d", n, len(cOrder))
		}
		for e := 0; e < m.Len(); e++ {
			key := m.key(e)
			if got, ok := m.Get(key); !ok || got != mapModel[refKey(key)] {
				t.Fatalf("map entry %v unreachable or wrong: (%d,%v)", key, got, ok)
			}
		}
	})
}
