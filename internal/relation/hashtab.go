package relation

// Open-addressed hash containers for tuples. One core, table, holds the
// width, the slot array, each entry's hash and a flat []Value key arena
// (entry e's tuple lives at keys[e*width:(e+1)*width]); it owns the one
// grow/rehash, the linear-probe lookups and the insert, remove and clear
// every container shares. The four containers embed it and add only their
// payload:
//
//	TupleSet      nothing — membership and dedup
//	TupleIndex    per-key id postings, frozen into contiguous spans
//	TupleMap      an int32 per tuple, with deletion (counter.go)
//	TupleCounter  a signed int64 count per tuple (counter.go)
//
// Keys come in exactly two forms: a caller-built []Value, and the
// projection of row i of a Relation onto column positions cols, read in
// place (the *Rel methods; a full row is the identity column list). Both
// hash and compare value-wise — never through a string — so the
// steady-state per-probe allocation count is zero.
//
// The load factor stays at most 1/2: miss-heavy probes of small build
// sides (a handful of keys probed by thousands of mostly-absent rows) stop
// after a short run. Zero-width tuples are legal (Boolean relations): every
// empty tuple is the same tuple, so a table holds at most one entry.

type table struct {
	width  int
	slots  []int32  // entry index, or emptySlot
	hashes []uint64 // per entry; len(hashes) is the entry count
	keys   []Value
}

func (t *table) init(width, capHint int) {
	t.width = width
	t.slots = newSlots(nextPow2(2 * capHint))
	t.hashes = make([]uint64, 0, capHint)
	t.keys = make([]Value, 0, capHint*width)
}

func newSlots(n int) []int32 {
	slots := make([]int32, n)
	for i := range slots {
		slots[i] = emptySlot
	}
	return slots
}

// Width returns the tuple width.
func (t *table) Width() int { return t.width }

// Len returns the number of distinct tuples.
func (t *table) Len() int { return len(t.hashes) }

func (t *table) key(e int) []Value {
	return t.keys[e*t.width : (e+1)*t.width]
}

// grow doubles the slot array before an insert would push the load factor
// past 1/2. The check inlines into every insert path; rehash does not.
func (t *table) grow() {
	if (len(t.hashes)+1)*2 > len(t.slots) {
		t.rehash()
	}
}

func (t *table) rehash() {
	slots := newSlots(len(t.slots) * 2)
	mask := uint64(len(slots) - 1)
	for e, h := range t.hashes {
		i := h & mask
		for slots[i] != emptySlot {
			i = (i + 1) & mask
		}
		slots[i] = int32(e)
	}
	t.slots = slots
}

// lookup returns the slot holding row's entry and the entry, or the first
// free slot of row's probe sequence and emptySlot.
func (t *table) lookup(row []Value, h uint64) (uint64, int32) {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == emptySlot || t.hashes[e] == h && rowsEqual(row, t.key(int(e))) {
			return i, e
		}
	}
}

// lookupRel is lookup keyed by the projection of r's row i onto cols.
func (t *table) lookupRel(r *Relation, i int, cols []int, h uint64) (uint64, int32) {
	mask := uint64(len(t.slots) - 1)
	for j := h & mask; ; j = (j + 1) & mask {
		e := t.slots[j]
		if e == emptySlot || t.hashes[e] == h && relEqualCols(r, i, cols, t.key(int(e))) {
			return j, e
		}
	}
}

func (t *table) find(row []Value) int32 {
	_, e := t.lookup(row, hashRow(row))
	return e
}

func (t *table) findRel(r *Relation, i int, cols []int) int32 {
	_, e := t.lookupRel(r, i, cols, hashRelCols(r, i, cols))
	return e
}

// upsert returns row's entry, creating it (the tuple is copied) if absent;
// added reports whether it was created.
func (t *table) upsert(row []Value) (e int32, added bool) {
	t.grow()
	h := hashRow(row)
	slot, e := t.lookup(row, h)
	if e != emptySlot {
		return e, false
	}
	t.keys = append(t.keys, row...)
	return t.insert(slot, h), true
}

// upsertRel is upsert keyed by the projection of r's row i onto cols.
func (t *table) upsertRel(r *Relation, i int, cols []int) (e int32, added bool) {
	t.grow()
	h := hashRelCols(r, i, cols)
	slot, e := t.lookupRel(r, i, cols, h)
	if e != emptySlot {
		return e, false
	}
	for _, c := range cols {
		t.keys = append(t.keys, r.cols[c].at(i))
	}
	return t.insert(slot, h), true
}

// insert claims the free slot for a new entry whose key was just appended.
func (t *table) insert(slot, h uint64) int32 {
	e := int32(len(t.hashes))
	t.slots[slot] = e
	t.hashes = append(t.hashes, h)
	return e
}

// remove deletes entry e, found at slot. The slot is closed by
// backward-shift compaction (no tombstones, so the load factor stays honest
// under churn) and the last entry moves into e's arena hole. It returns the
// index of that last entry so the caller moves its payload the same way.
func (t *table) remove(slot uint64, e int32) (last int32) {
	t.shiftOut(slot)
	last = int32(len(t.hashes) - 1)
	if e != last {
		ls, _ := t.lookup(t.key(int(last)), t.hashes[last])
		copy(t.key(int(e)), t.key(int(last)))
		t.hashes[e] = t.hashes[last]
		t.slots[ls] = e
	}
	t.hashes = t.hashes[:last]
	t.keys = t.keys[:int(last)*t.width]
	return last
}

// shiftOut empties slot i and backward-shifts the probe chain after it so
// every remaining entry stays reachable from its home slot.
func (t *table) shiftOut(i uint64) {
	mask := uint64(len(t.slots) - 1)
	for {
		t.slots[i] = emptySlot
		j := i
		for {
			j = (j + 1) & mask
			e := t.slots[j]
			if e == emptySlot {
				return
			}
			// The entry at j may fill i iff i lies within [home, j]
			// cyclically — moving it cannot jump before its home slot.
			if home := t.hashes[e] & mask; (j-home)&mask >= (j-i)&mask {
				t.slots[i] = e
				i = j
				break
			}
		}
	}
}

// clear removes every entry in place, keeping slot and arena capacity.
func (t *table) clear() {
	for i := range t.slots {
		t.slots[i] = emptySlot
	}
	t.hashes = t.hashes[:0]
	t.keys = t.keys[:0]
}

// TupleSet is a set of width-w tuples with O(1) expected Add/Contains and
// no per-operation allocation (amortized growth aside).
type TupleSet struct{ table }

// NewTupleSet returns an empty set of width-w tuples.
func NewTupleSet(width int) *TupleSet { return NewTupleSetSized(width, 0) }

// NewTupleSetSized pre-sizes the set for about capHint tuples.
func NewTupleSetSized(width, capHint int) *TupleSet {
	s := &TupleSet{}
	s.init(width, capHint)
	return s
}

// Add inserts the tuple if absent and reports whether it was added. The
// tuple is copied; callers may reuse the slice.
func (s *TupleSet) Add(row []Value) bool {
	_, added := s.upsert(row)
	return added
}

// AddRel inserts the projection of r's row i onto the column positions
// cols, reading the columns in place, and reports whether it was new.
func (s *TupleSet) AddRel(r *Relation, i int, cols []int) bool {
	_, added := s.upsertRel(r, i, cols)
	return added
}

// Contains reports membership of the tuple.
func (s *TupleSet) Contains(row []Value) bool { return s.find(row) != emptySlot }

// ContainsRel reports membership of the projection of r's row i onto cols,
// reading the columns in place.
func (s *TupleSet) ContainsRel(r *Relation, i int, cols []int) bool {
	return s.findRel(r, i, cols) != emptySlot
}

// TupleIndex maps width-w key tuples to the list of int32 ids added under
// them, preserving per-key insertion order. Build with Add, then call
// Freeze (or let IDs do it) to lay every id list out contiguously; after
// that IDs returns a subslice view — no copying, no allocation per lookup.
type TupleIndex struct {
	table

	// Per-entry posting chains while building: head/tail index into the
	// rows/next arenas, count tracks chain length for Freeze.
	head, tail, count []int32
	rows, next        []int32

	frozen  bool
	spanOff []int32 // per-entry offset into spanIDs
	spanIDs []int32
}

// NewTupleIndex returns an empty index over width-w keys.
func NewTupleIndex(width int) *TupleIndex { return NewTupleIndexSized(width, 0) }

// NewTupleIndexSized pre-sizes the index for about capHint total ids.
func NewTupleIndexSized(width, capHint int) *TupleIndex {
	ix := &TupleIndex{}
	ix.init(width, capHint)
	ix.rows = make([]int32, 0, capHint)
	ix.next = make([]int32, 0, capHint)
	return ix
}

// Distinct returns the number of distinct keys.
func (ix *TupleIndex) Distinct() int { return len(ix.hashes) }

// Len returns the total number of ids added.
func (ix *TupleIndex) Len() int {
	if ix.frozen {
		return len(ix.spanIDs)
	}
	return len(ix.rows)
}

// Add records id under key. The key is copied; callers may reuse the
// slice. Add panics after Freeze.
func (ix *TupleIndex) Add(key []Value, id int32) {
	if ix.frozen {
		panic("relation: TupleIndex.Add after Freeze")
	}
	e, _ := ix.upsert(key)
	ix.post(e, id)
}

// AddRel records id under the projection of r's row i onto cols, reading
// the columns in place. It panics after Freeze.
func (ix *TupleIndex) AddRel(r *Relation, i int, cols []int, id int32) {
	if ix.frozen {
		panic("relation: TupleIndex.AddRel after Freeze")
	}
	e, _ := ix.upsertRel(r, i, cols)
	ix.post(e, id)
}

// post appends id to entry e's posting chain, opening the chain when e is
// a new entry.
func (ix *TupleIndex) post(e, id int32) {
	if int(e) == len(ix.head) {
		ix.head = append(ix.head, -1)
		ix.tail = append(ix.tail, -1)
		ix.count = append(ix.count, 0)
	}
	p := int32(len(ix.rows))
	ix.rows = append(ix.rows, id)
	ix.next = append(ix.next, -1)
	if ix.tail[e] >= 0 {
		ix.next[ix.tail[e]] = p
	} else {
		ix.head[e] = p
	}
	ix.tail[e] = p
	ix.count[e]++
}

// Freeze lays each key's id list out contiguously so IDs can return
// subslice views. Idempotent; called implicitly by the first IDs.
func (ix *TupleIndex) Freeze() {
	if ix.frozen {
		return
	}
	ix.frozen = true
	ix.spanOff = make([]int32, len(ix.head)+1)
	for e, c := range ix.count {
		ix.spanOff[e+1] = ix.spanOff[e] + c
	}
	ix.spanIDs = make([]int32, len(ix.rows))
	for e := range ix.head {
		w := ix.spanOff[e]
		for p := ix.head[e]; p >= 0; p = ix.next[p] {
			ix.spanIDs[w] = ix.rows[p]
			w++
		}
	}
	// The chain arenas are dead weight once spans exist.
	ix.rows, ix.next, ix.head, ix.tail, ix.count = nil, nil, nil, nil, nil
}

func (ix *TupleIndex) span(e int32) []int32 {
	if e < 0 {
		return nil
	}
	return ix.spanIDs[ix.spanOff[e]:ix.spanOff[e+1]:ix.spanOff[e+1]]
}

// IDs returns the ids added under key, in insertion order, as a view that
// must not be modified. It freezes the index on first use.
func (ix *TupleIndex) IDs(key []Value) []int32 {
	ix.Freeze()
	return ix.span(ix.find(key))
}

// IDsRel is IDs keyed by the projection of r's row i onto cols, reading
// the columns in place.
func (ix *TupleIndex) IDsRel(r *Relation, i int, cols []int) []int32 {
	ix.Freeze()
	return ix.span(ix.findRel(r, i, cols))
}

// Each calls fn with every id under key, in insertion order, stopping
// early if fn returns false. It works both before and after Freeze.
func (ix *TupleIndex) Each(key []Value, fn func(id int32) bool) {
	e := ix.find(key)
	if e < 0 {
		return
	}
	if ix.frozen {
		for _, id := range ix.span(e) {
			if !fn(id) {
				return
			}
		}
		return
	}
	for p := ix.head[e]; p >= 0; p = ix.next[p] {
		if !fn(ix.rows[p]) {
			return
		}
	}
}
