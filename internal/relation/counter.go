package relation

// Mutable tuple containers for the incremental-maintenance layer, built on
// hashtab.go's table. TupleMap maps fixed-width tuples to int32 payloads
// (row positions) and — unlike TupleIndex — supports deletion, so the
// changelog can track a live relation's rows across inserts and
// swap-removes. TupleCounter maps fixed-width tuples to signed 64-bit
// counts, the derivation-count algebra of counting view maintenance:
// insertions add +1 per derivation, deletions add −1, and a tuple is in the
// view iff its count is positive.

// TupleMap maps width-w tuples to int32 values with O(1) expected
// Get/Set/Delete and no per-operation allocation (amortized growth aside).
type TupleMap struct {
	table
	vals []int32
}

// NewTupleMap returns an empty map over width-w tuples.
func NewTupleMap(width int) *TupleMap { return NewTupleMapSized(width, 0) }

// NewTupleMapSized pre-sizes the map for about capHint tuples.
func NewTupleMapSized(width, capHint int) *TupleMap {
	m := &TupleMap{vals: make([]int32, 0, capHint)}
	m.init(width, capHint)
	return m
}

// Get returns the value stored under row.
func (m *TupleMap) Get(row []Value) (int32, bool) {
	e := m.find(row)
	if e == emptySlot {
		return 0, false
	}
	return m.vals[e], true
}

// Set stores v under row, inserting or overwriting, and reports whether the
// entry was new. The tuple is copied; callers may reuse the slice.
func (m *TupleMap) Set(row []Value, v int32) bool {
	e, added := m.upsert(row)
	if added {
		m.vals = append(m.vals, v)
	} else {
		m.vals[e] = v
	}
	return added
}

// Delete removes row's entry, reporting whether it existed.
func (m *TupleMap) Delete(row []Value) bool {
	slot, e := m.lookup(row, hashRow(row))
	if e == emptySlot {
		return false
	}
	last := m.remove(slot, e)
	m.vals[e] = m.vals[last]
	m.vals = m.vals[:last]
	return true
}

// TupleCounter maps width-w tuples to signed counts. Adding a delta creates
// the entry on first touch; entries whose count returns to zero are kept
// (the arena is append-only, so Len counts every tuple ever touched) and
// skipped by Each's positive filter when the caller asks for the supported
// view.
type TupleCounter struct {
	table
	counts []int64
}

// NewTupleCounter returns an empty counter over width-w tuples.
func NewTupleCounter(width int) *TupleCounter { return NewTupleCounterSized(width, 0) }

// NewTupleCounterSized pre-sizes the counter for about capHint tuples.
func NewTupleCounterSized(width, capHint int) *TupleCounter {
	c := &TupleCounter{counts: make([]int64, 0, capHint)}
	c.init(width, capHint)
	return c
}

// Add adds d to row's count and returns the new count. The tuple is copied
// on first touch; callers may reuse the slice.
func (c *TupleCounter) Add(row []Value, d int64) int64 {
	e, added := c.upsert(row)
	if added {
		c.counts = append(c.counts, d)
		return d
	}
	c.counts[e] += d
	return c.counts[e]
}

// Count returns row's current count (zero if never touched).
func (c *TupleCounter) Count(row []Value) int64 {
	e := c.find(row)
	if e == emptySlot {
		return 0
	}
	return c.counts[e]
}

// Clear removes every entry in place, retaining table and arena capacity,
// and returns c. It is the reuse hook for the short-lived scratch counters
// an IVM refresh builds per batch — see internal/ivm's delta arena.
func (c *TupleCounter) Clear() *TupleCounter {
	c.clear()
	c.counts = c.counts[:0]
	return c
}

// Each calls fn with every touched tuple and its current count (including
// zeros), in first-touch order, stopping early if fn returns false. The
// yielded slice is a view into the arena — copy it to retain it.
func (c *TupleCounter) Each(fn func(row []Value, n int64) bool) {
	for e, n := range c.counts {
		if !fn(c.key(e), n) {
			return
		}
	}
}
