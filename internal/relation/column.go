package relation

// Column storage. Each relation column is stored independently as either a
// narrow []int32 code vector or a wide []Value vector. Narrow is the common
// case: Dict interns every string to a small dense id and most integer
// constants are tiny, so a 4-byte code per cell halves the resident bytes
// and doubles the cells per cache line on scans, probes, and gathers. A
// column starts narrow and widens permanently the first time a value
// outside int32 range is appended — widening is a one-way, O(n) conversion,
// so mixed-width columns never exist and every accessor is a single branch.
//
// The narrow/wide split is invisible outside the package: At/Row/Append
// operate on Value. ColNarrow/ColWide expose the raw backing for read-only
// zero-copy consumers (stats scans, trie builds).

// fits32 reports whether v survives a round trip through int32.
func fits32(v Value) bool { return Value(int32(v)) == v }

// column is one column of a relation: narrow when wv is nil, wide
// otherwise. The zero value is a valid empty narrow column.
type column struct {
	nv []int32
	wv []Value
}

// at returns the i-th value.
func (c *column) at(i int) Value {
	if c.wv != nil {
		return c.wv[i]
	}
	return Value(c.nv[i])
}

// set overwrites the i-th value, widening if needed.
func (c *column) set(i int, v Value) {
	if c.wv != nil {
		c.wv[i] = v
		return
	}
	if !fits32(v) {
		c.widen()
		c.wv[i] = v
		return
	}
	c.nv[i] = int32(v)
}

// push appends one value, widening if needed.
func (c *column) push(v Value) {
	if c.wv != nil {
		c.wv = append(c.wv, v)
		return
	}
	if !fits32(v) {
		c.widen()
		c.wv = append(c.wv, v)
		return
	}
	c.nv = append(c.nv, int32(v))
}

// widen converts the column to wide storage permanently.
func (c *column) widen() {
	wv := make([]Value, len(c.nv), cap(c.nv))
	for i, v := range c.nv {
		wv[i] = Value(v)
	}
	c.nv = nil
	c.wv = wv
}

// truncate shrinks the column to n values.
func (c *column) truncate(n int) {
	if c.wv != nil {
		c.wv = c.wv[:n]
		return
	}
	c.nv = c.nv[:n]
}

// clone returns a deep copy.
func (c *column) clone() column {
	if c.wv != nil {
		return column{wv: append(make([]Value, 0, len(c.wv)), c.wv...)}
	}
	return column{nv: append(make([]int32, 0, len(c.nv)), c.nv...)}
}

// gather returns a fresh column holding c's values at the given row ids,
// preserving the narrow/wide representation (a gather cannot introduce a
// value that was not already present).
func (c *column) gather(sel []int32) column {
	if c.wv != nil {
		wv := make([]Value, len(sel))
		for k, i := range sel {
			wv[k] = c.wv[i]
		}
		return column{wv: wv}
	}
	nv := make([]int32, len(sel))
	for k, i := range sel {
		nv[k] = c.nv[i]
	}
	return column{nv: nv}
}

// compact keeps exactly the values at the (ascending) row ids of sel,
// in place.
func (c *column) compact(sel []int32) {
	if c.wv != nil {
		for k, i := range sel {
			c.wv[k] = c.wv[i]
		}
		c.wv = c.wv[:len(sel)]
		return
	}
	for k, i := range sel {
		c.nv[k] = c.nv[i]
	}
	c.nv = c.nv[:len(sel)]
}

// appendCol appends all of src's values to c, widening c if src is wide
// (or if some value demands it — impossible when src is narrow).
func (c *column) appendCol(src *column) {
	if src.wv == nil {
		if c.wv == nil {
			c.nv = append(c.nv, src.nv...)
			return
		}
		for _, v := range src.nv {
			c.wv = append(c.wv, Value(v))
		}
		return
	}
	if c.wv == nil {
		c.widen()
	}
	c.wv = append(c.wv, src.wv...)
}

// bytes returns the resident payload bytes of the column.
func (c *column) bytes() int64 {
	if c.wv != nil {
		return int64(len(c.wv)) * 8
	}
	return int64(len(c.nv)) * 4
}
