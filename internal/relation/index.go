package relation

// Index is a hash index on a subset of a relation's columns, mapping each
// key to the row numbers holding it. It is the workhorse behind hash joins
// and the backtracking evaluator's per-atom lookups. Internally it is a
// frozen TupleIndex, so lookups return contiguous id spans without copying
// and probes never allocate.
type Index struct {
	tix *TupleIndex
}

// NewIndex builds an index of r on the given attributes (all must occur in
// r's schema).
func NewIndex(r *Relation, attrs Schema) *Index {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		p := r.Pos(a)
		if p < 0 {
			panic("relation: index attribute not in schema")
		}
		cols[i] = p
	}
	return newIndexOn(r, cols)
}

func newIndexOn(r *Relation, cols []int) *Index {
	tix := NewTupleIndexSized(len(cols), r.n)
	for i := 0; i < r.n; i++ {
		tix.AddRel(r, i, cols, int32(i))
	}
	tix.Freeze()
	return &Index{tix: tix}
}

// Lookup returns the row numbers whose key columns equal key, in row
// order. The returned slice is a view into the index and must not be
// modified; no copy is made.
func (ix *Index) Lookup(key []Value) []int32 {
	return ix.tix.IDs(key)
}

// lookupRel returns the matching row numbers keyed by the projection of
// row i of another relation p onto the given column positions, without
// materializing the key tuple.
func (ix *Index) lookupRel(p *Relation, i int, cols []int) []int32 {
	return ix.tix.IDsRel(p, i, cols)
}

// Distinct returns the number of distinct keys in the index.
func (ix *Index) Distinct() int { return ix.tix.Distinct() }
