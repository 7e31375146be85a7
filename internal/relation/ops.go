package relation

import "fmt"

// Select returns the tuples of r satisfying pred. The predicate receives a
// row view and must not retain it.
func Select(r *Relation, pred func(row []Value) bool) *Relation {
	sel := make([]int32, 0, r.n)
	buf := make([]Value, r.width)
	for i := 0; i < r.n; i++ {
		if pred(r.RowTo(buf, i)) {
			sel = append(sel, int32(i))
		}
	}
	return r.Gather(sel)
}

// Project returns the projection of r onto attrs (which must all occur in
// r's schema), deduplicated. The output is built by column gather: a
// selection vector of the first row holding each distinct projected tuple,
// then one bulk copy per projected column.
func Project(r *Relation, attrs Schema) *Relation {
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		p := r.Pos(a)
		if p < 0 {
			panic(fmt.Sprintf("relation: projection attribute a%d not in schema %v", a, r.schema))
		}
		pos[i] = p
	}
	out := New(attrs)
	if len(attrs) == 0 {
		if r.n > 0 {
			out.Append()
		}
		return out
	}
	seen := NewTupleSetSized(len(attrs), r.n)
	sel := make([]int32, 0, r.n)
	for i := 0; i < r.n; i++ {
		if seen.AddRel(r, i, pos) {
			sel = append(sel, int32(i))
		}
	}
	for j, p := range pos {
		out.cols[j] = r.cols[p].gather(sel)
	}
	out.n = len(sel)
	return out
}

// Rename returns a copy of r with attributes substituted according to m.
// Attributes absent from m are kept. The resulting schema must not repeat
// attributes.
func Rename(r *Relation, m map[Attr]Attr) *Relation {
	schema := make(Schema, r.width)
	for i, a := range r.schema {
		if b, ok := m[a]; ok {
			schema[i] = b
		} else {
			schema[i] = a
		}
	}
	out := New(schema)
	for c := range r.cols {
		out.cols[c] = r.cols[c].clone()
	}
	out.n = r.n
	return out
}

// NaturalJoin returns r ⋈ s: tuples agreeing on all common attributes. With
// no common attributes it is the cross product. The output schema is r's
// schema followed by s's private attributes.
func NaturalJoin(r, s *Relation) *Relation {
	common := r.schema.Intersect(s.schema)
	rc, sc := keyCols(r, s, common)

	// Build a hash index on s keyed by the common attrs; probe with r's rows
	// directly (no key tuple is materialized). Probing with r keeps the
	// output row order stable. Matches accumulate as an (rID, sID) pair
	// vector; the output is materialized by one bulk gather per column.
	idx := newIndexOn(s, sc)
	// Seed the pair vectors at the probe cardinality: joins at least that
	// large skip the early doubling steps, smaller ones waste one slice.
	rIDs := make([]int32, 0, r.n)
	sIDs := make([]int32, 0, r.n)
	for i := 0; i < r.n; i++ {
		for _, si := range idx.lookupRel(r, i, rc) {
			rIDs = append(rIDs, int32(i))
			sIDs = append(sIDs, si)
		}
	}
	return joinGather(r, s, rIDs, sIDs)
}

// joinGather materializes the join output for matched (rID, sID) pairs:
// r's columns gathered by rIDs, s's private columns by sIDs.
func joinGather(r, s *Relation, rIDs, sIDs []int32) *Relation {
	sPrivate := s.schema.Minus(r.schema)
	out := New(r.schema.Union(s.schema))
	for c := range r.cols {
		out.cols[c] = r.cols[c].gather(rIDs)
	}
	for j, a := range sPrivate {
		out.cols[r.width+j] = s.cols[s.Pos(a)].gather(sIDs)
	}
	out.n = len(rIDs)
	return out
}

// SemijoinSel returns the selection vector of r ⋉ s over current selection
// vectors: the ids of r's rows (restricted to rsel; nil means all rows, in
// order) whose common-attribute key matches some s row (restricted to
// ssel). The result is always non-nil, ascending within rsel order, and no
// relation is materialized — this is the unit the Yannakakis passes chain.
// With no common attributes the semijoin degenerates to "keep everything
// iff the s side is nonempty".
func SemijoinSel(r *Relation, rsel []int32, s *Relation, ssel []int32) []int32 {
	common := r.schema.Intersect(s.schema)
	rn := selCount(r, rsel)
	if len(common) == 0 {
		if selCount(s, ssel) == 0 {
			return []int32{}
		}
		return selIdentity(r, rsel)
	}
	rc, sc := keyCols(r, s, common)
	set := semijoinKeySet(s, ssel, sc)
	sel := make([]int32, 0, rn)
	if rsel == nil {
		for i := 0; i < r.n; i++ {
			if set.ContainsRel(r, i, rc) {
				sel = append(sel, int32(i))
			}
		}
		return sel
	}
	for _, i := range rsel {
		if set.ContainsRel(r, int(i), rc) {
			sel = append(sel, i)
		}
	}
	return sel
}

// selCount returns the current cardinality under a selection vector.
func selCount(r *Relation, sel []int32) int {
	if sel == nil {
		return r.n
	}
	return len(sel)
}

// selIdentity materializes the explicit form of a selection vector: sel
// itself, or the identity vector when sel is nil.
func selIdentity(r *Relation, sel []int32) []int32 {
	if sel != nil {
		return sel
	}
	out := make([]int32, r.n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// semijoinKeySet builds the set of s's key tuples over the columns sc,
// restricted to ssel (nil = all rows).
func semijoinKeySet(s *Relation, ssel []int32, sc []int) *TupleSet {
	set := NewTupleSetSized(len(sc), selCount(s, ssel))
	if ssel == nil {
		for i := 0; i < s.n; i++ {
			set.AddRel(s, i, sc)
		}
		return set
	}
	for _, i := range ssel {
		set.AddRel(s, int(i), sc)
	}
	return set
}

// Semijoin returns r ⋉ s: the tuples of r that join with at least one tuple
// of s on their common attributes. With no common attributes, it is r if s
// is nonempty and empty otherwise.
func Semijoin(r, s *Relation) *Relation {
	return r.Gather(SemijoinSel(r, nil, s, nil))
}

// SemijoinInPlace filters r to r ⋉ s in place and returns r. It is the
// operator behind standalone semijoin passes, where rebuilding a fresh
// relation would double the tuple traffic.
func SemijoinInPlace(r, s *Relation) *Relation {
	sel := SemijoinSel(r, nil, s, nil)
	if len(sel) == r.n {
		return r
	}
	return r.Compact(sel)
}

// Difference returns r − s (set difference). The schemas must contain the
// same attribute set.
func Difference(r, s *Relation) *Relation {
	if !r.schema.SameSet(s.schema) {
		panic(fmt.Sprintf("relation: difference of incompatible schemas %v and %v", r.schema, s.schema))
	}
	if r.width == 0 {
		return NewBool(r.n > 0 && s.n == 0)
	}
	// Key s's tuples in r's column order, then keep r's non-members.
	perm := make([]int, r.width)
	for i, a := range r.schema {
		perm[i] = s.Pos(a)
	}
	set := NewTupleSetSized(r.width, s.n)
	for i := 0; i < s.n; i++ {
		set.AddRel(s, i, perm)
	}
	all := identity(r.width)
	sel := make([]int32, 0, r.n)
	for i := 0; i < r.n; i++ {
		if !set.ContainsRel(r, i, all) {
			sel = append(sel, int32(i))
		}
	}
	return r.Gather(sel).Dedup()
}

// CrossProduct returns r × s. The schemas must be disjoint.
func CrossProduct(r, s *Relation) *Relation {
	if len(r.schema.Intersect(s.schema)) != 0 {
		panic("relation: cross product of overlapping schemas")
	}
	return NaturalJoin(r, s)
}
