// Package relation implements the in-memory relational substrate used by
// every engine in this repository: values, schemas, column-major relations
// with per-column narrow codes, and the relational-algebra operators
// (selection, projection, natural join, semijoin, union, difference,
// rename) in the exact vocabulary of the paper's algorithms.
//
// Relations are stored column-major (see column.go): each column is an
// independent vector, narrow (4-byte int32 codes) while every value fits
// int32 — which, after Dict interning, is nearly always — and wide
// ([]Value) otherwise. Hot operators work directly on columns and exchange
// selection vectors ([]int32 row ids) instead of materialized rows; Row
// materializes a fresh tuple and is the cold-path/compatibility accessor.
//
// Relations are multiset-free: Append performs no deduplication, but every
// operator that can introduce duplicates (projection, union) deduplicates
// its output, and Dedup is available for callers that build relations row
// by row.
package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Value is a single domain element. Domains are integers; strings entering
// through the parser or CSV loader are interned to Values by a Dict.
type Value int64

// Attr identifies a column. Attributes are plain integers so that engines
// can map query variables to attributes directly; the core engine reserves
// a disjoint range for hashed color columns.
type Attr int32

// Schema is an ordered list of attributes. Attribute order determines the
// physical column layout; set-wise equality of schemas is what matters for
// union/difference, and operators reorder columns as needed.
type Schema []Attr

// Clone returns a copy of s.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Pos returns the position of a in s, or -1 if absent.
func (s Schema) Pos(a Attr) int {
	for i, x := range s {
		if x == a {
			return i
		}
	}
	return -1
}

// Has reports whether a occurs in s.
func (s Schema) Has(a Attr) bool { return s.Pos(a) >= 0 }

// Equal reports whether s and t are identical as ordered lists.
func (s Schema) Equal(t Schema) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// SameSet reports whether s and t contain the same attributes, in any order.
func (s Schema) SameSet(t Schema) bool {
	if len(s) != len(t) {
		return false
	}
	seen := make(map[Attr]bool, len(s))
	for _, a := range s {
		seen[a] = true
	}
	for _, a := range t {
		if !seen[a] {
			return false
		}
	}
	return true
}

// Intersect returns the attributes common to s and t, in s's order.
func (s Schema) Intersect(t Schema) Schema {
	var out Schema
	for _, a := range s {
		if t.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// Minus returns the attributes of s not in t, in s's order.
func (s Schema) Minus(t Schema) Schema {
	var out Schema
	for _, a := range s {
		if !t.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// Union returns s followed by the attributes of t not already in s.
func (s Schema) Union(t Schema) Schema {
	out := s.Clone()
	for _, a := range t {
		if !s.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, a := range s {
		parts[i] = fmt.Sprintf("a%d", a)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Relation is a set of tuples over a schema, stored column-major. The
// zero-width relation is valid and represents a Boolean: empty means false,
// one (empty) tuple means true.
type Relation struct {
	schema Schema
	width  int
	n      int // number of tuples; needed explicitly because width may be 0
	cols   []column
}

// New returns an empty relation over schema. The schema must not repeat
// attributes.
func New(schema Schema) *Relation {
	for i, a := range schema {
		for _, b := range schema[:i] {
			if a == b {
				panic(fmt.Sprintf("relation: duplicate attribute a%d in schema %v", a, schema))
			}
		}
	}
	r := &Relation{schema: schema.Clone(), width: len(schema)}
	r.cols = make([]column, r.width) // zero columns: empty, narrow
	return r
}

// NewBool returns a zero-ary relation holding the given truth value.
func NewBool(truth bool) *Relation {
	r := New(nil)
	if truth {
		r.Append()
	}
	return r
}

// Schema returns the relation's schema. Callers must not modify it.
func (r *Relation) Schema() Schema { return r.schema }

// Width returns the number of columns.
func (r *Relation) Width() int { return r.width }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return r.n == 0 }

// Bool interprets a zero-ary relation as a truth value: nonempty is true.
// It is also meaningful for wider relations ("is the answer nonempty?").
func (r *Relation) Bool() bool { return r.n > 0 }

// At returns the value in column c of row i — the zero-allocation accessor
// hot loops read through.
func (r *Relation) At(c, i int) Value { return r.cols[c].at(i) }

// Row materializes the i-th tuple into a fresh slice. It is the
// compatibility accessor for cold paths; hot loops read At or RowTo
// instead. The result is the caller's to keep.
func (r *Relation) Row(i int) []Value {
	return r.RowTo(make([]Value, r.width), i)
}

// RowTo fills dst (reallocating if too small) with the i-th tuple and
// returns it, letting scanning callers reuse one buffer across rows.
func (r *Relation) RowTo(dst []Value, i int) []Value {
	if cap(dst) < r.width {
		dst = make([]Value, r.width)
	}
	dst = dst[:r.width]
	for c := range r.cols {
		dst[c] = r.cols[c].at(i)
	}
	return dst
}

// Append adds one tuple. The number of values must equal the width.
func (r *Relation) Append(tuple ...Value) {
	if len(tuple) != r.width {
		panic(fmt.Sprintf("relation: appended tuple has %d values, schema %v has width %d",
			len(tuple), r.schema, r.width))
	}
	for c := range r.cols {
		r.cols[c].push(tuple[c])
	}
	r.n++
}

// AppendRowOf appends row i of src, which must have the same width, by
// positional column copy — no intermediate tuple is materialized.
func (r *Relation) AppendRowOf(src *Relation, i int) {
	if src.width != r.width {
		panic(fmt.Sprintf("relation: AppendRowOf width %d into width %d", src.width, r.width))
	}
	for c := range r.cols {
		r.cols[c].push(src.cols[c].at(i))
	}
	r.n++
}

// Clear removes every tuple in place, retaining column capacity (and each
// column's narrow/wide representation), and returns r. It is the reuse hook
// for short-lived scratch relations — see internal/ivm's delta arena —
// where per-refresh relation.New calls would pay schema cloning and
// per-column slice construction for a handful of rows.
func (r *Relation) Clear() *Relation {
	for c := range r.cols {
		r.cols[c].truncate(0)
	}
	r.n = 0
	return r
}

// SwapRemove deletes the i-th tuple in O(width): the last tuple moves into
// position i (set semantics — row order is not meaningful) and the relation
// shrinks by one. Callers holding row ids into r (frozen indexes) must
// treat them as invalidated.
func (r *Relation) SwapRemove(i int) {
	last := r.n - 1
	for c := range r.cols {
		if i != last {
			r.cols[c].set(i, r.cols[c].at(last))
		}
		r.cols[c].truncate(last)
	}
	r.n--
}

// Pos returns the column position of a, or -1.
func (r *Relation) Pos(a Attr) int { return r.schema.Pos(a) }

// Clone returns a deep copy of r.
func (r *Relation) Clone() *Relation {
	out := New(r.schema)
	for c := range r.cols {
		out.cols[c] = r.cols[c].clone()
	}
	out.n = r.n
	return out
}

// Bytes returns the resident payload bytes of the relation's columns: 4 per
// narrow cell, 8 per wide cell. It is the actual-cost input to governor
// charging, replacing the width×8 estimate for materialized relations.
func (r *Relation) Bytes() int64 {
	var b int64
	for c := range r.cols {
		b += r.cols[c].bytes()
	}
	return b
}

// ColNarrow returns column c's narrow int32 backing, or nil if the column
// is stored wide. The slice is a read-only view — callers must not modify
// it or retain it across appends.
func (r *Relation) ColNarrow(c int) []int32 { return r.cols[c].nv }

// ColWide returns column c's wide []Value backing, or nil if the column is
// stored narrow. The slice is a read-only view — callers must not modify
// it or retain it across appends.
func (r *Relation) ColWide(c int) []Value { return r.cols[c].wv }

// Gather returns a new relation holding r's rows at the given row ids, in
// sel order, by per-column bulk copy. It is the materialization boundary of
// selection-vector execution: passes accumulate row-id vectors and Gather
// pays the copy once.
func (r *Relation) Gather(sel []int32) *Relation {
	out := New(r.schema)
	for c := range r.cols {
		out.cols[c] = r.cols[c].gather(sel)
	}
	out.n = len(sel)
	return out
}

// GatherCols returns a relation over schema whose j-th column is r's
// column cols[j] gathered at the sel row ids — a fused select-project for
// callers that compute their own selection vector and column mapping.
func (r *Relation) GatherCols(schema Schema, cols []int, sel []int32) *Relation {
	if len(schema) != len(cols) {
		panic("relation: GatherCols schema/cols length mismatch")
	}
	out := New(schema)
	for j, c := range cols {
		out.cols[j] = r.cols[c].gather(sel)
	}
	out.n = len(sel)
	return out
}

// Compact keeps exactly the rows at the (ascending) row ids of sel, in
// place, and returns r. It is the in-place counterpart of Gather.
func (r *Relation) Compact(sel []int32) *Relation {
	for c := range r.cols {
		r.cols[c].compact(sel)
	}
	r.n = len(sel)
	return r
}

// Dedup removes duplicate tuples in place and returns r.
func (r *Relation) Dedup() *Relation {
	if r.n <= 1 {
		return r
	}
	if r.width == 0 {
		r.n = 1
		return r
	}
	seen := NewTupleSetSized(r.width, r.n)
	all := identity(r.width)
	sel := make([]int32, 0, r.n)
	for i := 0; i < r.n; i++ {
		if seen.AddRel(r, i, all) {
			sel = append(sel, int32(i))
		}
	}
	if len(sel) == r.n {
		return r
	}
	return r.Compact(sel)
}

// Contains reports whether tuple is present in r (linear scan; use an Index
// for repeated membership tests).
func (r *Relation) Contains(tuple []Value) bool {
	if len(tuple) != r.width {
		return false
	}
	if r.width == 0 {
		return r.n > 0
	}
	all := identity(r.width)
	for i := 0; i < r.n; i++ {
		if relEqualCols(r, i, all, tuple) {
			return true
		}
	}
	return false
}

// Sort orders tuples lexicographically in place and returns r. Useful for
// canonical output and set comparison.
func (r *Relation) Sort() *Relation {
	if r.width == 0 || r.n <= 1 {
		return r
	}
	idx := make([]int32, r.n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := int(idx[a]), int(idx[b])
		for c := range r.cols {
			va, vb := r.cols[c].at(ia), r.cols[c].at(ib)
			if va != vb {
				return va < vb
			}
		}
		return false
	})
	for c := range r.cols {
		r.cols[c] = r.cols[c].gather(idx)
	}
	return r
}

// EqualSet reports whether r and s hold the same set of tuples over the same
// attribute set (column order may differ). Both are deduplicated conceptually:
// duplicates do not affect the answer.
func EqualSet(r, s *Relation) bool {
	if !r.schema.SameSet(s.schema) {
		return false
	}
	if r.width == 0 {
		return (r.n > 0) == (s.n > 0)
	}
	// Reorder s's columns to r's schema and compare key sets.
	perm := make([]int, r.width)
	for i, a := range r.schema {
		perm[i] = s.Pos(a)
	}
	rk := NewTupleSetSized(r.width, r.n)
	all := identity(r.width)
	for i := 0; i < r.n; i++ {
		rk.AddRel(r, i, all)
	}
	sk := NewTupleSetSized(r.width, s.n)
	for i := 0; i < s.n; i++ {
		if !rk.ContainsRel(s, i, perm) {
			return false
		}
		sk.AddRel(s, i, perm)
	}
	return rk.Len() == sk.Len()
}

// ActiveDomain returns the sorted set of values appearing anywhere in the
// given relations.
func ActiveDomain(rels ...*Relation) []Value {
	seen := make(map[Value]bool)
	for _, r := range rels {
		for c := range r.cols {
			if wv := r.cols[c].wv; wv != nil {
				for _, v := range wv {
					seen[v] = true
				}
				continue
			}
			for _, v := range r.cols[c].nv {
				seen[Value(v)] = true
			}
		}
	}
	out := make([]Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the relation as a small table, for debugging and the CLIs.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v #%d\n", r.schema, r.n)
	limit := r.n
	if limit > 20 {
		limit = 20
	}
	for i := 0; i < limit; i++ {
		parts := make([]string, r.width)
		for j := range parts {
			parts[j] = fmt.Sprintf("%d", r.At(j, i))
		}
		b.WriteString("  [" + strings.Join(parts, " ") + "]\n")
	}
	if limit < r.n {
		fmt.Fprintf(&b, "  ... (%d more)\n", r.n-limit)
	}
	return b.String()
}
