package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randRelation builds a random relation over the given schema with values
// drawn from a small domain, so joins and set operations hit collisions.
func randRelation(rnd *rand.Rand, schema Schema, maxRows int, domain int) *Relation {
	r := New(schema)
	n := rnd.Intn(maxRows + 1)
	row := make([]Value, len(schema))
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = Value(rnd.Intn(domain))
		}
		r.Append(row...)
	}
	return r
}

func qcfg(seed int64) *quick.Config {
	return &quick.Config{
		MaxCount: 60,
		Rand:     rand.New(rand.NewSource(seed)),
		Values:   nil,
	}
}

// Property: dedup is idempotent and never changes the tuple set.
func TestQuickDedupIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		r := randRelation(rnd, Schema{1, 2}, 30, 4)
		orig := r.Clone()
		r.Dedup()
		once := r.Clone()
		r.Dedup()
		return EqualSet(orig, r) && EqualSet(once, r)
	}
	if err := quick.Check(f, qcfg(1)); err != nil {
		t.Fatal(err)
	}
}

// Property: r ⋉ s == π_{schema(r)}(r ⋈ s) (semijoin law).
func TestQuickSemijoinIsProjectionOfJoin(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		r := randRelation(rnd, Schema{1, 2}, 20, 3)
		s := randRelation(rnd, Schema{2, 3}, 20, 3)
		left := Semijoin(r, s)
		right := Project(NaturalJoin(r, s), r.Schema())
		return EqualSet(left, right)
	}
	if err := quick.Check(f, qcfg(2)); err != nil {
		t.Fatal(err)
	}
}

// Property: natural join is commutative as a set (modulo column order).
func TestQuickJoinCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		r := randRelation(rnd, Schema{1, 2}, 15, 3)
		s := randRelation(rnd, Schema{2, 3}, 15, 3)
		return EqualSet(NaturalJoin(r, s), NaturalJoin(s, r))
	}
	if err := quick.Check(f, qcfg(3)); err != nil {
		t.Fatal(err)
	}
}

// Property: join is associative.
func TestQuickJoinAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		r := randRelation(rnd, Schema{1, 2}, 10, 3)
		s := randRelation(rnd, Schema{2, 3}, 10, 3)
		u := randRelation(rnd, Schema{3, 4}, 10, 3)
		left := NaturalJoin(NaturalJoin(r, s), u)
		right := NaturalJoin(r, NaturalJoin(s, u))
		return EqualSet(left, right)
	}
	if err := quick.Check(f, qcfg(4)); err != nil {
		t.Fatal(err)
	}
}

// Property: union (append, then Dedup) and difference behave like set
// algebra: (r ∪ s) − s ⊆ r  and  r ⊆ (r ∪ s).
func TestQuickUnionDifferenceLaws(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		r := randRelation(rnd, Schema{1, 2}, 20, 3).Dedup()
		s := randRelation(rnd, Schema{1, 2}, 20, 3).Dedup()
		un := r.Clone()
		for i := 0; i < s.Len(); i++ {
			un.AppendRowOf(s, i)
		}
		un.Dedup()
		diff := Difference(un, s)
		// diff ⊆ r
		for i := 0; i < diff.Len(); i++ {
			if !r.Contains(diff.Row(i)) {
				return false
			}
		}
		// r ⊆ un
		for i := 0; i < r.Len(); i++ {
			if !un.Contains(r.Row(i)) {
				return false
			}
		}
		// |un| = |r| + |s| - |r ∩ s| via difference both ways
		inter := Difference(r, Difference(r, s))
		return un.Len() == r.Len()+s.Len()-inter.Len()
	}
	if err := quick.Check(f, qcfg(5)); err != nil {
		t.Fatal(err)
	}
}

// Property: projection onto the full schema is the identity up to dedup.
func TestQuickProjectIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		r := randRelation(rnd, Schema{1, 2, 3}, 25, 3)
		p := Project(r, r.Schema())
		return EqualSet(p, r)
	}
	if err := quick.Check(f, qcfg(6)); err != nil {
		t.Fatal(err)
	}
}

// Property: index lookups agree with scans.
func TestQuickIndexAgreesWithScan(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		r := randRelation(rnd, Schema{1, 2}, 30, 4)
		ix := NewIndex(r, Schema{1})
		for key := Value(0); key < 4; key++ {
			want := 0
			for i := 0; i < r.Len(); i++ {
				if r.Row(i)[0] == key {
					want++
				}
			}
			if len(ix.Lookup([]Value{key})) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qcfg(7)); err != nil {
		t.Fatal(err)
	}
}

// Property: Sort then EqualSet with the original.
func TestQuickSortPreservesSet(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		r := randRelation(rnd, Schema{1, 2}, 30, 4)
		orig := r.Clone()
		r.Sort()
		return EqualSet(orig, r)
	}
	if err := quick.Check(f, qcfg(8)); err != nil {
		t.Fatal(err)
	}
}
