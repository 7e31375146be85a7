package relation

import (
	"testing"
)

func TestSelect(t *testing.T) {
	r := rel(t, Schema{1, 2}, []Value{1, 1}, []Value{1, 2}, []Value{2, 2})
	got := Select(r, func(row []Value) bool { return row[0] == row[1] })
	if got.Len() != 2 {
		t.Fatalf("Select kept %d rows, want 2", got.Len())
	}
	if !got.Contains([]Value{1, 1}) || !got.Contains([]Value{2, 2}) {
		t.Fatalf("Select result wrong: %v", got)
	}
}

func TestProjectDeduplicates(t *testing.T) {
	r := rel(t, Schema{1, 2}, []Value{1, 10}, []Value{1, 20}, []Value{2, 30})
	got := Project(r, Schema{1})
	if got.Len() != 2 {
		t.Fatalf("Project kept %d rows, want 2", got.Len())
	}
	if !got.Schema().Equal(Schema{1}) {
		t.Fatalf("Project schema = %v", got.Schema())
	}
}

func TestProjectToZeroAry(t *testing.T) {
	r := rel(t, Schema{1}, []Value{5})
	got := Project(r, nil)
	if !got.Bool() || got.Len() != 1 {
		t.Fatalf("projection of nonempty to 0-ary should be true, got %v", got)
	}
	empty := New(Schema{1})
	got = Project(empty, nil)
	if got.Bool() {
		t.Fatal("projection of empty to 0-ary should be false")
	}
}

func TestProjectReorders(t *testing.T) {
	r := rel(t, Schema{1, 2}, []Value{7, 8})
	got := Project(r, Schema{2, 1})
	row := got.Row(0)
	if row[0] != 8 || row[1] != 7 {
		t.Fatalf("reordering projection gave %v", row)
	}
}

func TestNaturalJoinBasic(t *testing.T) {
	r := rel(t, Schema{1, 2}, []Value{1, 10}, []Value{2, 20})
	s := rel(t, Schema{2, 3}, []Value{10, 100}, []Value{10, 101}, []Value{30, 300})
	got := NaturalJoin(r, s)
	if !got.Schema().Equal(Schema{1, 2, 3}) {
		t.Fatalf("join schema = %v", got.Schema())
	}
	if got.Len() != 2 {
		t.Fatalf("join size = %d, want 2", got.Len())
	}
	if !got.Contains([]Value{1, 10, 100}) || !got.Contains([]Value{1, 10, 101}) {
		t.Fatalf("join rows wrong: %v", got)
	}
}

func TestNaturalJoinIsCrossProductWhenDisjoint(t *testing.T) {
	r := rel(t, Schema{1}, []Value{1}, []Value{2})
	s := rel(t, Schema{2}, []Value{10}, []Value{20}, []Value{30})
	got := NaturalJoin(r, s)
	if got.Len() != 6 {
		t.Fatalf("cross product size = %d, want 6", got.Len())
	}
}

func TestNaturalJoinWithBooleanOperand(t *testing.T) {
	r := rel(t, Schema{1}, []Value{1})
	tt := NewBool(true)
	if got := NaturalJoin(r, tt); got.Len() != 1 {
		t.Fatalf("join with true = %v", got)
	}
	ff := NewBool(false)
	if got := NaturalJoin(r, ff); got.Len() != 0 {
		t.Fatalf("join with false = %v", got)
	}
}

func TestSemijoin(t *testing.T) {
	r := rel(t, Schema{1, 2}, []Value{1, 10}, []Value{2, 20}, []Value{3, 30})
	s := rel(t, Schema{2, 3}, []Value{10, 0}, []Value{30, 0})
	got := Semijoin(r, s)
	if got.Len() != 2 {
		t.Fatalf("semijoin size = %d, want 2", got.Len())
	}
	if !got.Schema().Equal(r.Schema()) {
		t.Fatalf("semijoin schema changed: %v", got.Schema())
	}
	if !got.Contains([]Value{1, 10}) || !got.Contains([]Value{3, 30}) {
		t.Fatalf("semijoin rows wrong: %v", got)
	}
}

func TestSemijoinDisjointSchemas(t *testing.T) {
	r := rel(t, Schema{1}, []Value{1}, []Value{2})
	nonempty := rel(t, Schema{2}, []Value{9})
	if got := Semijoin(r, nonempty); got.Len() != 2 {
		t.Fatalf("semijoin with nonempty disjoint = %d rows, want 2", got.Len())
	}
	empty := New(Schema{2})
	if got := Semijoin(r, empty); got.Len() != 0 {
		t.Fatalf("semijoin with empty disjoint = %d rows, want 0", got.Len())
	}
}

func TestDifference(t *testing.T) {
	r := rel(t, Schema{1, 2}, []Value{1, 2}, []Value{3, 4}, []Value{5, 6})
	s := rel(t, Schema{2, 1}, []Value{4, 3})
	got := Difference(r, s)
	if got.Len() != 2 {
		t.Fatalf("difference size = %d, want 2", got.Len())
	}
	if got.Contains([]Value{3, 4}) {
		t.Fatal("difference kept removed tuple")
	}
}

func TestDifferenceZeroAry(t *testing.T) {
	if got := Difference(NewBool(true), NewBool(false)); !got.Bool() {
		t.Fatal("true - false should be true")
	}
	if got := Difference(NewBool(true), NewBool(true)); got.Bool() {
		t.Fatal("true - true should be false")
	}
	if got := Difference(NewBool(false), NewBool(false)); got.Bool() {
		t.Fatal("false - false should be false")
	}
}

func TestRename(t *testing.T) {
	r := rel(t, Schema{1, 2}, []Value{7, 8})
	got := Rename(r, map[Attr]Attr{1: 5})
	if !got.Schema().Equal(Schema{5, 2}) {
		t.Fatalf("rename schema = %v", got.Schema())
	}
	if row := got.Row(0); row[0] != 7 || row[1] != 8 {
		t.Fatalf("rename changed data: %v", row)
	}
}

func TestCrossProductOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CrossProduct(New(Schema{1}), New(Schema{1, 2}))
}

func TestIndexLookupAndEach(t *testing.T) {
	r := rel(t, Schema{1, 2}, []Value{1, 10}, []Value{1, 20}, []Value{2, 30})
	ix := NewIndex(r, Schema{1})
	if got := ix.Lookup([]Value{1}); len(got) != 2 {
		t.Fatalf("Lookup(1) = %v, want 2 rows", got)
	}
	if got := ix.Lookup([]Value{9}); len(got) != 0 {
		t.Fatalf("Lookup(9) = %v, want none", got)
	}
	if ix.Distinct() != 2 {
		t.Fatalf("Distinct = %d, want 2", ix.Distinct())
	}
}

func TestIndexOnMissingAttrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewIndex(New(Schema{1}), Schema{9})
}

// TestJoinProjectAgainstNestedLoops cross-checks the hash join against a
// naive nested-loop join on a few handcrafted relations.
func TestJoinAgainstNestedLoops(t *testing.T) {
	r := rel(t, Schema{1, 2},
		[]Value{0, 0}, []Value{0, 1}, []Value{1, 1}, []Value{2, 0}, []Value{2, 2})
	s := rel(t, Schema{2, 3},
		[]Value{0, 0}, []Value{1, 0}, []Value{1, 2}, []Value{2, 2}, []Value{3, 3})
	got := NaturalJoin(r, s)

	want := New(Schema{1, 2, 3})
	for i := 0; i < r.Len(); i++ {
		for j := 0; j < s.Len(); j++ {
			a, b := r.Row(i), s.Row(j)
			if a[1] == b[0] {
				want.Append(a[0], a[1], b[1])
			}
		}
	}
	if !EqualSet(got, want) {
		t.Fatalf("hash join disagrees with nested loops:\n%v\nvs\n%v", got, want)
	}
}
