package relation

import "testing"

// Alloc budgets for the hot kernels, mirroring the root package's
// BenchmarkMicro_Semijoin / BenchmarkMicro_NaturalJoin workloads (20k-row
// inputs, interned-style small values). The budgets are the counts measured
// once every container ran on the shared open-addressed table (13 and 82,
// the same under -race) plus 10 %. Both operators allocate a constant
// number of times per call (containers, selection vector, output columns)
// — a per-row or per-probe allocation sneaking back in blows these bounds
// by orders of magnitude, which is exactly the regression these tests pin.

func microInputs(rhsMod int) (lhs, rhs *Relation) {
	lhs = New(Schema{0, 1})
	rhs = New(Schema{1, 2})
	for i := 0; i < 20000; i++ {
		lhs.Append(Value(i%500), Value(i%1000))
		rhs.Append(Value(i%rhsMod), Value(i%250))
	}
	return lhs, rhs
}

func TestAllocBudgetSemijoin(t *testing.T) {
	lhs, rhs := microInputs(300)
	const budget = 14
	got := testing.AllocsPerRun(10, func() { Semijoin(lhs, rhs) })
	if got > budget {
		t.Fatalf("Semijoin allocations: %.0f per op, budget %d", got, budget)
	}
}

func TestAllocBudgetNaturalJoin(t *testing.T) {
	lhs, rhs := microInputs(1000)
	const budget = 90
	got := testing.AllocsPerRun(10, func() { NaturalJoin(lhs, rhs) })
	if got > budget {
		t.Fatalf("NaturalJoin allocations: %.0f per op, budget %d", got, budget)
	}
}

// The per-probe containers must not allocate: a TupleSet membership probe
// and a frozen TupleIndex id-span lookup read the columns in place, and
// TupleMap.Get and TupleCounter.Count share the same table probe.
func TestAllocBudgetProbes(t *testing.T) {
	lhs, rhs := microInputs(300)
	set := NewTupleSetSized(1, rhs.Len())
	for i := 0; i < rhs.Len(); i++ {
		set.AddRel(rhs, i, []int{0})
	}
	cols := []int{1}
	if got := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			set.ContainsRel(lhs, i, cols)
		}
	}); got > 0 {
		t.Fatalf("TupleSet.ContainsRel allocates: %.2f per 64 probes", got)
	}
	idx := newIndexOn(rhs, []int{0})
	if got := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			idx.lookupRel(lhs, i, cols)
		}
	}); got > 0 {
		t.Fatalf("Index.lookupRel allocates: %.2f per 64 probes", got)
	}
	m, c := NewTupleMap(2), NewTupleCounter(2)
	keys := make([][]Value, 64)
	for i := range keys {
		keys[i] = lhs.Row(i)
		if i%2 == 0 {
			m.Set(keys[i], int32(i))
			c.Add(keys[i], 1)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			m.Get(k)
		}
	}); got > 0 {
		t.Fatalf("TupleMap.Get allocates: %.2f per 64 probes", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			c.Count(k)
		}
	}); got > 0 {
		t.Fatalf("TupleCounter.Count allocates: %.2f per 64 probes", got)
	}
}
