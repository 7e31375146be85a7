package relation

// Tuple hashing. Every membership set and hash index in the engine keys
// tuples by a 64-bit mixing hash over []Value rows, compared value-wise on
// collision — no string keys, no per-probe allocation. The hot-path rule is:
// a tuple probe must not allocate.
//
// The mixer is the splitmix64 finalizer: cheap (three shifts, two
// multiplies), bijective, and empirically strong enough that adversarial
// Value patterns (dense small ints, multiples of 2^32, ±2^63 extremes)
// spread across the table; correctness never depends on hash quality
// because every probe confirms equality on the raw values.

const (
	hashSeed  uint64 = 0x9e3779b97f4a7c15 // golden-ratio increment
	hashMult  uint64 = 0x9ddfea08eb382d69 // from CityHash's Hash128to64
	emptySlot int32  = -1
)

// mix64 is the splitmix64 finalizer: a bijection on uint64 with good
// avalanche behaviour.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashRow hashes a full tuple. The combiner is sequence-sensitive, so
// (1,2) and (2,1) hash differently.
func hashRow(row []Value) uint64 {
	h := hashSeed ^ uint64(len(row))*hashMult
	for _, v := range row {
		h = mix64(h ^ (uint64(v) * hashMult))
	}
	return h
}

// hashRelCols hashes the projection of row i of r onto the column
// positions cols without materializing it: the columns are read in place,
// narrow codes widened on the fly, so the hash equals hashRow of the
// projected tuple whatever the storage.
func hashRelCols(r *Relation, i int, cols []int) uint64 {
	h := hashSeed ^ uint64(len(cols))*hashMult
	for _, c := range cols {
		h = mix64(h ^ (uint64(r.cols[c].at(i)) * hashMult))
	}
	return h
}

// rowsEqual reports element-wise equality of two same-width tuples.
func rowsEqual(a, b []Value) bool {
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

// relEqualCols reports whether the projection of row i of r onto cols
// equals key.
func relEqualCols(r *Relation, i int, cols []int, key []Value) bool {
	for k, c := range cols {
		if r.cols[c].at(i) != key[k] {
			return false
		}
	}
	return true
}

// identity lists the column positions 0..w-1 — the cols argument that
// makes a *Rel probe read a whole row.
func identity(w int) []int {
	cols := make([]int, w)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// nextPow2 returns the smallest power of two ≥ n (and ≥ 8).
func nextPow2(n int) int {
	c := 8
	for c < n {
		c <<= 1
	}
	return c
}
