package relation

import "pyquery/internal/parallel"

// Partitioned (sharded) variants of the join/semijoin kernel. The build
// side is hash-partitioned by join key into per-shard TupleIndex/TupleSet
// containers built concurrently, and the probe side is scanned in
// contiguous per-worker chunks, each probing whichever shard its row's key
// hashes to (shards are frozen and read-only by then). Per-worker match
// vectors are concatenated in worker order, so every partitioned operator
// produces exactly the tuple order of its serial counterpart — callers can
// switch between them freely without perturbing downstream iteration
// order.
//
// The shard id is taken from the TOP bits of the same splitmix64 tuple hash
// (hash.go) the containers key on; their shared open-addressed table
// (hashtab.go) uses the LOW bits for slots at every key width, so
// restricting a shard to one top-bit class leaves its slot distribution
// uniform.

// parMinRows gates the partitioned paths: below this many total rows the
// goroutine + partitioning overhead outweighs the win and the serial kernel
// is used. A variable so tests can force the sharded path on tiny inputs.
var parMinRows = 4096

// maxShards caps the partition count (shard ids are stored in a byte array
// during the build scan).
const maxShards = 64

// shardPlan returns the shard count (a power of two ≤ maxShards covering
// workers) and the right-shift that maps a 64-bit hash to a shard id.
func shardPlan(workers int) (shards int, shift uint) {
	shards = 1
	for shards < workers && shards < maxShards {
		shards <<= 1
	}
	bits := uint(0)
	for 1<<bits < shards {
		bits++
	}
	return shards, 64 - bits
}

// NaturalJoinPar is NaturalJoin evaluated with the given worker budget:
// the build side s is hash-partitioned by the common attributes into
// per-shard indexes built concurrently, and r's rows are probed in
// parallel chunks collecting per-worker (rID, sID) match vectors; the
// output is then materialized by one bulk gather per column. workers <= 1,
// small inputs, and attribute-disjoint schemas fall back to the serial
// kernel. The output is identical to NaturalJoin(r, s), including tuple
// order.
func NaturalJoinPar(r, s *Relation, workers int) *Relation {
	common := r.schema.Intersect(s.schema)
	if workers <= 1 || len(common) == 0 || r.n+s.n < parMinRows {
		return NaturalJoin(r, s)
	}
	rc, sc := keyCols(r, s, common)
	idx, shift := shardedIndexes(s, sc, workers)

	type pairs struct{ rIDs, sIDs []int32 }
	outs := make([]pairs, workers)
	parallel.Chunks(workers, r.n, func(w, lo, hi int) {
		var p pairs
		for i := lo; i < hi; i++ {
			sh := hashRelCols(r, i, rc) >> shift
			for _, si := range idx[sh].IDsRel(r, i, rc) {
				p.rIDs = append(p.rIDs, int32(i))
				p.sIDs = append(p.sIDs, si)
			}
		}
		outs[w] = p
	})
	total := 0
	for w := range outs {
		total += len(outs[w].rIDs)
	}
	rIDs := make([]int32, 0, total)
	sIDs := make([]int32, 0, total)
	for w := range outs {
		rIDs = append(rIDs, outs[w].rIDs...)
		sIDs = append(sIDs, outs[w].sIDs...)
	}
	return joinGather(r, s, rIDs, sIDs)
}

// SemijoinSelPar is SemijoinSel evaluated with the given worker budget:
// the s side is hash-partitioned into per-shard key sets built
// concurrently, and the r side is probed in parallel chunks. The result is
// identical to SemijoinSel(r, rsel, s, ssel), including order.
func SemijoinSelPar(r *Relation, rsel []int32, s *Relation, ssel []int32, workers int) []int32 {
	common := r.schema.Intersect(s.schema)
	rn, sn := selCount(r, rsel), selCount(s, ssel)
	if workers <= 1 || len(common) == 0 || rn+sn < parMinRows {
		return SemijoinSel(r, rsel, s, ssel)
	}
	rc, sc := keyCols(r, s, common)
	sets, shift := shardedKeySets(s, ssel, sc, workers)

	outs := make([][]int32, workers)
	parallel.Chunks(workers, rn, func(w, lo, hi int) {
		var local []int32
		for k := lo; k < hi; k++ {
			i := k
			if rsel != nil {
				i = int(rsel[k])
			}
			sh := hashRelCols(r, i, rc) >> shift
			if sets[sh].ContainsRel(r, i, rc) {
				local = append(local, int32(i))
			}
		}
		outs[w] = local
	})
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	sel := make([]int32, 0, total)
	for _, o := range outs {
		sel = append(sel, o...)
	}
	return sel
}

// SemijoinPar is Semijoin evaluated with the given worker budget. The
// output is identical to Semijoin(r, s), including tuple order.
func SemijoinPar(r, s *Relation, workers int) *Relation {
	return r.Gather(SemijoinSelPar(r, nil, s, nil, workers))
}

// SemijoinInPlacePar is SemijoinInPlace evaluated with the given worker
// budget: the survivor ids are computed in parallel chunks against
// per-shard key sets, then r's columns are compacted serially. The result
// is identical to SemijoinInPlace(r, s), including tuple order.
func SemijoinInPlacePar(r, s *Relation, workers int) *Relation {
	sel := SemijoinSelPar(r, nil, s, nil, workers)
	if len(sel) == r.n {
		return r
	}
	return r.Compact(sel)
}

// keyCols maps the shared key attributes onto each side's column
// positions, in the same attribute order, so hashing r's rows on rc and
// s's rows on sc produces identical key hashes.
func keyCols(r, s *Relation, common Schema) (rc, sc []int) {
	rc = make([]int, len(common))
	sc = make([]int, len(common))
	for i, a := range common {
		rc[i] = r.Pos(a)
		sc[i] = s.Pos(a)
	}
	return rc, sc
}

// shardedIndexes hash-partitions s by the key columns sc and builds one
// frozen TupleIndex per shard concurrently. Row ids stay ascending within
// each shard, so per-key insertion order matches a serial build.
func shardedIndexes(s *Relation, sc []int, workers int) ([]*TupleIndex, uint) {
	shards, shift := shardPlan(workers)
	byShard, off := shardRows(s, nil, sc, shards, shift, workers)
	idx := make([]*TupleIndex, shards)
	parallel.ForEach(workers, shards, func(sh int) {
		ids := byShard[off[sh]:off[sh+1]]
		ix := NewTupleIndexSized(len(sc), len(ids))
		for _, i := range ids {
			ix.AddRel(s, int(i), sc, i)
		}
		ix.Freeze()
		idx[sh] = ix
	})
	return idx, shift
}

// shardedKeySets hash-partitions s's key tuples (columns sc, restricted to
// ssel) into one TupleSet per shard, built concurrently.
func shardedKeySets(s *Relation, ssel []int32, sc []int, workers int) ([]*TupleSet, uint) {
	shards, shift := shardPlan(workers)
	byShard, off := shardRows(s, ssel, sc, shards, shift, workers)
	sets := make([]*TupleSet, shards)
	parallel.ForEach(workers, shards, func(sh int) {
		ids := byShard[off[sh]:off[sh+1]]
		set := NewTupleSetSized(len(sc), len(ids))
		for _, i := range ids {
			set.AddRel(s, int(i), sc)
		}
		sets[sh] = set
	})
	return sets, shift
}

// shardRows hash-partitions s's row ids (restricted to ssel; nil = all) by
// shard (top hash bits of the key columns): shard ids are computed in
// parallel chunks, then one serial counting pass groups the ids so that
// byShard[off[sh]:off[sh+1]] lists shard sh's rows in ascending selection
// order — each shard build touches only its own rows instead of rescanning
// all of s.
func shardRows(s *Relation, ssel []int32, sc []int, shards int, shift uint, workers int) (byShard, off []int32) {
	n := selCount(s, ssel)
	shardOf := make([]uint8, n)
	parallel.Chunks(workers, n, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			i := k
			if ssel != nil {
				i = int(ssel[k])
			}
			shardOf[k] = uint8(hashRelCols(s, i, sc) >> shift)
		}
	})
	off = make([]int32, shards+1)
	for _, sh := range shardOf {
		off[sh+1]++
	}
	for i := 0; i < shards; i++ {
		off[i+1] += off[i]
	}
	byShard = make([]int32, n)
	cursor := append([]int32(nil), off[:shards]...)
	for k, sh := range shardOf {
		i := int32(k)
		if ssel != nil {
			i = ssel[k]
		}
		byShard[cursor[sh]] = i
		cursor[sh]++
	}
	return byShard, off
}
