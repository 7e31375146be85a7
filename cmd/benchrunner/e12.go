package main

import (
	"fmt"
	"io"
	"time"

	"pyquery/internal/bench"
	"pyquery/internal/relation"
	"pyquery/internal/stats"
)

// runE12 measures the columnar-substrate claim (PR 9): relations store
// column-major with per-column narrow int32 codes when every value fits,
// so hot kernels touch 4-byte cells and contiguous slices. The A/B selects
// the representation the way the code itself does, from the input: the
// "narrow" arm is an interned workload (small symbol codes, the paper's
// typical database encoding), the "wide" arm the same workload with every
// id shifted outside the int32 range, so each column widens to 8-byte
// values — the row-major layout's per-cell cost in columnar clothes.
// Measured: a stats scan, a semijoin, a natural join, and the resident
// relation bytes. The acceptance bar is ≥1.5x on semijoin/probe throughput
// or ≥1.5x on peak bytes; narrow codes halve every cell, so the bytes
// column must read 2x.
func runE12(w io.Writer, quick bool) {
	n := 200000
	if quick {
		n = 40000
	}

	// build constructs the workload with every id offset by base:
	// lhs(0,1) ⋈/⋉ rhs(1,2) with moderate key fanout.
	build := func(base relation.Value) (lhs, rhs *relation.Relation) {
		lhs = relation.New(relation.Schema{0, 1})
		rhs = relation.New(relation.Schema{1, 2})
		for i := 0; i < n; i++ {
			lhs.Append(base+relation.Value(i%(n/40)), base+relation.Value(i%(n/20)))
			rhs.Append(base+relation.Value(i%(n/80)), base+relation.Value(i%250))
		}
		return lhs, rhs
	}

	type arm struct {
		scan, semi, join float64
		bytes            int64
	}
	measure := func(base relation.Value) arm {
		lhs, rhs := build(base)
		var a arm
		a.bytes = lhs.Bytes() + rhs.Bytes()
		a.scan = bench.Seconds(20*time.Millisecond, func() {
			stats.Of(lhs)
		})
		a.semi = bench.Seconds(20*time.Millisecond, func() {
			relation.Semijoin(lhs, rhs)
		})
		a.join = bench.Seconds(20*time.Millisecond, func() {
			relation.NaturalJoin(lhs, rhs)
		})
		return a
	}

	narrow := measure(0)
	wide := measure(1 << 40)

	rows := [][]string{
		{"stats scan", bench.FmtSeconds(wide.scan), bench.FmtSeconds(narrow.scan), bench.FmtFloat(wide.scan / narrow.scan)},
		{"semijoin", bench.FmtSeconds(wide.semi), bench.FmtSeconds(narrow.semi), bench.FmtFloat(wide.semi / narrow.semi)},
		{"natural join", bench.FmtSeconds(wide.join), bench.FmtSeconds(narrow.join), bench.FmtFloat(wide.join / narrow.join)},
		{"resident bytes", fmt.Sprintf("%d", wide.bytes), fmt.Sprintf("%d", narrow.bytes), bench.FmtFloat(float64(wide.bytes) / float64(narrow.bytes))},
	}
	fmt.Fprint(w, bench.Table([]string{"kernel", "wide (8B cells)", "narrow (4B codes)", "wide/narrow"}, rows))
	fmt.Fprintf(w, "(%d-row interned workload; identical outputs both arms. Narrow codes halve\n", n)
	fmt.Fprintln(w, "every cell, so resident bytes must read 2.0x; kernel ratios show the")
	fmt.Fprintln(w, "bandwidth effect of 4-byte contiguous columns on scan/probe-heavy operators)")
}
