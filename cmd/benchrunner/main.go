// Command benchrunner regenerates every experiment of EXPERIMENTS.md: the
// Theorem 1 classification table (E1), the Figure 1 partial order (E2), the
// Theorem 2 tractability measurements (E3), the Theorem 3 hardness family
// (E4), the Section 5 example queries (E5), the Hamiltonian-path combined-
// complexity blowup (E6), the Vardi Datalog family (E7), the cyclic
// low-width decomposition workload (E8), the prepared-statement
// amortization (E9), the worst-case-optimal join workload (E10), the
// incremental-view-maintenance update workload (E11), the columnar
// substrate A/B (E12), the service-layer sustained-load and batching
// experiment (E13), and the ablations A1–A4, A6, A7.
//
// Usage:
//
//	benchrunner [-exp all|E1,E3,A2] [-quick]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

type experiment struct {
	id   string
	desc string
	run  func(w io.Writer, quick bool)
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (E1..E13, A1..A4, A6, A7, PAR) or 'all'")
	quick := flag.Bool("quick", false, "smaller sweeps (CI-sized)")
	flag.Parse()

	exps := []experiment{
		{"E1", "Theorem 1 classification table: reductions validated, exponents measured", runE1},
		{"E2", "Figure 1 partial order of parameterizations (Proposition 1)", runE2},
		{"E3", "Theorem 2: acyclic CQ with ≠ — near-linear in n, exponential only in k", runE3},
		{"E4", "Theorem 3: acyclic CQ with comparisons is W[1]-hard (clique family)", runE4},
		{"E5", "Section 5 examples: org-chart and registrar queries, engine vs baseline", runE5},
		{"E6", "Section 5: Hamiltonian path as a query — combined-complexity blowup", runE6},
		{"E7", "Section 4: Vardi's n^k Datalog family (arity-k IDB)", runE7},
		{"E8", "Cyclic low-width queries: decomposition engine vs n^O(q) backtracker", runE8},
		{"E9", "Prepared statements: compile-once/execute-many vs one-shot planning", runE9},
		{"E10", "Dense cyclic queries: worst-case-optimal leapfrog triejoin vs backtracker", runE10},
		{"E11", "Incremental view maintenance: 1-row update, delta Refresh vs full re-exec", runE11},
		{"E12", "Columnar substrate: narrow int32 codes vs wide cells on scan/semijoin/join", runE12},
		{"E13", "Service layer: sustained mixed-load QPS/p99 over HTTP; batching A/B on hot-key flood", runE13},
		{"A1", "Ablation: I2 pushdown vs all-hashed inequalities", runA1},
		{"A2", "Ablation: Yannakakis full reducer on/off", runA2},
		{"A3", "Ablation: join-order heuristic on/off", runA3},
		{"A4", "Ablation: Monte-Carlo confidence c vs measured success rate", runA4},
		{"A6", "Ablation: decomposition routing vs NoDecomp backtracker (cyclic low-width)", runA6},
		{"A7", "Ablation: wcoj routing vs NoWCOJ backtracker (dense cyclic)", runA7},
		{"PAR", "Parallel scaling: Parallelism sweep across engines and the join kernel", runPAR},
	}

	want := map[string]bool{}
	if *expFlag == "all" {
		for _, e := range exps {
			want[e.id] = true
		}
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	known := map[string]bool{}
	for _, e := range exps {
		known[e.id] = true
	}
	var unknown []string
	for id := range want {
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "unknown experiment ids: %s\n", strings.Join(unknown, ", "))
		os.Exit(2)
	}

	for _, e := range exps {
		if !want[e.id] {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.id, e.desc)
		e.run(os.Stdout, *quick)
		fmt.Println()
	}
}
