package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// The metric tables are the one definition of what the benchmark reports:
// BENCHMARK.json is printed from them (-manifest), every result is checked
// against them before it is printed, and -compare takes its bounds and
// directions from them.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const runSeconds = 25

// endToEndDefs are what a user of the system sees. Every workload reports
// every one of them, and none can be 0. One bound serves a metric in all
// four workloads, so each is three times the widest run-to-run spread that
// metric showed on any workload over ten runs with ten seeds (README,
// "Bounds"), and 0.25, the most a bound may be, where that is less.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"p50_ms", "ms", "lower", 0.15},
	{"p99_ms", "ms", "lower", 0.25},
}

var perLayerDefs = buildPerLayer()

var perLayerUnit = func() map[string]string {
	m := make(map[string]string, len(perLayerDefs))
	for _, d := range perLayerDefs {
		m[d.Name] = d.Unit
	}
	return m
}()

func buildPerLayer() []metricDef {
	lower := func(unit string, names ...string) []metricDef {
		out := make([]metricDef, len(names))
		for i, n := range names {
			out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
		}
		return out
	}
	var d []metricDef
	// Request path, by differential replay.
	d = append(d, lower("us", "transport.self_us", "server.protocol.self_us", "server.protocol.render_us_per_krow",
		"server.service.self_us", "server.service.nobatch_self_us", "pyquery.exec_us")...)
	// The child's public /stats after the wire replay.
	d = append(d, metricDef{Name: "server.service.batched_share", Unit: "ratio", Better: "higher"})
	d = append(d, lower("count", "server.admission.overloads", "server.service.gov_trips")...)
	d = append(d, lower("us", "server.stats.exec_p50_us.adj")...)
	for _, sh := range shapes {
		d = append(d, lower("us", "server.stats.exec_p50_us."+sh.name, "stmt."+sh.name+".wire_us", "stmt."+sh.name+".exec_us")...)
		d = append(d, lower("count", "stmt."+sh.name+".rows")...)
		d = append(d, lower("ratio", "stmt."+sh.name+".share")...)
		d = append(d, lower("enum", "stmt."+sh.name+".engine")...)
		d = append(d, lower("us", "pyquery.plan_us."+sh.name, "pyquery.prepare_us."+sh.name, "pyquery.exec_us."+sh.name)...)
		d = append(d, lower("ratio", "plan.qerror."+sh.name)...)
	}
	// Write path.
	d = append(d, lower("us", "query.insert_us", "query.delete_us", "server.mutate.self_us", "ivm.refresh_us", "ivm.rebuild_us",
		"server.lock.read_stall_us", "churn.read_p50_us", "churn.read_p99_us", "churn.write_p50_us", "loadgen.late_us_p99")...)
	// Planning path.
	d = append(d, lower("us", "parser.parse_us", "stats.collect_us_per_krow", "adhoc.hot_us", "adhoc.cold_us")...)
	// Kernels and the paper's bounds.
	d = append(d, lower("ns", "relation.join_ns_per_row", "relation.semijoin_ns_per_row", "relation.index_build_ns_per_row", "relation.probe_ns")...)
	d = append(d, lower("exponent", "yannakakis.slope_n", "core.slope_n")...)
	d = append(d, lower("ratio", "governor.overhead_share", "trace.overhead_share")...)
	d = append(d, metricDef{Name: "parallel.speedup_p2", Unit: "ratio", Better: "higher"})
	// Process and harness.
	d = append(d, lower("MB", "proc.peak_rss_mb", "lib.live_heap_mb")...)
	d = append(d, lower("s", "proc.cpu_user_s", "proc.cpu_sys_s")...)
	d = append(d, lower("ms", "proc.cpu_ms_per_op")...)
	d = append(d, lower("count", "lib.allocs_per_op")...)
	d = append(d, lower("B", "lib.bytes_per_op")...)
	d = append(d, metricDef{Name: "trace.replay_ops", Unit: "count", Better: "higher"})
	return d
}

func defsFor(trace int) []metricDef {
	if trace == 0 {
		return endToEndDefs
	}
	return perLayerDefs
}

// conform checks that a result carries exactly the declared metrics, each
// finite and in its declared unit.
func conform(r *result, defs []metricDef) error {
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is not finite", d.Name)
		}
	}
	if len(r.Metrics) != len(defs) {
		declared := map[string]bool{}
		for _, d := range defs {
			declared[d.Name] = true
		}
		var extra []string
		for name := range r.Metrics {
			if !declared[name] {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("undeclared metrics %v", extra)
	}
	return nil
}

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	// metricDef omits a zero bound, which is exactly the per-layer form.
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{[]string{"bash", "benchmark/run.sh"}, []string{"benchmark"}, runSeconds, nil, endToEndDefs, perLayerDefs}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	return append(b, '\n'), err
}
