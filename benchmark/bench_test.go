package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// TestSmoke runs all four workloads, untraced and traced, at tiny sizes
// and sub-second windows, and holds the output to the contract
// BENCHMARK.json states: every declared metric once per workload, finite,
// well named, nothing undeclared, and no failed operation.
func TestSmoke(t *testing.T) {
	e := newEnv(t.TempDir(), full().scaled(0.05))
	e.setups = 1
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(endToEndDefs) > 16 || len(perLayerDefs) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(endToEndDefs), len(perLayerDefs))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		for mode, seconds := range []float64{0.3, 0.5} {
			r, err := runOne(w.name, e, 7, seconds, mode, "")
			if err != nil {
				t.Fatalf("%s (trace %d): %v", w.name, mode, err)
			}
			if r.Failed != 0 || !r.Correct || r.Attempted < 1 {
				t.Errorf("%s (trace %d): %d of %d operations failed", w.name, mode, r.Failed, r.Attempted)
			}
			for k, m := range r.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, k, m.Value)
				}
				if mode == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, k, m.Value)
				}
			}
		}
	}
}

// TestManifest keeps the committed BENCHMARK.json equal to the tables the
// program reports from.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
	var m map[string]any
	if err := json.Unmarshal(got, &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(m))
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := metricDef{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	at := func(med, iqr float64) summary { return summary{Median: med, Q1: med - iqr/2, Q3: med + iqr/2} }
	for _, c := range []struct {
		base, next summary
		want       string
	}{
		{at(10, 0.2), at(10.5, 0.2), "within-bound"},
		{at(10, 0.2), at(11.5, 0.2), "regressed"},
		{at(10, 0.2), at(8, 0.2), "within-bound"},
		{at(10, 2), at(11.5, 0.2), "unresolved"},
	} {
		if got := judge(d, c.base, c.next).Verdict; got != c.want {
			t.Errorf("judge(%v → %v) = %s, want %s", c.base.Median, c.next.Median, got, c.want)
		}
	}
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want Python's 2.75 5.5 8.25", q1, q2, q3)
	}
}

// scaled shrinks the recorded sizes for the smoke test.
func (s sizes) scaled(f float64) sizes {
	sc := func(v, floor int) int {
		if w := int(float64(v) * f); w > floor {
			return w
		}
		return floor
	}
	out := sizes{
		graphNodes: sc(s.graphNodes, 40), graphEdges: sc(s.graphEdges, 160),
		shapeRel: map[string][2]int{},
		hot:      s.hot, cold: sc(s.cold, 160), fresh: sc(s.fresh, 600),
	}
	for k, v := range s.shapeRel {
		if k == "tri-hub" {
			out.shapeRel[k] = [2]int{sc(v[0], 24), sc(v[1], 6)}
		} else {
			out.shapeRel[k] = [2]int{sc(v[0], 40), sc(v[1], 120)}
		}
	}
	return out
}
