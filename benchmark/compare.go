package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// -repeat and -compare: the machine-diffable comparison for this
// benchmark. A repeat file holds, per workload and metric, the values of N
// sets with their median and quartiles; -compare reads two of them.

type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type repeatFile struct {
	Seed      int64                         `json:"seed"`
	Seconds   float64                       `json:"seconds"`
	Sets      int                           `json:"sets"`
	NProc     int                           `json:"nproc"`
	MaxProcs  int                           `json:"gomaxprocs"`
	GoVersion string                        `json:"go"`
	Failed    int                           `json:"failed"`
	Workloads map[string]map[string]summary `json:"workloads"`
}

// repeat runs sets sets of the given jobs — set i with seed+i, as the
// driver's repeated runs differ in seed — and writes one repeatFile.
func repeat(w io.Writer, jobs []job, sets int, seed int64, seconds float64, run func(j job, seed int64) (*result, error)) error {
	f := repeatFile{Seed: seed, Seconds: seconds, Sets: sets, NProc: runtime.NumCPU(), MaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workloads: map[string]map[string]summary{}}
	for i := 0; i < sets; i++ {
		for _, j := range jobs {
			r, err := run(j, seed+int64(i))
			if err != nil {
				return fmt.Errorf("set %d: %w", i, err)
			}
			f.Failed += r.Failed
			if f.Workloads[j.workload] == nil {
				f.Workloads[j.workload] = map[string]summary{}
			}
			for m, v := range r.Metrics {
				s := f.Workloads[j.workload][m]
				s.Unit = v.Unit
				s.Values = append(s.Values, v.Value)
				f.Workloads[j.workload][m] = s
			}
		}
	}
	for _, ms := range f.Workloads {
		for m, s := range ms {
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			ms[m] = s
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(f); err != nil {
		return err
	}
	if f.Failed > 0 {
		return fmt.Errorf("%d operations failed", f.Failed)
	}
	return nil
}

type verdict struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Base     float64 `json:"base"`
	New      float64 `json:"new"`
	Ratio    float64 `json:"ratio"` // new / base
	Bound    float64 `json:"bound"`
	Spread   float64 `json:"spread"` // wider of the two files' (q3−q1)/median
	Verdict  string  `json:"verdict"`
}

func readRepeat(path string) (*repeatFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f repeatFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func spread(s summary) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// judge compares one end-to-end metric's medians: regressed when the new
// median is worse than the base by more than the bound, unresolved when
// either file's own spread is wider than the bound, so the runs cannot
// tell.
func judge(d metricDef, base, next summary) verdict {
	v := verdict{Metric: d.Name, Unit: d.Unit, Base: base.Median, New: next.Median, Ratio: next.Median / base.Median, Bound: d.Bound}
	v.Spread = spread(base)
	if s := spread(next); s > v.Spread {
		v.Spread = s
	}
	worse := v.Ratio - 1
	if d.Better == "higher" {
		worse = 1 - v.Ratio
	}
	switch {
	case v.Spread > d.Bound:
		v.Verdict = "unresolved"
	case worse > d.Bound:
		v.Verdict = "regressed"
	default:
		v.Verdict = "within-bound"
	}
	return v
}

// compare prints one verdict per workload × end-to-end metric, one JSON
// object per line, and reports whether all are within bounds.
func compare(w io.Writer, basePath, nextPath string) (bool, error) {
	base, err := readRepeat(basePath)
	if err != nil {
		return false, err
	}
	next, err := readRepeat(nextPath)
	if err != nil {
		return false, err
	}
	ok := true
	enc := json.NewEncoder(w)
	for _, wl := range workloads {
		for _, d := range endToEndDefs {
			b, okb := base.Workloads[wl.name][d.Name]
			n, okn := next.Workloads[wl.name][d.Name]
			if !okb || !okn {
				continue
			}
			v := judge(d, b, n)
			v.Workload = wl.name
			if err := enc.Encode(v); err != nil {
				return false, err
			}
			ok = ok && v.Verdict == "within-bound"
		}
	}
	return ok, nil
}
