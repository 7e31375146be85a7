// Command benchmark prices a qserved request and a library call end to
// end and layer by layer. See README.md.
//
//	bash benchmark/run.sh --workload serve-point --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh -workload all -seed 1            # every workload, untraced then traced
//	bash benchmark/run.sh -repeat 5 > A.json              # medians and quartiles of 5 sets
//	bash benchmark/run.sh -compare A.json B.json          # verdict per workload × metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", runSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "with one named workload: 0 for the untraced end-to-end metrics, 1 for the traced per-layer metrics")
	buildDir := flag.String("build-dir", ".bench_build", "where the qserved binary and generated CSV files go")
	out := flag.String("out", "", "directory for the traced run's span files (default <build-dir>/out)")
	sets := flag.Int("repeat", 0, "run this many sets (seed, seed+1, …) and print each metric's median and quartiles")
	cmp := flag.Bool("compare", false, "compare two -repeat files given as arguments: base, then new")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	switch {
	case *printManifest:
		b, err := manifest()
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(b)
		return
	case *cmp:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare needs two files: base, then new"))
		}
		ok, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	// An interrupted run must not leave a qserved behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()

	if *out == "" {
		*out = filepath.Join(*buildDir, "out")
	}
	e := newEnv(*buildDir, full())
	fmt.Fprintf(os.Stderr, "benchmark: seed=%d seconds=%g nproc=%d GOMAXPROCS=%d %s connections=%d\n",
		*seed, *seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), e.conns)
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace is 0 or 1, not %d", *trace))
	}
	// "all" is every workload untraced, then traced; a named workload runs
	// in the one mode -trace gives, which is how the driver calls it.
	var jobs []job
	for _, w := range workloads {
		switch *workload {
		case "all":
			jobs = append(jobs, job{w.name, 0}, job{w.name, 1})
		case w.name:
			jobs = append(jobs, job{w.name, *trace})
		}
	}
	if len(jobs) == 0 {
		fail(fmt.Errorf("unknown workload %q", *workload))
	}
	run := func(j job, seed int64) (*result, error) {
		r, err := runOne(j.workload, e, seed, *seconds, j.trace, *out)
		if err != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", j.workload, j.trace, err)
		}
		return r, nil
	}
	if *sets > 0 {
		if err := repeat(os.Stdout, jobs, *sets, *seed, *seconds, run); err != nil {
			fail(err)
		}
		return
	}
	ok := true
	for _, j := range jobs {
		r, err := run(j, *seed)
		if err != nil {
			fail(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s\n", b)
		ok = ok && r.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// job is one run: a workload in one mode.
type job struct {
	workload string
	trace    int
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func newEnv(buildDir string, sz sizes) *env {
	e := &env{buildDir: buildDir, conns: 2, setups: 7, sz: sz}
	if runtime.NumCPU() < 2 {
		e.conns = 1
	}
	return e
}

// runOne generates the inputs from the seed, runs one workload in one
// mode, and checks the result against the declared metrics.
func runOne(name string, e *env, seed int64, seconds float64, trace int, out string) (*result, error) {
	in := generate(seed, e.sz)
	var r *result
	var err error
	if trace == 0 {
		r, err = runWorkload(name, e, in, seconds)
	} else {
		r, err = traceWorkload(name, e, in, seconds, out)
	}
	if err != nil {
		return nil, err
	}
	return r, conform(r, defsFor(trace))
}
