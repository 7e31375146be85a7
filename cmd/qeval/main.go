// Command qeval evaluates a query against CSV relations.
//
//	qeval -query 'G(e) :- EP(e,p), EP(e,q), p != q.' -rel EP=assignments.csv
//	qeval -query '{ (x) | forall y (!E(x,y)) }' -fo -rel E=edges.csv
//
// Each -rel flag names a relation and a CSV file; integer fields stay
// numeric, other fields are interned symbols. The engine is chosen
// automatically (see -explain) or forced with -engine.
//
// With -watch the command becomes a standing query: it prints the initial
// answer, then polls the CSV files and, when one changes, reloads it, diffs
// it against the loaded relation, applies the exact tuple deltas, and
// incrementally refreshes the answer — printing only the rows that appeared
// (+) or disappeared (-).
//
// With -serve the command becomes a qserved client: it loads any -rel CSVs
// into the server, registers -query under the -stmt name (registration is
// the compile-once step — skip -query to execute an already registered
// statement), and executes it with the -arg NAME=VALUE bindings:
//
//	qeval -serve localhost:7347 -stmt bypop -rel City=cities.csv \
//	      -query 'Q(c) :- City(c,p), p > 1000000.'
//	qeval -serve localhost:7347 -stmt bypop
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pyquery"
	"pyquery/internal/core"
	"pyquery/internal/decomp"
	"pyquery/internal/eval"
	"pyquery/internal/governor"
	"pyquery/internal/order"
	"pyquery/internal/parallel"
	"pyquery/internal/parser"
	"pyquery/internal/relation"
	"pyquery/internal/wcoj"
	"pyquery/internal/yannakakis"
)

type relFlags []string

func (r *relFlags) String() string { return strings.Join(*r, ",") }
func (r *relFlags) Set(s string) error {
	*r = append(*r, s)
	return nil
}

func main() {
	var rels relFlags
	queryText := flag.String("query", "", "query in rule syntax (or FO syntax with -fo)")
	fo := flag.Bool("fo", false, "parse the query as a first-order query { (head) | formula }")
	engine := flag.String("engine", "auto", "auto | generic | yannakakis | colorcoding | comparisons | decomp | wcoj")
	boolOnly := flag.Bool("bool", false, "only decide emptiness")
	par := flag.Int("par", 0, "parallelism: worker count (0 = GOMAXPROCS, 1 = serial)")
	repeat := flag.Int("repeat", 0, "prepare once and execute N times, reporting amortized ns/exec (auto engine only)")
	explain := flag.Bool("explain", false, "print the plan explanation before evaluating")
	timeout := flag.Duration("timeout", 0, "abort the evaluation after this duration (e.g. 500ms; 0 = no limit)")
	maxRows := flag.Int64("max-rows", 0, "abort after materializing this many rows (0 = no limit; auto engine only)")
	memLimit := flag.Int64("mem-limit", 0, "abort after approximately this many materialized bytes (0 = no limit; auto engine only)")
	degrade := flag.Bool("degrade", false, "when a decomposition blows the budget at prepare time, fall back to the backtracker instead of failing")
	watch := flag.Bool("watch", false, "keep running: poll the -rel files, apply tuple deltas on change, and refresh the answer incrementally")
	interval := flag.Duration("interval", 500*time.Millisecond, "poll interval for -watch")
	serve := flag.String("serve", "", "qserved address (host:port): run against a server instead of in-process")
	stmtName := flag.String("stmt", "", "with -serve: statement name to register (-query) and/or execute")
	var stmtArgs relFlags
	flag.Var(&stmtArgs, "arg", "with -serve: NAME=VALUE parameter binding (repeatable)")
	flag.Var(&rels, "rel", "NAME=FILE.csv (repeatable)")
	flag.Parse()

	if *serve != "" {
		if *stmtName == "" {
			fatal(errors.New("-serve requires -stmt (the statement name to register or execute)"))
		}
		runClient(*serve, *stmtName, *queryText, rels, stmtArgs, *boolOnly)
		return
	}

	govOpts = pyquery.Options{Parallelism: *par, Timeout: *timeout,
		MaxRows: *maxRows, MemoryLimit: *memLimit, Degrade: *degrade}

	if *queryText == "" {
		fmt.Fprintln(os.Stderr, "qeval: -query is required")
		flag.Usage()
		os.Exit(2)
	}

	syms := parser.NewSymbols()
	p := parser.NewWithSymbols(syms)
	db := pyquery.NewDB()
	for _, spec := range rels {
		parts := strings.SplitN(spec, "=", 2)
		if len(parts) != 2 {
			fatal(fmt.Errorf("bad -rel %q (want NAME=FILE)", spec))
		}
		f, err := os.Open(parts[1])
		if err != nil {
			fatal(err)
		}
		err = parser.LoadCSV(db, parts[0], f, syms)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}

	if *fo {
		if *watch {
			fatal(errors.New("-watch supports conjunctive queries only (not -fo)"))
		}
		q, err := p.ParseFOQuery(*queryText)
		if err != nil {
			fatal(err)
		}
		res, err := pyquery.EvaluateFO(q, db)
		if err != nil {
			fatal(err)
		}
		printResult(res, syms, *boolOnly)
		return
	}

	q, err := p.ParseCQ(*queryText)
	if err != nil {
		fatal(err)
	}
	var report *pyquery.PlanReport
	if *explain {
		// The full cost-based report needs the database; fall back to the
		// query-only explanation if planning fails (e.g. unknown relation).
		// PlanDB reduces the atoms once for the report and the evaluation
		// below reduces them again — an accepted diagnostic-only cost.
		if r, err := pyquery.PlanDB(q, db); err == nil {
			report = r
			fmt.Println(r)
		} else {
			fmt.Println(pyquery.Explain(q))
		}
	}

	if *watch {
		if *repeat > 0 || *engine != "auto" {
			fatal(errors.New("-watch works with the auto engine and excludes -repeat"))
		}
		runWatch(q, db, syms, rels, *interval)
		return
	}

	if *repeat > 0 {
		if *engine != "auto" {
			fatal(fmt.Errorf("-repeat works with the auto engine (prepared statements route themselves)"))
		}
		runRepeated(q, db, syms, *par, *repeat, *boolOnly)
		return
	}

	var res *relation.Relation
	switch *engine {
	case "auto":
		if *boolOnly {
			ok, err := pyquery.EvaluateBoolOpts(q, db, govOpts)
			if err != nil {
				fatal(err)
			}
			printBool(ok)
			return
		}
		// Explained decomposition runs go through the engine directly so
		// per-bag estimates and actual materialized cardinalities come from
		// one Route (diagnostic-only: this re-plans once more on top of
		// PlanDB's passes, an accepted -explain cost).
		if report != nil && report.Engine == pyquery.EngineDecomp {
			res, err = runDecomp(q, db, *par, true)
			break
		}
		res, err = pyquery.EvaluateOpts(q, db, govOpts)
	case "generic":
		res, err = run(eval.Compile(q, db, eval.Options{Parallelism: *par}, nil))
	case "yannakakis":
		res, err = run(yannakakis.Compile(q, db, yannakakis.Options{Parallelism: *par}))
	case "colorcoding":
		res, err = run(core.Compile(q, db, core.Options{Parallelism: *par}))
	case "comparisons":
		res, err = runCollapsed(q, db, *par)
	case "decomp":
		res, err = runDecomp(q, db, *par, false)
	case "wcoj":
		var rt *wcoj.Route
		if rt, err = wcoj.PlanFor(q, db); err == nil {
			res, err = run(wcoj.Compile(q, rt, parallel.Workers(*par)))
		}
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}
	if err != nil {
		fatal(err)
	}
	printResult(res, syms, *boolOnly)
	if report != nil && !*boolOnly && res.Width() > 0 {
		fmt.Printf("cardinality: estimated %.0f, actual %d\n", report.EstRows, res.Len())
	}
}

// run executes a freshly compiled engine program once, ungoverned — every
// engine's compiled form has the same Exec.
func run(p interface {
	Exec(context.Context, []relation.Value, *governor.Meter) (*relation.Relation, error)
}, err error) (*relation.Relation, error) {
	if err != nil {
		return nil, err
	}
	return p.Exec(context.Background(), nil, nil)
}

// runDecomp forces the decomposition engine past its cost gate; with
// explain it prints each bag's estimated vs. actual cardinality.
func runDecomp(q *pyquery.CQ, db *pyquery.DB, par int, explain bool) (*relation.Relation, error) {
	rt, err := decomp.PlanFor(q, db)
	if err != nil {
		return nil, err
	}
	prog, err := decomp.Compile(q, rt, parallel.Workers(par), nil)
	if err != nil {
		return nil, err
	}
	if explain {
		for i, bag := range rt.Bags {
			actual := "- (skipped)"
			if i < len(prog.BagRows) && prog.BagRows[i] >= 0 {
				actual = fmt.Sprintf("%d", prog.BagRows[i])
			}
			fmt.Printf("bag %d: estimated %.0f, actual %s\n", i+1, bag.Est, actual)
		}
	}
	return prog.Exec(context.Background(), nil, nil)
}

// runCollapsed is the comparisons engine: the collapse rewrite in front of
// the backtracker; inconsistent constraints mean the empty answer.
func runCollapsed(q *pyquery.CQ, db *pyquery.DB, par int) (*relation.Relation, error) {
	qc, err := order.Collapse(q)
	if errors.Is(err, order.ErrInconsistent) {
		return pyquery.NewTable(len(q.Head)), nil
	}
	if err != nil {
		return nil, err
	}
	return run(eval.Compile(qc, db, eval.Options{Parallelism: par}, nil))
}

// runWatch turns qeval into a standing query: it prints the initial answer,
// then polls the -rel files and, whenever one's mtime or size changes,
// reloads the CSV, diffs it against the relation currently loaded, applies
// the exact tuple deltas (so the prepared statement's incremental
// maintenance sees O(Δ) work, not a wholesale replacement), and refreshes —
// printing only the appeared/disappeared rows. Ctrl-C exits.
func runWatch(q *pyquery.CQ, db *pyquery.DB, syms *parser.Symbols, rels []string, every time.Duration) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	type watched struct {
		name, path string
		mtime      time.Time
		size       int64
	}
	var files []*watched
	for _, spec := range rels {
		parts := strings.SplitN(spec, "=", 2)
		st, err := os.Stat(parts[1])
		if err != nil {
			fatal(err)
		}
		files = append(files, &watched{name: parts[0], path: parts[1], mtime: st.ModTime(), size: st.Size()})
	}

	prep, err := pyquery.Prepare(q, db, govOpts)
	if err != nil {
		fatal(err)
	}
	added, _, err := prep.Refresh(ctx)
	if err != nil {
		fatal(err)
	}
	printResult(added, syms, false)

	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		changed := false
		for _, f := range files {
			st, err := os.Stat(f.path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "qeval: %s: %v (keeping previous contents)\n", f.path, err)
				continue
			}
			if st.ModTime().Equal(f.mtime) && st.Size() == f.size {
				continue
			}
			f.mtime, f.size = st.ModTime(), st.Size()
			if err := applyFileDelta(db, f.name, f.path, syms); err != nil {
				fmt.Fprintf(os.Stderr, "qeval: %s: %v (keeping previous contents)\n", f.path, err)
				continue
			}
			changed = true
		}
		if !changed {
			continue
		}
		added, removed, err := prep.Refresh(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			fatal(err)
		}
		printChange(added, removed, syms)
	}
}

// applyFileDelta reloads one CSV and converts the file-level change into
// tuple-level Insert/Delete calls against the loaded relation. If the file's
// arity changed, the relation is replaced wholesale (the refresh then falls
// back to a rebuild).
func applyFileDelta(db *pyquery.DB, name, path string, syms *parser.Symbols) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	scratch := pyquery.NewDB()
	err = parser.LoadCSV(scratch, name, f, syms)
	f.Close()
	if err != nil {
		return err
	}
	nu := scratch.MustRel(name).Dedup()
	old, ok := db.Rel(name)
	if !ok || old.Width() != nu.Width() {
		db.Set(name, nu)
		return nil
	}
	inOld := relation.NewTupleMapSized(old.Width(), old.Len())
	for i := 0; i < old.Len(); i++ {
		inOld.Set(old.Row(i), 1)
	}
	inNew := relation.NewTupleMapSized(nu.Width(), nu.Len())
	var adds [][]pyquery.Value
	for i := 0; i < nu.Len(); i++ {
		row := nu.Row(i)
		inNew.Set(row, 1)
		if _, ok := inOld.Get(row); !ok {
			adds = append(adds, row)
		}
	}
	var dels [][]pyquery.Value
	for i := 0; i < old.Len(); i++ {
		row := old.Row(i)
		if _, ok := inNew.Get(row); !ok {
			// Copy: Delete swap-removes inside the relation backing old.
			dels = append(dels, append([]pyquery.Value(nil), row...))
		}
	}
	db.Delete(name, dels...)
	db.Insert(name, adds...)
	return nil
}

// printChange renders one refresh's delta: appeared rows with a leading +,
// disappeared rows with a leading -. Boolean (width-0) standing queries
// print the new truth value instead.
func printChange(added, removed *relation.Relation, syms *parser.Symbols) {
	if added.Width() == 0 {
		if added.Len() > 0 {
			fmt.Println("true")
		} else if removed.Len() > 0 {
			fmt.Println("false")
		}
		return
	}
	for _, sign := range []struct {
		mark string
		rel  *relation.Relation
	}{{"-", removed}, {"+", added}} {
		for _, line := range strings.Split(parser.FormatRelation(sign.rel.Sort(), syms), "\n") {
			if line != "" {
				fmt.Println(sign.mark, line)
			}
		}
	}
}

// runRepeated drives the prepared-statement API: Prepare pays the planning
// once, then the query executes -repeat times against the frozen plan and
// the amortized per-execution latency is reported alongside the answer.
func runRepeated(q *pyquery.CQ, db *pyquery.DB, syms *parser.Symbols, par, repeat int, boolOnly bool) {
	ctx := context.Background()
	tPrep := time.Now()
	opts := govOpts
	opts.Parallelism = par
	p, err := pyquery.Prepare(q, db, opts)
	if err != nil {
		fatal(err)
	}
	prepDur := time.Since(tPrep)

	var res *relation.Relation
	var ok bool
	tExec := time.Now()
	for i := 0; i < repeat; i++ {
		if boolOnly {
			ok, err = p.ExecBool(ctx)
		} else {
			res, err = p.Exec(ctx)
		}
		if err != nil {
			fatal(err)
		}
	}
	execDur := time.Since(tExec)

	if boolOnly {
		printBool(ok)
	} else {
		printResult(res, syms, false)
	}
	fmt.Printf("prepare: %v; %d execs: %v (amortized %d ns/exec)\n",
		prepDur, repeat, execDur, execDur.Nanoseconds()/int64(repeat))
}

func printResult(res *relation.Relation, syms *parser.Symbols, boolOnly bool) {
	if boolOnly || res.Width() == 0 {
		printBool(res.Bool())
		return
	}
	fmt.Printf("%d tuple(s)\n", res.Len())
	fmt.Print(parser.FormatRelation(res.Sort(), syms))
}

func printBool(ok bool) {
	if ok {
		fmt.Println("true")
	} else {
		fmt.Println("false")
	}
}

// runClient drives a qserved instance end-to-end: load -rel CSVs, register
// the -query under -stmt (when given), then execute the named statement
// with the -arg bindings and render the rows the same way the in-process
// paths do. Argument values parse as integers when they look numeric and
// travel as strings otherwise — the server interns them with the same
// Literal semantics its CSV loader uses, so client and server always agree
// on constants.
func runClient(addr, name, queryText string, rels, args []string, boolOnly bool) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	for _, spec := range rels {
		parts := strings.SplitN(spec, "=", 2)
		if len(parts) != 2 {
			fatal(fmt.Errorf("bad -rel %q (want NAME=FILE)", spec))
		}
		f, err := os.Open(parts[1])
		if err != nil {
			fatal(err)
		}
		_, err = clientCall("POST", base+"/rel/"+parts[0], f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	if queryText != "" {
		body, _ := json.Marshal(map[string]string{"query": queryText})
		info, err := clientCall("PUT", base+"/stmt/"+name, bytes.NewReader(body))
		if err != nil {
			fatal(err)
		}
		var reg struct {
			Engine string   `json:"engine"`
			Params []string `json:"params"`
		}
		if err := json.Unmarshal(info, &reg); err == nil {
			line := "registered " + name + " [engine=" + reg.Engine
			if len(reg.Params) > 0 {
				line += ", params=" + strings.Join(reg.Params, ",")
			}
			fmt.Fprintln(os.Stderr, line+"]")
		}
	}
	params := make(map[string]any, len(args))
	for _, a := range args {
		parts := strings.SplitN(a, "=", 2)
		if len(parts) != 2 {
			fatal(fmt.Errorf("bad -arg %q (want NAME=VALUE)", a))
		}
		if n, err := strconv.ParseInt(parts[1], 10, 64); err == nil {
			params[parts[0]] = n
		} else {
			params[parts[0]] = parts[1]
		}
	}
	body, _ := json.Marshal(map[string]any{"params": params})
	raw, err := clientCall("POST", base+"/stmt/"+name+"/exec", bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	var res struct {
		Rows  [][]any `json:"rows"`
		N     int     `json:"n"`
		Width int     `json:"width"`
		Bool  bool    `json:"bool"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		fatal(fmt.Errorf("bad exec response: %w", err))
	}
	if boolOnly || res.Width == 0 {
		printBool(res.Bool)
		return
	}
	fmt.Printf("%d tuple(s)\n", res.N)
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		fields := make([]string, len(row))
		for j, v := range row {
			switch t := v.(type) {
			case string:
				fields[j] = t
			case float64:
				fields[j] = strconv.FormatInt(int64(t), 10)
			default:
				fields[j] = fmt.Sprint(t)
			}
		}
		lines = append(lines, strings.Join(fields, ","))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
}

// clientCall performs one line-protocol request, decoding the typed error
// envelope on non-2xx statuses.
func clientCall(method, url string, body io.Reader) ([]byte, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		var pe struct {
			Error string `json:"error"`
			Kind  string `json:"kind"`
		}
		if json.Unmarshal(raw, &pe) == nil && pe.Error != "" {
			if pe.Kind != "" {
				return nil, fmt.Errorf("%s [%s, http %d]", pe.Error, pe.Kind, resp.StatusCode)
			}
			return nil, fmt.Errorf("%s [http %d]", pe.Error, resp.StatusCode)
		}
		return nil, fmt.Errorf("http %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

// govOpts carries the governor flags (-timeout, -max-rows, -mem-limit,
// -degrade) into every auto-engine evaluation path.
var govOpts pyquery.Options

// fatal renders the error and exits. Typed governor failures get a
// structured line — which limit tripped, in which engine, at which step,
// and the charged totals — instead of the raw error string.
func fatal(err error) {
	var le *pyquery.LimitError
	if errors.As(err, &le) {
		var what string
		switch {
		case errors.Is(err, pyquery.ErrRowLimit):
			what = fmt.Sprintf("row limit exceeded (%d rows materialized, limit %d)", le.Rows, le.Limit)
		case errors.Is(err, pyquery.ErrMemoryLimit):
			what = fmt.Sprintf("memory limit exceeded (~%d bytes materialized, limit %d)", le.Bytes, le.Limit)
		case errors.Is(err, pyquery.ErrTimeout):
			what = "timed out"
		case errors.Is(err, pyquery.ErrCanceled):
			what = "canceled"
		default:
			what = le.Kind.Error()
		}
		fmt.Fprintf(os.Stderr, "qeval: query aborted: %s [engine=%s, step=%s]\n", what, le.Engine, le.Step)
		os.Exit(1)
	}
	var ie *pyquery.InternalError
	if errors.As(err, &ie) {
		fmt.Fprintf(os.Stderr, "qeval: internal error in %s engine: %v\n", ie.Engine, ie.Value)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "qeval:", err)
	os.Exit(1)
}
