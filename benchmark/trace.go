package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"pyquery"
	"pyquery/internal/bench"
	"pyquery/internal/parser"
	"pyquery/internal/relation"
	"pyquery/internal/server"
	"pyquery/internal/stats"
)

// The traced run gives the per-layer numbers. It times calls into each
// layer's public functions from here — nothing inside the program is
// instrumented — in two parts:
//
//  1. A differential replay of the workload's own request sequence at
//     four depths: real HTTP to the child (wire), an in-process twin
//     server driven through its http.Handler (handler), Server.Exec
//     (service), and Prepared.Exec on the twin's DB (prepared). One span
//     per request per depth; a layer's self time is its span minus the
//     next-inner span of the same request, summarised by median.
//  2. Probes of the write path, the planning path, the engines and the
//     relation kernels. Every traced run loads the same universe — the
//     symbolic graph E plus one relation per shape — so every probe runs
//     in every workload and each metric is a measurement everywhere; the
//     README's table says on which workload each one bears.

// span is one timed call. Spans of one request share id; parent names the
// next-outer depth.
type span struct {
	Name    string  `json:"name"`
	ID      int     `json:"id"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Parent  string  `json:"parent,omitempty"`
}

// request is one statement execution as every depth needs it.
type request struct {
	stmt   string
	body   []byte
	params map[string]pyquery.Value
	args   []pyquery.Arg
}

// op is the workload's primary operation: one request, or a round of six.
type op []request

// depth replays ops through one layer boundary.
type depth struct {
	name, parent string
	call         func(worker int, r request) (rows int, err error)
}

type tracer struct {
	e     *env
	in    *inputs
	t     tally
	m     map[string]metric
	spans []span
	t0    time.Time
	scale float64 // seconds / 20: stretches every probe's budget

	c     *child
	twin  *server.Server
	lib   *library
	prep  map[string]*pyquery.Prepared
	wants []answer
	// The child's first hop2 refresh, undecoded: the client-side view is
	// only built for the churn step, so the replay's in-process depths do
	// not run beside a 200 000-entry map the collector must scan.
	firstRefresh []byte
}

// set records one per-layer metric under its declared unit; conform
// rejects a name the table does not declare.
func (tr *tracer) set(name string, v float64) { tr.m[name] = metric{v, perLayerUnit[name]} }

// reps scales a repetition count with the run length.
func (tr *tracer) reps(n int) int {
	if r := int(float64(n) * tr.scale); r > 3 {
		return r
	}
	return 3
}

func (tr *tracer) budget(seconds float64) time.Duration {
	return time.Duration(seconds * tr.scale * float64(time.Second))
}

// timeIt returns the median duration of reps calls of f.
func timeIt(reps int, f func() error) (float64, error) {
	us := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		us = append(us, micros(time.Since(t0)))
	}
	return median(us), nil
}

// recorder is the smallest http.ResponseWriter: the handler depth needs
// the response rendered and written, not sent.
type recorder struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.h }
func (r *recorder) WriteHeader(s int)           { r.status = s }
func (r *recorder) Write(b []byte) (int, error) { return r.buf.Write(b) }

func traceWorkload(name string, e *env, in *inputs, seconds float64, outDir string) (*result, error) {
	tr := &tracer{e: e, in: in, m: map[string]metric{}, t0: time.Now(), scale: seconds / 20, prep: map[string]*pyquery.Prepared{}}
	if err := tr.setUp(); err != nil {
		return nil, err
	}
	defer tr.c.kill()
	tr.check()
	ops, err := tr.primary(name)
	if err != nil {
		return nil, err
	}
	steps := []func() error{
		func() error { return tr.replay(ops) },
		tr.serverStats,
		tr.perShape,
		tr.planning,
		tr.kernels,
		tr.scaling,
		tr.writePath,
		tr.adhoc,
		tr.churn,
		tr.process,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	tr.t.ok(tr.c.stop())
	if outDir != "" {
		if err := tr.writeSpans(outDir, name); err != nil {
			return nil, err
		}
	}
	return finish(tr.t, tr.m), nil
}

func (tr *tracer) universe() ([]*graph, []stmtDef) {
	rels := append([]*graph{tr.in.E}, tr.in.shapeG...)
	stmts := append([]stmtDef{{"adj", adjText}, {"hop2", hop2Text}}, tr.in.shapeStmts()...)
	for i, tx := range tr.in.hot {
		stmts = append(stmts, stmtDef{fmt.Sprintf("hot%d", i), tx.text})
	}
	return rels, stmts
}

// setUp starts the child and builds its in-process twin from the same CSV
// text and statements, plus the library mirror whose symbol table gives
// the twin's interned values.
func (tr *tracer) setUp() error {
	rels, stmts := tr.universe()
	churnFirst := churnServed(tr.in, &tr.firstRefresh).first
	s := &served{rels: rels, stmts: stmts, first: func(k *conn) error {
		for _, st := range stmts[2:] {
			if _, _, err := execN(k, st.name); err != nil {
				return err
			}
		}
		return churnFirst(k)
	}}
	c, _, err := s.start(tr.e)
	if err != nil {
		return err
	}
	tr.c = c

	tr.twin = server.New(nil, server.Config{})
	for _, g := range rels {
		if err := tr.twin.LoadCSV(g.rel, strings.NewReader(g.csv())); err != nil {
			return err
		}
	}
	if tr.lib, err = loadLibrary(rels); err != nil {
		return err
	}
	if !relation.EqualSet(tr.twin.DB().MustRel("E"), tr.lib.db.MustRel("E")) {
		return fmt.Errorf("the library mirror's symbol table does not match the twin server's")
	}
	for _, st := range stmts {
		if _, err := tr.twin.Register(st.name, st.text); err != nil {
			return err
		}
		q, err := parser.NewWithSymbols(tr.lib.syms).ParseCQ(st.text)
		if err != nil {
			return err
		}
		if tr.prep[st.name], err = pyquery.Prepare(q, tr.twin.DB(), pyquery.Options{}); err != nil {
			return err
		}
	}
	pre := make([][]pyquery.Value, preInserted)
	for i, e := range tr.in.fresh[:preInserted] {
		pre[i] = tr.row(e)
	}
	if _, err := tr.twin.Insert("E", pre); err != nil {
		return err
	}
	// The first refresh materialises the view: the IVM rebuild a churn
	// set-up pays once.
	rebuild, err := timeIt(1, func() error { _, _, err := tr.twin.Refresh(context.Background(), "hop2"); return err })
	if err != nil {
		return err
	}
	tr.set("ivm.rebuild_us", rebuild)
	return nil
}

func (tr *tracer) value(g *graph, node int) pyquery.Value {
	v, _ := tr.lib.syms.Literal(g.node(node))
	return v
}

func (tr *tracer) row(e edge) []pyquery.Value {
	return []pyquery.Value{tr.value(tr.in.E, e.a), tr.value(tr.in.E, e.b)}
}

// check is the oracle check of the whole universe over HTTP and through
// Evaluate, before anything is timed. The library mirror holds E without
// the preloaded edges, so adj is checked on the churn graph separately.
func (tr *tracer) check() {
	k := newConn(tr.c.base)
	defer k.close()
	tr.wants = shapeWants(tr.in)
	checkShapes(&tr.t, k, tr.lib, tr.in, tr.wants)
	for i, tx := range tr.in.hot {
		checkStmt(&tr.t, k, tr.lib, fmt.Sprintf("hot%d", i), nil, tx.text, tx.want)
	}
	checkAdj(&tr.t, k, nil, churnGraph(tr.in), tr.in.srcSeq(rand.New(rand.NewSource(tr.in.seed)), 20))
}

func (tr *tracer) adjRequest(src int) request {
	v := tr.value(tr.in.E, src)
	return request{stmt: "adj", body: srcBody(tr.in.E.node(src)),
		params: map[string]pyquery.Value{"src": v}, args: []pyquery.Arg{pyquery.Bind("src", v)}}
}

// primary builds the workload's own request sequence, long enough for the
// longest replay.
func (tr *tracer) primary(name string) ([]op, error) {
	rnd := rand.New(rand.NewSource(tr.in.seed*31 + 1))
	const n = 1 << 14
	ops := make([]op, n)
	switch name {
	case "serve-point", "serve-churn":
		for i, src := range tr.in.srcSeq(rnd, n) {
			ops[i] = op{tr.adjRequest(src)}
		}
	case "serve-analytic":
		// Worker w replays the ops with index ≡ w, so rotating by index
		// gives each connection the offset round() gives it.
		for i := range ops {
			ops[i] = make(op, len(shapes))
			for j := range shapes {
				ops[i][j] = request{stmt: shapes[(j+3*(i%tr.e.conns))%len(shapes)].name}
			}
		}
	case "lib-adhoc":
		// No request of this workload crosses the service; the request-path
		// depths replay its hot texts as registered statements, which prices
		// what serving them would add.
		for i := range ops {
			ops[i] = op{{stmt: fmt.Sprintf("hot%d", rnd.Intn(len(tr.in.hot)))}}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return ops, nil
}

// pass replays ops[:n] through one depth on the workload's connection
// count, worker w taking the ops with index ≡ w. With n = 0 it runs until
// the deadline instead and reports how many ops completed. It returns each
// op's duration and row count.
func (tr *tracer) pass(d depth, ops []op, n int, until time.Time, record bool) ([]time.Duration, []int) {
	durs, rows := make([]time.Duration, len(ops)), make([]int, len(ops))
	done := make([]int, tr.e.conns)
	spans := make([][]span, tr.e.conns)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < tr.e.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			for i := w; i < len(ops); i += tr.e.conns {
				if n > 0 && i >= n || n == 0 && !time.Now().Before(until) {
					break
				}
				start := time.Now()
				for _, r := range ops[i] {
					got, err := d.call(w, r)
					t.ok(err)
					rows[i] += got
				}
				end := time.Now()
				durs[i] = end.Sub(start)
				done[w] = i + 1
				if record {
					spans[w] = append(spans[w], span{d.name, i, micros(start.Sub(tr.t0)), micros(end.Sub(tr.t0)), d.parent})
				}
			}
			mu.Lock()
			tr.t.merge(t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, s := range spans {
		tr.spans = append(tr.spans, s...)
	}
	// Only the prefix every worker got through is complete.
	if n == 0 {
		n = len(ops)
		for _, hi := range done {
			if hi < n {
				n = hi
			}
		}
		n -= n % tr.e.conns
	}
	return durs[:n], rows[:n]
}

// depths returns the replay's layer boundaries, outermost first, and a
// function that closes the wire depth's connections.
func (tr *tracer) depths() ([]depth, func()) {
	conns := make([]*conn, tr.e.conns)
	recs := make([]*recorder, tr.e.conns)
	for i := range conns {
		conns[i] = newConn(tr.c.base)
		recs[i] = &recorder{h: http.Header{}}
	}
	h := tr.twin.Handler()
	ctx := context.Background()
	service := func(o server.ExecOpts) func(int, request) (int, error) {
		return func(_ int, r request) (int, error) {
			res, _, err := tr.twin.Exec(ctx, r.stmt, r.params, o)
			if err != nil {
				return 0, err
			}
			return res.Len(), nil
		}
	}
	closeConns := func() {
		for _, k := range conns {
			k.close()
		}
	}
	return []depth{
		{"wire", "", func(w int, r request) (int, error) {
			status, b, err := conns[w].do("POST", "/stmt/"+r.stmt+"/exec", r.body)
			if err != nil {
				return 0, err
			}
			n, ok := tailInt(b, `"n":`)
			if status != 200 || !ok {
				return 0, fmt.Errorf("wire %s: status %d", r.stmt, status)
			}
			return n, nil
		}},
		{"handler", "wire", func(w int, r request) (int, error) {
			req, err := http.NewRequest("POST", "/stmt/"+r.stmt+"/exec", bytes.NewReader(r.body))
			if err != nil {
				return 0, err
			}
			rec := recs[w]
			rec.buf.Reset()
			rec.status = 200
			h.ServeHTTP(rec, req)
			n, ok := tailInt(rec.buf.Bytes(), `"n":`)
			if rec.status != 200 || !ok {
				return 0, fmt.Errorf("handler %s: status %d", r.stmt, rec.status)
			}
			return n, nil
		}},
		{"service", "handler", service(server.ExecOpts{})},
		{"service-nobatch", "handler", service(server.ExecOpts{NoBatch: true})},
		{"prepared", "service", func(_ int, r request) (int, error) {
			res, err := tr.prep[r.stmt].Exec(ctx, r.args...)
			if err != nil {
				return 0, err
			}
			return res.Len(), nil
		}},
	}, closeConns
}

func medianOf(ds []time.Duration) float64 { return lats(ds).p50us() }

// selfMedian is the median over requests of outer − inner.
func selfMedian(outer, inner []time.Duration) float64 {
	d := make([]float64, len(outer))
	for i := range outer {
		d[i] = micros(outer[i] - inner[i])
	}
	return median(d)
}

// replay is the differential replay. An untraced pass first fixes how many
// ops fit the budget and gives the untraced wire median; every depth then
// replays exactly those ops with spans on.
func (tr *tracer) replay(ops []op) error {
	ds, closeConns := tr.depths()
	defer closeConns()
	untraced, _ := tr.pass(ds[0], ops, 0, time.Now().Add(tr.budget(2)), false)
	n := len(untraced)
	if n == 0 {
		return fmt.Errorf("no operation completed in the replay budget")
	}
	durs := map[string][]time.Duration{}
	rows := map[string][]int{}
	var cpu [2]float64 // the child's CPU seconds before and after the wire pass
	for i, d := range ds {
		runtime.GC() // every depth starts from a collected heap
		if i < 2 {
			user, sys, err := tr.c.cpu()
			if err != nil {
				return err
			}
			cpu[i] = user + sys
		}
		durs[d.name], rows[d.name] = tr.pass(d, ops, n, time.Time{}, true)
	}
	tr.set("proc.cpu_ms_per_op", (cpu[1]-cpu[0])*1000/float64(n))
	for i := 0; i < n; i++ {
		if rows["wire"][i] != rows["prepared"][i] || rows["handler"][i] != rows["service"][i] || rows["wire"][i] != rows["handler"][i] {
			tr.t.ok(fmt.Errorf("op %d: depths disagree on the row count: wire %d, handler %d, service %d, prepared %d",
				i, rows["wire"][i], rows["handler"][i], rows["service"][i], rows["prepared"][i]))
			break
		}
	}
	tr.set("trace.replay_ops", float64(n))
	tr.set("trace.overhead_share", medianOf(durs["wire"])/medianOf(untraced))
	tr.set("transport.self_us", selfMedian(durs["wire"], durs["handler"]))
	tr.set("server.protocol.self_us", selfMedian(durs["handler"], durs["service"]))
	tr.set("server.service.self_us", selfMedian(durs["service"], durs["prepared"]))
	tr.set("server.service.nobatch_self_us", selfMedian(durs["service-nobatch"], durs["prepared"]))
	tr.set("pyquery.exec_us", medianOf(durs["prepared"]))
	var protocol time.Duration
	var total int
	for i := 0; i < n; i++ {
		protocol += durs["handler"][i] - durs["service"][i]
		total += rows["handler"][i]
	}
	tr.set("server.protocol.render_us_per_krow", micros(protocol)/float64(total+1)*1000)
	return nil
}

// serverStats reads the child's public /stats after the wire replay.
func (tr *tracer) serverStats() error {
	k := newConn(tr.c.base)
	defer k.close()
	status, b, err := k.do("GET", "/stats", nil)
	if err != nil || status != 200 {
		return fmt.Errorf("/stats: status %d: %v", status, err)
	}
	var st server.Stats
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	var execs, batched, trips int64
	for _, s := range st.Stmts {
		execs += s.Execs
		batched += s.Batched
		trips += s.GovTrips
	}
	tr.set("server.service.batched_share", float64(batched)/float64(execs))
	tr.set("server.admission.overloads", float64(st.Overloads))
	tr.set("server.service.gov_trips", float64(trips))
	if st.Overloads != 0 || trips != 0 {
		tr.t.ok(fmt.Errorf("/stats reports %d overloads and %d governor trips; the load is sized for none", st.Overloads, trips))
	}
	tr.set("server.stats.exec_p50_us.adj", float64(st.Stmts["adj"].P50Micros))
	for _, sh := range shapes {
		tr.set("server.stats.exec_p50_us."+sh.name, float64(st.Stmts[sh.name].P50Micros))
	}
	return nil
}

func engineIndex(name string) float64 {
	for e := pyquery.EngineYannakakis; e <= pyquery.EngineWCOJ; e++ {
		if e.String() == name {
			return float64(e)
		}
	}
	return -1
}

// perShape times each shape's statement over the wire on its own: which
// shape, and so which engine, a round's time belongs to.
func (tr *tracer) perShape() error {
	k := newConn(tr.c.base)
	defer k.close()
	wire := make([]float64, len(shapes))
	var sum float64
	for i, sh := range shapes {
		var server []float64
		var err error
		wire[i], err = timeIt(tr.reps(9), func() error {
			n, us, err := execN(k, sh.name)
			if err == nil && n != tr.wants[i].n {
				err = fmt.Errorf("%s: %d rows, oracle has %d", sh.name, n, tr.wants[i].n)
			}
			server = append(server, float64(us))
			return err
		})
		if err != nil {
			return err
		}
		r, err := k.exec(sh.name, nil)
		if err != nil {
			return err
		}
		sum += wire[i]
		tr.set("stmt."+sh.name+".wire_us", wire[i])
		tr.set("stmt."+sh.name+".exec_us", median(server))
		tr.set("stmt."+sh.name+".rows", float64(r.N))
		tr.set("stmt."+sh.name+".engine", engineIndex(r.Engine))
	}
	for i, sh := range shapes {
		tr.set("stmt."+sh.name+".share", wire[i]/sum)
	}
	return nil
}

// planning prices the query-dependent work per shape: what registration
// pays once (setup_s on serve-*) and what every cold ad-hoc call pays
// (p50_ms on lib-adhoc).
func (tr *tracer) planning() error {
	db := tr.lib.db
	var parse []float64
	for i, st := range tr.in.shapeStmts() {
		var q *pyquery.CQ
		us, err := timeIt(tr.reps(9), func() (err error) {
			q, err = parser.NewWithSymbols(tr.lib.syms).ParseCQ(st.text)
			return err
		})
		if err != nil {
			return err
		}
		parse = append(parse, us)
		var rep *pyquery.PlanReport
		if us, err = timeIt(tr.reps(9), func() (err error) { rep, err = pyquery.PlanDB(q, db); return err }); err != nil {
			return err
		}
		tr.set("pyquery.plan_us."+st.name, us)
		var p *pyquery.Prepared
		if us, err = timeIt(tr.reps(9), func() (err error) { p, err = pyquery.Prepare(q, db, pyquery.Options{NoCache: true}); return err }); err != nil {
			return err
		}
		tr.set("pyquery.prepare_us."+st.name, us)
		if us, err = timeIt(tr.reps(9), func() error { _, err := p.Exec(context.Background()); return err }); err != nil {
			return err
		}
		tr.set("pyquery.exec_us."+st.name, us)
		est, actual := math.Max(rep.EstRows, 1), math.Max(float64(tr.wants[i].n), 1)
		tr.set("plan.qerror."+st.name, math.Max(est/actual, actual/est))
	}
	tr.set("parser.parse_us", median(parse))
	var us float64
	var rows int
	for _, name := range db.Names() {
		r := db.MustRel(name)
		t, _ := timeIt(tr.reps(9), func() error { stats.Of(r); return nil })
		us += t
		rows += r.Len()
	}
	tr.set("stats.collect_us_per_krow", us/float64(rows)*1000)
	return nil
}

// kernels times the relation substrate on the widest shape's relation: a
// self-join on the middle variable, as path2 performs it.
func (tr *tracer) kernels() error {
	r := tr.lib.db.MustRel(relName(0))
	s := relation.Rename(r, map[relation.Attr]relation.Attr{0: 1, 1: 2})
	reps := tr.reps(9)
	var out *relation.Relation
	us, _ := timeIt(reps, func() error { out = relation.NaturalJoin(r, s); return nil })
	tr.set("relation.join_ns_per_row", us*1000/float64(out.Len()+1))
	us, _ = timeIt(reps, func() error { relation.Semijoin(r, s); return nil })
	tr.set("relation.semijoin_ns_per_row", us*1000/float64(r.Len()))
	var ix *relation.Index
	us, _ = timeIt(reps, func() error { ix = relation.NewIndex(s, relation.Schema{1}); return nil })
	tr.set("relation.index_build_ns_per_row", us*1000/float64(s.Len()))
	key := make([]relation.Value, 1)
	var hits int
	us, _ = timeIt(reps, func() error {
		for i := 0; i < r.Len(); i++ {
			key[0] = r.At(1, i)
			hits += len(ix.Lookup(key))
		}
		return nil
	})
	if hits == 0 {
		return fmt.Errorf("index probes found nothing")
	}
	tr.set("relation.probe_ns", us*1000/float64(r.Len()))

	q, err := parser.New().ParseCQ(tr.in.shapeStmts()[0].text)
	if err != nil {
		return err
	}
	exec := func(o pyquery.Options) (float64, error) {
		p, err := pyquery.Prepare(q, tr.lib.db, o)
		if err != nil {
			return 0, err
		}
		return timeIt(tr.reps(15), func() error { _, err := p.Exec(context.Background()); return err })
	}
	p1, err := exec(pyquery.Options{Parallelism: 1})
	if err != nil {
		return err
	}
	p2, err := exec(pyquery.Options{Parallelism: 2})
	if err != nil {
		return err
	}
	governed, err := exec(pyquery.Options{Parallelism: 1, MaxRows: 1 << 40, MemoryLimit: 1 << 50})
	if err != nil {
		return err
	}
	tr.set("parallel.speedup_p2", p1/p2)
	tr.set("governor.overhead_share", governed/p1)
	return nil
}

// scaling turns the paper's bounds into numbers: the log-log slope of
// execution time over n, 2n, 4n at constant degree for the acyclic shape
// (linear: Yannakakis) and the acyclic-with-≠ shape (f(k)·n: Theorem 2).
func (tr *tracer) scaling() error {
	rnd := rand.New(rand.NewSource(tr.in.seed))
	for i, name := range []string{"yannakakis.slope_n", "core.slope_n"} { // path2, path-neq
		d := tr.in.sz.shapeRel[shapes[i].name]
		var s bench.Series
		for _, div := range []int{4, 2, 1} {
			g := randomGraph(rnd, relName(i), d[0]/div, d[1]/div, false)
			lib, err := loadLibrary([]*graph{g})
			if err != nil {
				return err
			}
			q, err := parser.New().ParseCQ(tr.in.shapeStmts()[i].text)
			if err != nil {
				return err
			}
			p, err := pyquery.Prepare(q, lib.db, pyquery.Options{Parallelism: 1})
			if err != nil {
				return err
			}
			us, err := timeIt(tr.reps(9), func() error { _, err := p.Exec(context.Background()); return err })
			if err != nil {
				return err
			}
			s.Add(float64(len(g.edges)), us)
		}
		tr.set(name, s.Slope())
	}
	return nil
}

// writePath times one-row mutations and refreshes in process: on the
// library DB for the storage layer alone, on the twin for what the
// service's locking and validation add.
func (tr *tracer) writePath() error {
	n := tr.reps(200)
	pool := tr.in.fresh[preInserted : preInserted+n]
	var ins, del, sins, ref []float64
	timed := func(dst *[]float64, f func()) {
		t0 := time.Now()
		f()
		*dst = append(*dst, micros(time.Since(t0)))
	}
	ctx := context.Background()
	var bad error
	refresh := func() {
		if _, _, err := tr.twin.Refresh(ctx, "hop2"); err != nil {
			bad = err
		}
	}
	for _, e := range pool {
		row := tr.row(e)
		timed(&ins, func() { tr.lib.db.Insert("E", row) })
		timed(&sins, func() {
			if _, err := tr.twin.Insert("E", [][]pyquery.Value{row}); err != nil {
				bad = err
			}
		})
		timed(&ref, refresh)
	}
	for _, e := range pool {
		row := tr.row(e)
		timed(&del, func() { tr.lib.db.Delete("E", row) })
		if _, err := tr.twin.Delete("E", [][]pyquery.Value{row}); err != nil {
			bad = err
		}
		timed(&ref, refresh)
	}
	if bad != nil {
		return bad
	}
	tr.set("query.insert_us", median(ins))
	tr.set("query.delete_us", median(del))
	tr.set("server.mutate.self_us", median(sins)-median(ins))
	tr.set("ivm.refresh_us", median(ref))
	return nil
}

// adhoc runs the lib-adhoc batch loop with per-call times kept, split by
// pool, and the allocator's counters around it.
func (tr *tracer) adhoc() error {
	a, err := newAdhoc(tr.in)
	if err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		_, err := a.batch()
		tr.t.ok(err)
	}
	a.keep = true
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	batches := 0
	for until := time.Now().Add(tr.budget(1.5)); time.Now().Before(until); batches++ {
		_, err := a.batch()
		tr.t.ok(err)
	}
	runtime.ReadMemStats(&m1)
	tr.set("adhoc.hot_us", a.hotLats.p50us())
	tr.set("adhoc.cold_us", a.coldLats.p50us())
	tr.set("lib.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(batches))
	tr.set("lib.bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(batches))
	runtime.GC()
	runtime.ReadMemStats(&m1)
	tr.set("lib.live_heap_mb", float64(m1.HeapAlloc)/(1<<20))
	return nil
}

// churn replays serve-churn's traffic against the child: the reader alone
// first, then beside the writer. The difference of the reader's medians is
// what the write lock costs a read.
func (tr *tracer) churn() error {
	view, err := startView(&tr.t, tr.firstRefresh, churnGraph(tr.in))
	if err != nil {
		return err
	}
	rk := newConn(tr.c.base)
	defer rk.close()
	look := newLookups(tr.in.E)
	keys := tr.in.srcSeq(rand.New(rand.NewSource(tr.in.seed*31+1)), 1<<14)
	alone, t := closedLoop(1, time.Now().Add(tr.budget(1)), func(_, i int) (time.Duration, error) {
		return look.op(rk, keys[i%len(keys)], true)
	})
	tr.t.merge(t)
	w, wr := churn(tr.c, tr.in, look, 3*tr.scale, view, &tr.t)
	checkView(&tr.t, rk, view)
	beside := w.samples.lats().sortedMicros()
	tr.set("churn.read_p50_us", quantile(beside, 0.5))
	tr.set("churn.read_p99_us", quantile(beside, 0.99))
	tr.set("churn.write_p50_us", wr.done.lats().p50us())
	tr.set("server.lock.read_stall_us", quantile(beside, 0.5)-alone.lats().p50us())
	tr.set("loadgen.late_us_p99", quantile(wr.late.sortedMicros(), 0.99))
	return nil
}

func (tr *tracer) process() error {
	rss, err := tr.c.peakRSSMB()
	if err != nil {
		return err
	}
	user, sys, err := tr.c.cpu()
	if err != nil {
		return err
	}
	tr.set("proc.peak_rss_mb", rss)
	tr.set("proc.cpu_user_s", user)
	tr.set("proc.cpu_sys_s", sys)
	return nil
}

func (tr *tracer) writeSpans(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": tr.in.seed, "spans": tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), b, 0o644)
}
