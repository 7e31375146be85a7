package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"pyquery"
	"pyquery/internal/parser"
)

// End-to-end runs: set the program up, check every answer against the
// oracle, warm up, then measure one untraced window. Nothing here times a
// layer; trace.go does that in a separate run.

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations and keeps the first
// failure for the log. It is not safe for concurrent use; concurrent
// workers keep their own and merge.
type tally struct {
	attempted, failed int
	first             error
}

func (t *tally) ok(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if t.first == nil {
			t.first = err
		}
	}
	return err == nil
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.first == nil {
		t.first = o.first
	}
}

type env struct {
	buildDir string
	bin      string // qserved, built on first use
	conns    int    // min(nproc, 2): the host has two cores and the generator shares them
	setups   int    // set-ups per run; setup_s is their median
	sz       sizes
}

func (e *env) server() (string, error) {
	if e.bin == "" {
		bin, err := buildServer(e.buildDir)
		if err != nil {
			return "", err
		}
		e.bin = bin
	}
	return e.bin, nil
}

// served describes what a serve-* workload loads into qserved.
type served struct {
	rels  []*graph
	stmts []stmtDef
	// first executes every statement once over k; set-up ends when it
	// returns, so registration and first-execution costs are in setup_s.
	first func(k *conn) error
}

// start performs one timed set-up: process start → CSV load → statements
// registered → each executed once.
func (s *served) start(e *env) (*child, time.Duration, error) {
	bin, err := e.server()
	if err != nil {
		return nil, 0, err
	}
	relArgs, err := writeCSVs(e.buildDir, s.rels)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	c, err := startChild(bin, relArgs)
	if err != nil {
		return nil, 0, err
	}
	k := newConn(c.base)
	defer k.close()
	for _, st := range s.stmts {
		if err := k.register(st); err != nil {
			c.kill()
			return nil, 0, err
		}
	}
	if err := s.first(k); err != nil {
		c.kill()
		return nil, 0, err
	}
	return c, time.Since(t0), nil
}

// setUp runs e.setups set-ups, keeps the last child for the measured
// window and returns the median set-up time. Every discarded child must
// drain cleanly.
func (s *served) setUp(e *env, t *tally) (*child, float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		c, d, err := s.start(e)
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, d.Seconds())
		if i == e.setups-1 {
			return c, median(secs), nil
		}
		t.ok(c.stop())
	}
}

// closedLoop runs op on n workers, each sending its next operation only
// after the previous one completed, until the deadline. op reports the
// operation's latency and whether it succeeded with the right answer.
func closedLoop(n int, until time.Time, op func(worker, i int) (time.Duration, error)) (samples, tally) {
	var mu sync.Mutex
	var all samples
	var total tally
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine samples
			var t tally
			for i := 0; time.Now().Before(until); i++ {
				d, err := op(w, i)
				if t.ok(err) {
					mine = append(mine, sample{time.Now(), d})
				}
			}
			mu.Lock()
			all = append(all, mine...)
			total.merge(t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, total
}

// window is one measured interval of the closed loop.
type window struct {
	from, to time.Time
	samples  samples
}

func warmUp(seconds float64) time.Duration {
	w := seconds / 10
	if w > 2 {
		w = 2
	}
	return time.Duration(w * float64(time.Second))
}

// measure runs a discarded warm-up, then the closed loop for the given
// seconds.
func measure(n int, seconds float64, t *tally, op func(worker, i int) (time.Duration, error)) window {
	closedLoop(n, time.Now().Add(warmUp(seconds)), op)
	w := window{from: time.Now()}
	var tt tally
	w.samples, tt = closedLoop(n, w.from.Add(time.Duration(seconds*float64(time.Second))), op)
	w.to = time.Now()
	t.merge(tt)
	return w
}

// endToEnd fills the metrics every workload reports, all of them plain
// figures of the whole window, so a stall the program makes — a collection,
// a compaction, a lock convoy — counts in full however short it is. primary
// holds the workload's primary operation; ops holds every completed correct
// operation of any kind.
func endToEnd(setup float64, primary, ops samples, w window) map[string]metric {
	primary, ops = primary.between(w.from, w.to), ops.between(w.from, w.to)
	us := primary.lats().sortedMicros()
	return map[string]metric{
		"setup_s":   {setup, "s"},
		"ops_per_s": {float64(len(ops)) / w.to.Sub(w.from).Seconds(), "1/s"},
		"p50_ms":    {quantile(us, 0.50) / 1000, "ms"},
		"p99_ms":    {quantile(us, 0.99) / 1000, "ms"},
	}
}

func finish(t tally, m map[string]metric) *result {
	if t.first != nil {
		fmt.Fprintln(os.Stderr, "first failure:", t.first)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// library loads the same CSV text the server gets into an in-process DB,
// with a symbol table that mirrors the server's (same load order, so the
// same interned values).
type library struct {
	db   *pyquery.DB
	syms *parser.Symbols
}

func loadLibrary(rels []*graph) (*library, error) {
	lib := &library{db: pyquery.NewDB(), syms: parser.NewSymbols()}
	for _, g := range rels {
		if err := parser.LoadCSV(lib.db, g.rel, strings.NewReader(g.csv()), lib.syms); err != nil {
			return nil, err
		}
	}
	return lib, nil
}

func (l *library) render(v pyquery.Value) string { return l.syms.String(v) }

// evaluate parses text and runs it through the facade's one-shot path.
func (l *library) evaluate(text string) (answer, error) {
	q, err := parser.NewWithSymbols(l.syms).ParseCQ(text)
	if err != nil {
		return answer{}, err
	}
	r, err := pyquery.Evaluate(q, l.db)
	if err != nil {
		return answer{}, err
	}
	return answerOfRel(r, l.render), nil
}

func differ(what string, got, want answer) error {
	if got != want {
		return fmt.Errorf("%s: got %d rows (hash %x), oracle has %d (hash %x)", what, got.n, got.hash, want.n, want.hash)
	}
	return nil
}

// wireAnswer executes a statement over HTTP and folds the decoded rows.
func wireAnswer(k *conn, stmt string, body []byte) (answer, error) {
	r, err := k.exec(stmt, body)
	if err != nil {
		return answer{}, err
	}
	return answerOfWire(r.Rows)
}

// checkStmt compares one statement's answer over HTTP and — given a
// library holding the same data — through Evaluate with the oracle's.
// libText is the statement with its parameters inlined.
func checkStmt(t *tally, k *conn, lib *library, stmt string, body []byte, libText string, want answer) {
	got, err := wireAnswer(k, stmt, body)
	if err == nil {
		err = differ(stmt+" over HTTP", got, want)
	}
	t.ok(err)
	if lib == nil {
		return
	}
	if got, err = lib.evaluate(libText); err == nil {
		err = differ(stmt+" through Evaluate", got, want)
	}
	t.ok(err)
}

// --- serve-point ---------------------------------------------------------

// checkAdj checks the point lookup for the given keys against the oracle
// over g, the graph the server holds now.
func checkAdj(t *tally, k *conn, lib *library, g *graph, keys []int) {
	for _, a := range keys {
		name := g.node(a)
		checkStmt(t, k, lib, "adj", srcBody(name),
			fmt.Sprintf(`Q(y) :- E("%s", x), E(x, y).`, name), answerOf(g, refHop2(g, a)))
	}
}

// lookups is the point-lookup load as the measured loops send it: one
// request body and the oracle's answer size per key of E.
type lookups struct {
	bodies [][]byte
	counts []int
}

func newLookups(g *graph) *lookups {
	l := &lookups{bodies: make([][]byte, g.nodes), counts: make([]int, g.nodes)}
	for a := range l.bodies {
		l.bodies[a] = srcBody(g.node(a))
		l.counts[a] = len(refHop2(g, a))
	}
	return l
}

// op sends one lookup and compares the reply's row count with the
// oracle's without decoding the rows. Beside a writer that only ever adds
// to E's original edges the count may exceed the oracle's, never fall
// short.
func (l *lookups) op(k *conn, src int, besideWriter bool) (time.Duration, error) {
	t0 := time.Now()
	status, b, err := k.do("POST", "/stmt/adj/exec", l.bodies[src])
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	n, ok := tailInt(b, `"n":`)
	if status != 200 || !ok || n < l.counts[src] || n > l.counts[src] && !besideWriter {
		return d, fmt.Errorf("adj(%d): status %d, n=%d, oracle has %d", src, status, n, l.counts[src])
	}
	return d, nil
}

func servePoint(e *env, in *inputs, seconds float64) (*result, error) {
	var t tally
	look := newLookups(in.E)
	s := &served{
		rels:  []*graph{in.E},
		stmts: []stmtDef{{"adj", adjText}},
		first: func(k *conn) error { _, err := look.op(k, 0, false); return err },
	}
	c, setup, err := s.setUp(e, &t)
	if err != nil {
		return nil, err
	}
	defer c.kill()
	lib, err := loadLibrary(s.rels)
	if err != nil {
		return nil, err
	}
	k := newConn(c.base)
	checkAdj(&t, k, lib, in.E, in.srcSeq(rand.New(rand.NewSource(in.seed)), 40))
	k.close()

	conns, keys := make([]*conn, e.conns), make([][]int, e.conns)
	for w := range conns {
		conns[w] = newConn(c.base)
		keys[w] = in.srcSeq(rand.New(rand.NewSource(in.seed*31+int64(w)+1)), 1<<16)
	}
	w := measure(e.conns, seconds, &t, func(wk, i int) (time.Duration, error) {
		return look.op(conns[wk], keys[wk][i%len(keys[wk])], false)
	})
	for _, k := range conns {
		k.close()
	}
	t.ok(c.stop())
	return finish(t, endToEnd(setup, w.samples, w.samples, w)), nil
}

// --- serve-analytic ------------------------------------------------------

func shapeWants(in *inputs) []answer {
	out := make([]answer, len(shapes))
	for i, sh := range shapes {
		out[i] = answerOf(in.shapeG[i], sh.ref(in.shapeG[i], -1))
	}
	return out
}

func firstShapes(k *conn) error {
	for _, sh := range shapes {
		if _, _, err := execN(k, sh.name); err != nil {
			return err
		}
	}
	return nil
}

// execN executes a parameterless statement and returns its row count and
// the server-side time without decoding the rows.
func execN(k *conn, stmt string) (n int, us int, err error) {
	status, b, err := k.do("POST", "/stmt/"+stmt+"/exec", nil)
	if err != nil {
		return 0, 0, err
	}
	n, ok := tailInt(b, `"n":`)
	us, ok2 := tailInt(b, `"us":`)
	if status != 200 || !ok || !ok2 {
		return 0, 0, fmt.Errorf("exec %s: status %d: %.200s", stmt, status, b)
	}
	return n, us, nil
}

// round is the dashboard round: the six shapes back to back on one
// connection. Summing a fixed round keeps the latency population unimodal.
// Connection w starts its rounds w·3 shapes in, so two connections do not
// send the same statement in lockstep and ride each other's executions by
// an accident of phase.
func round(k *conn, w int, wants []answer) (time.Duration, error) {
	t0 := time.Now()
	var bad error
	for j := range shapes {
		i := (j + 3*w) % len(shapes)
		sh := shapes[i]
		n, _, err := execN(k, sh.name)
		if err == nil && n != wants[i].n {
			err = fmt.Errorf("%s: %d rows, oracle has %d", sh.name, n, wants[i].n)
		}
		if err != nil && bad == nil {
			bad = err
		}
	}
	return time.Since(t0), bad
}

func checkShapes(t *tally, k *conn, lib *library, in *inputs, wants []answer) {
	for i, st := range in.shapeStmts() {
		checkStmt(t, k, lib, st.name, nil, st.text, wants[i])
	}
}

func serveAnalytic(e *env, in *inputs, seconds float64) (*result, error) {
	var t tally
	s := &served{rels: in.shapeG, stmts: in.shapeStmts(), first: firstShapes}
	c, setup, err := s.setUp(e, &t)
	if err != nil {
		return nil, err
	}
	defer c.kill()
	lib, err := loadLibrary(s.rels)
	if err != nil {
		return nil, err
	}
	wants := shapeWants(in)
	k := newConn(c.base)
	checkShapes(&t, k, lib, in, wants)
	k.close()

	conns := make([]*conn, e.conns)
	for w := range conns {
		conns[w] = newConn(c.base)
	}
	w := measure(e.conns, seconds, &t, func(wk, i int) (time.Duration, error) {
		return round(conns[wk], wk, wants)
	})
	for _, k := range conns {
		k.close()
	}
	t.ok(c.stop())
	return finish(t, endToEnd(setup, w.samples, w.samples, w)), nil
}

// --- serve-churn ---------------------------------------------------------

const (
	writeRate   = 100 // writes per second, fixed so reader numbers compare across commits
	writeLag    = 500 // a delete removes the edge inserted this many writes earlier
	preInserted = writeLag / 2
)

// writer is the open-loop mutation stream: every 1/writeRate seconds one
// write is due — alternately the insert of a fresh edge and the delete of
// the oldest inserted one — followed by a refresh of hop2. A write is timed
// from when it was due, so a stall charges every write queued behind it.
type writer struct {
	k     *conn
	in    *inputs
	view  pairSet
	fifo  []edge
	next  int     // index into in.fresh
	done  samples // completed writes, timed from when each was due
	late  lats    // how long after its due time each write was sent
	tally tally
}

// preload inserts the first preInserted fresh edges in one request, so the
// alternation deletes an edge inserted writeLag writes earlier from the
// first write on.
func preload(k *conn, in *inputs) error {
	n, err := k.mutate("E", "insert", rowsBody(in.E, in.fresh[:preInserted]...))
	if err == nil && n != preInserted {
		err = fmt.Errorf("preload changed %d rows, want %d", n, preInserted)
	}
	return err
}

func newWriter(k *conn, in *inputs, view pairSet) *writer {
	return &writer{k: k, in: in, view: view, fifo: append([]edge(nil), in.fresh[:preInserted]...), next: preInserted}
}

func (w *writer) write(i int) error {
	var e edge
	op := "insert"
	if i%2 == 0 {
		e = w.in.fresh[w.next%len(w.in.fresh)]
		w.next++
		w.fifo = append(w.fifo, e)
	} else {
		op = "delete"
		e, w.fifo = w.fifo[0], w.fifo[1:]
	}
	changed, err := w.k.mutate("E", op, rowsBody(w.in.E, e))
	if err != nil {
		return err
	}
	if changed != 1 {
		return fmt.Errorf("%s of %v changed %d rows", op, e, changed)
	}
	r, err := w.k.refresh("hop2")
	if err != nil {
		return err
	}
	return w.view.apply(r.Added, r.Removed)
}

// waitUntil returns at due, or false once stop is closed. A Go timer fires
// up to a netpoller tick — a millisecond — late, which is as long as the
// write it would schedule, so the timer covers all but the last stretch and
// the rest is polled.
func waitUntil(due time.Time, stop <-chan struct{}) bool {
	const polled = 1500 * time.Microsecond
	if d := time.Until(due) - polled; d > 0 {
		select {
		case <-stop:
			return false
		case <-time.After(d):
		}
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
	select {
	case <-stop:
		return false
	default:
		return true
	}
}

// run sends writes on schedule until stop is closed; samples due before
// from are warm-up and discarded.
func (w *writer) run(from time.Time, stop <-chan struct{}) {
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * time.Second / writeRate)
		if !waitUntil(due, stop) {
			return
		}
		sent := time.Now()
		err := w.write(i)
		if due.Before(from) {
			continue
		}
		if w.tally.ok(err) {
			now := time.Now()
			w.done = append(w.done, sample{now, now.Sub(due)})
			w.late = append(w.late, sent.Sub(due))
		}
	}
}

func churnServed(in *inputs, firstRefresh *[]byte) *served {
	return &served{
		rels:  []*graph{in.E},
		stmts: []stmtDef{{"adj", adjText}, {"hop2", hop2Text}},
		first: func(k *conn) error {
			if _, err := k.exec("adj", srcBody(in.E.node(0))); err != nil {
				return err
			}
			if err := preload(k, in); err != nil {
				return err
			}
			// The first refresh materialises hop2 (the IVM rebuild) and
			// returns it whole; the client-side view starts from it.
			status, b, err := k.do("POST", "/stmt/hop2/refresh", nil)
			if err != nil || status != 200 {
				return fmt.Errorf("first refresh: status %d: %v", status, err)
			}
			*firstRefresh = append((*firstRefresh)[:0], b...)
			return nil
		},
	}
}

// churnGraph is E plus the preloaded edges: what the oracle sees after
// set-up.
func churnGraph(in *inputs) *graph {
	return newGraph("E", in.E.nodes, true, append(append([]edge(nil), in.E.edges...), in.fresh[:preInserted]...))
}

// startView decodes the first refresh into the client-side view and checks
// it against the oracle's hop2 over g.
func startView(t *tally, raw []byte, g *graph) (pairSet, error) {
	var r refreshReply
	if err := decode(raw, &r); err != nil {
		return nil, err
	}
	view := pairSet{}
	if err := view.apply(r.Added, r.Removed); err != nil {
		return nil, err
	}
	t.ok(differ("first hop2 refresh", view.answer(), answerOf(g, refHop2(g, -1))))
	return view, nil
}

// checkView requires the delta-maintained client view to equal a fresh
// execution of hop2.
func checkView(t *tally, k *conn, view pairSet) {
	got, err := wireAnswer(k, "hop2", nil)
	if err == nil {
		err = differ("client view after every refresh delta vs final hop2 exec", view.answer(), got)
	}
	t.ok(err)
}

// churn runs the reader's closed loop beside the open-loop writer for a
// warm-up and a window, and returns the window and the writer's samples.
func churn(c *child, in *inputs, look *lookups, seconds float64, view pairSet, t *tally) (window, *writer) {
	wk, rk := newConn(c.base), newConn(c.base)
	defer wk.close()
	defer rk.close()
	keys := in.srcSeq(rand.New(rand.NewSource(in.seed*31+1)), 1<<16)
	wr := newWriter(wk, in, view)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		wr.run(time.Now().Add(warmUp(seconds)), stop)
	}()
	w := measure(1, seconds, t, func(_, i int) (time.Duration, error) {
		return look.op(rk, keys[i%len(keys)], true)
	})
	close(stop)
	<-done
	t.merge(wr.tally)
	return w, wr
}

func serveChurn(e *env, in *inputs, seconds float64) (*result, error) {
	var t tally
	var raw []byte
	s := churnServed(in, &raw)
	c, setup, err := s.setUp(e, &t)
	if err != nil {
		return nil, err
	}
	defer c.kill()
	g := churnGraph(in)
	lib, err := loadLibrary([]*graph{g})
	if err != nil {
		return nil, err
	}
	view, err := startView(&t, raw, g)
	if err != nil {
		return nil, err
	}
	k := newConn(c.base)
	defer k.close()
	checkAdj(&t, k, lib, g, in.srcSeq(rand.New(rand.NewSource(in.seed)), 20))

	w, wr := churn(c, in, newLookups(in.E), seconds, view, &t)
	checkView(&t, k, view)
	t.ok(c.stop())
	// The write — due time to refreshed — is this workload's primary
	// operation; the reader shows in ops_per_s (one closed-loop connection,
	// so its rate is the inverse of its mean latency).
	return finish(t, endToEnd(setup, wr.done, append(append(samples(nil), w.samples...), wr.done...), w)), nil
}

// --- lib-adhoc -----------------------------------------------------------

const batchCalls = 24 // ParseCQ + EvaluateOpts calls per operation

// adhoc is the library caller who inlines constants: every call parses
// its text and evaluates it with default Options through the per-DB plan
// cache. Half the calls of a batch come from the hot pool, which fits the
// 128-entry cache; half walk round-robin through the cold pool, four times
// the cache, so each of them plans from scratch.
type adhoc struct {
	lib  *library
	prs  *parser.Parser
	in   *inputs
	rnd  *rand.Rand
	cold int
	// per-call times of the last batches, split by pool (trace runs only)
	hotLats, coldLats lats
	keep              bool
}

func newAdhoc(in *inputs) (*adhoc, error) {
	lib, err := loadLibrary(in.shapeG)
	if err != nil {
		return nil, err
	}
	return &adhoc{lib: lib, prs: parser.NewWithSymbols(lib.syms), in: in, rnd: rand.New(rand.NewSource(in.seed))}, nil
}

func (a *adhoc) call(tx adhocText) (time.Duration, error) {
	t0 := time.Now()
	q, err := a.prs.ParseCQ(tx.text)
	if err != nil {
		return 0, err
	}
	r, err := pyquery.EvaluateOpts(q, a.lib.db, pyquery.Options{})
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	return d, differ(tx.text, answerOfRel(r, a.lib.render), tx.want)
}

func (a *adhoc) batch() (time.Duration, error) {
	var total time.Duration
	var bad error
	for i := 0; i < batchCalls; i++ {
		var tx adhocText
		hot := i%2 == 0
		if hot {
			tx = a.in.hot[a.rnd.Intn(len(a.in.hot))]
		} else {
			tx = a.in.cold[a.cold%len(a.in.cold)]
			a.cold++
		}
		d, err := a.call(tx)
		if err != nil && bad == nil {
			bad = err
		}
		total += d
		if a.keep {
			if hot {
				a.hotLats = append(a.hotLats, d)
			} else {
				a.coldLats = append(a.coldLats, d)
			}
		}
	}
	return total, bad
}

func libAdhoc(e *env, in *inputs, seconds float64) (*result, error) {
	var t tally
	// Set-up: CSV text → DB, and the first plan of every shape.
	var secs []float64
	var a *adhoc
	for i := 0; i < e.setups; i++ {
		t0 := time.Now()
		var err error
		if a, err = newAdhoc(in); err != nil {
			return nil, err
		}
		for _, tx := range in.hot[:len(shapes)] {
			if _, err := a.call(tx); err != nil {
				return nil, err
			}
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	for _, tx := range append(append([]adhocText(nil), in.hot...), in.cold...) {
		_, err := a.call(tx)
		t.ok(err)
	}
	runtime.GC()
	w := measure(1, seconds, &t, func(_, _ int) (time.Duration, error) { return a.batch() })
	return finish(t, endToEnd(median(secs), w.samples, w.samples, w)), nil
}

var workloads = []struct {
	name, why string
	run       func(*env, *inputs, float64) (*result, error)
}{
	{"serve-point", "closed loop, 2 connections, Zipf(1.1) point lookups with symbolic keys: transport, protocol and service layers do nearly all the work, engines none", servePoint},
	{"serve-analytic", "closed loop, 2 connections, rounds of six statements, one per query shape the paper tells apart: engines, relation kernels and row rendering dominate", serveAnalytic},
	{"serve-churn", fmt.Sprintf("open-loop writer at %d writes/s (insert or delete, then refresh) beside a closed-loop reader: ivm, the changelog and the write lock do the work", writeRate), serveChurn},
	{"lib-adhoc", "no server; batches of 24 parse+evaluate calls, half from a hot set that fits the plan cache, half from a pool four times its size: planning is on the request path", libAdhoc},
}

func runWorkload(name string, e *env, in *inputs, seconds float64) (*result, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.run(e, in, seconds)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
