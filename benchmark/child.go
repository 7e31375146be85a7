package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The program under test for the serve-* workloads is a real cmd/qserved
// process with default flags: it is built from the checkout, given only
// generated CSV files and HTTP requests, and stopped with SIGTERM, which
// must drain cleanly.

// buildServer compiles cmd/qserved into dir. The import path resolves from
// the repository root and from the benchmark's own module alike.
func buildServer(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "qserved"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "pyquery/cmd/qserved")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build pyquery/cmd/qserved: %w\n%s", err, out)
	}
	return bin, nil
}

// writeCSVs writes one file per relation into dir and returns the -rel
// arguments naming them.
func writeCSVs(dir string, rels []*graph) ([]string, error) {
	var args []string
	for _, g := range rels {
		path := filepath.Join(dir, g.rel+".csv")
		if err := os.WriteFile(path, []byte(g.csv()), 0o644); err != nil {
			return nil, err
		}
		args = append(args, "-rel", g.rel+"="+path)
	}
	return args, nil
}

// running holds the children not yet waited for, so an interrupted
// benchmark can kill them instead of orphaning them.
var running = struct {
	sync.Mutex
	set map[*child]bool
}{set: map[*child]bool{}}

// killChildren kills every live child; main calls it on SIGINT/SIGTERM.
func killChildren() {
	running.Lock()
	defer running.Unlock()
	for c := range running.set {
		c.cmd.Process.Kill()
	}
}

type child struct {
	cmd     *exec.Cmd
	base    string
	stderr  bytes.Buffer
	done    chan struct{} // closed once the process has been waited for
	waitErr error         // valid after done
}

const (
	startTimeout = 20 * time.Second
	drainTimeout = 10 * time.Second
)

// startChild launches qserved on a free loopback port with the given
// extra arguments (only -rel preloads; every knob stays at its default)
// and returns once /healthz answers.
func startChild(bin string, relArgs []string) (*child, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	c := &child{base: "http://" + addr, done: make(chan struct{})}
	c.cmd = exec.Command(bin, append([]string{"-addr", addr}, relArgs...)...)
	c.cmd.Stderr = &c.stderr
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	running.Lock()
	running.set[c] = true
	running.Unlock()
	go func() {
		c.waitErr = c.cmd.Wait()
		running.Lock()
		delete(running.set, c)
		running.Unlock()
		close(c.done)
	}()
	probe := newConn(c.base)
	deadline := time.Now().Add(startTimeout)
	for {
		select {
		case <-c.done:
			return nil, fmt.Errorf("qserved exited during start-up: %v\n%s", c.waitErr, c.stderr.String())
		default:
		}
		if status, _, err := probe.do("GET", "/healthz", nil); err == nil && status == http.StatusOK {
			return c, nil
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("qserved not healthy after %v\n%s", startTimeout, c.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM and requires a clean drain: exit status 0 within
// drainTimeout. On timeout the process is killed so none is orphaned.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return err
	}
	select {
	case <-c.done:
		if c.waitErr != nil {
			return fmt.Errorf("qserved did not drain cleanly: %v\n%s", c.waitErr, c.stderr.String())
		}
		return nil
	case <-time.After(drainTimeout):
		c.kill()
		return fmt.Errorf("qserved still running %v after SIGTERM; killed", drainTimeout)
	}
}

// kill ends the process if it is still running and waits for it. It is
// safe after stop, so callers defer it against early returns.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. It
// is 100 on every Linux ABI Go supports.
const clockTick = 100

// cpu returns the child's user and system CPU seconds so far.
func (c *child) cpu() (user, sys float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields follow the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, the 12th and 13th after it.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc stat line %q", b)
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	s, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	return u / clockTick, s / clockTick, nil
}

// peakRSSMB reads the child's resident-set high-water mark.
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// conn is one keep-alive connection to the child: its transport is capped
// at a single connection, so a workload's connection count is exactly the
// number of conns it creates.
type conn struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (k *conn) close() { k.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. The returned body is
// only valid until the next call on this conn.
func (k *conn) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, k.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := k.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	k.buf.Reset()
	_, err = k.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, k.buf.Bytes(), nil
}

// execReply is the part of an exec response the benchmark reads.
type execReply struct {
	Rows   [][]any `json:"rows"`
	N      int     `json:"n"`
	Engine string  `json:"engine"`
}

type refreshReply struct {
	Added   [][]any `json:"added"`
	Removed [][]any `json:"removed"`
}

// decode parses a response body with integers kept exact.
func decode(body []byte, v any) error {
	d := json.NewDecoder(bytes.NewReader(body))
	d.UseNumber()
	return d.Decode(v)
}

// tailInt reads the integer after the last occurrence of key (as in
// `"n":`) without decoding the rows before it: inside the measured window
// the generator must stay cheap next to a 20 000-row response. No rendered
// cell can contain a key, since cells are integers or n-prefixed names.
func tailInt(body []byte, key string) (int, bool) {
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	i += len(key)
	j := i
	for j < len(body) && body[j] >= '0' && body[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(body[i:j]))
	return n, err == nil
}

// exec posts to a statement's exec endpoint and fully decodes the reply.
func (k *conn) exec(stmt string, body []byte) (*execReply, error) {
	status, b, err := k.do("POST", "/stmt/"+stmt+"/exec", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("exec %s: status %d: %s", stmt, status, b)
	}
	var r execReply
	if err := decode(b, &r); err != nil {
		return nil, fmt.Errorf("exec %s: %w", stmt, err)
	}
	return &r, nil
}

func (k *conn) refresh(stmt string) (*refreshReply, error) {
	status, b, err := k.do("POST", "/stmt/"+stmt+"/refresh", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("refresh %s: status %d: %s", stmt, status, b)
	}
	var r refreshReply
	if err := decode(b, &r); err != nil {
		return nil, fmt.Errorf("refresh %s: %w", stmt, err)
	}
	return &r, nil
}

func (k *conn) register(s stmtDef) error {
	body, _ := json.Marshal(map[string]string{"query": s.text})
	status, b, err := k.do("PUT", "/stmt/"+s.name, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("register %s: status %d: %s", s.name, status, b)
	}
	return nil
}

// mutate posts an insert or delete and returns how many rows changed the
// relation.
func (k *conn) mutate(rel, op string, body []byte) (int, error) {
	status, b, err := k.do("POST", "/rel/"+rel+"/"+op, body)
	if err != nil {
		return 0, err
	}
	n, ok := tailInt(b, `"changed":`)
	if status != http.StatusOK || !ok {
		return 0, fmt.Errorf("%s %s: status %d: %s", op, rel, status, b)
	}
	return n, nil
}

func srcBody(name string) []byte { return []byte(`{"params":{"src":"` + name + `"}}`) }

// rowsBody renders edges of g as an insert or delete body. Node ids travel
// quoted; "7" on the wire is the number 7, as in a CSV.
func rowsBody(g *graph, edges ...edge) []byte {
	b := []byte(`{"rows":[`)
	for i, e := range edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `["`+g.node(e.a)+`","`+g.node(e.b)+`"]`...)
	}
	return append(b, `]}`...)
}
