// Package governor enforces per-query resource limits across the engines.
// A Meter is created per execution (and per governed compile step) by the
// facade's prepared layer and threaded to the engine alongside the worker
// budget; engines consult it only at their existing cancellation points —
// search-node emission batches for the backtracker, pass steps for the tree
// engines, trial batches for color coding, bag materializations for the
// decomposition engine — so the hot path cost is a branch on a counter, not
// an allocation.
//
// A trip is first-wins and sticky: the first checkpoint that observes an
// exceeded limit (or a canceled context, or an injected fault) records a
// typed *Error and flips the meter's stop flag, which the backtracker's
// cursors poll per node. Every later checkpoint returns the same error, so
// all workers drain promptly and the caller surfaces one coherent failure.
//
// All Meter methods are nil-safe: engine-direct callers that never set
// limits pass a nil *Meter and pay nothing.
package governor

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// The typed failure taxonomy. Every governor trip unwraps to exactly one of
// these sentinels (plus, for the context kinds, the underlying ctx error),
// so callers dispatch with errors.Is.
var (
	// ErrRowLimit trips when the total materialized rows of an execution
	// exceed Options.MaxRows.
	ErrRowLimit = errors.New("governor: materialized row limit exceeded")
	// ErrMemoryLimit trips when the approximate materialized bytes exceed
	// Options.MemoryLimit.
	ErrMemoryLimit = errors.New("governor: memory limit exceeded")
	// ErrTimeout trips when the execution context's deadline passes
	// (Options.Timeout or a caller-supplied deadline).
	ErrTimeout = errors.New("governor: query timed out")
	// ErrCanceled trips when the execution context is canceled.
	ErrCanceled = errors.New("governor: query canceled")
)

// Error is one recorded governor trip: which limit tripped, in which engine,
// at which checkpoint step, and the charged totals at that moment. It
// unwraps to its Kind sentinel and, for context trips, to the underlying
// context error — so errors.Is(err, ErrTimeout) and
// errors.Is(err, context.DeadlineExceeded) both hold.
type Error struct {
	// Kind is one of the package sentinels (or an injected test error).
	Kind error
	// Engine labels the engine that tripped (yannakakis, colorcoding,
	// comparisons, generic, decomp, decide).
	Engine string
	// Step names the checkpoint that observed the trip.
	Step string
	// Rows and Bytes are the charged totals at the trip.
	Rows, Bytes int64
	// Limit is the exceeded budget (rows or bytes; 0 for context trips).
	Limit int64
	// Cause is the underlying context error for timeout/cancel trips.
	Cause error
}

func (e *Error) Error() string {
	s := fmt.Sprintf("%v [engine=%s step=%s rows=%d bytes=%d", e.Kind, e.Engine, e.Step, e.Rows, e.Bytes)
	if e.Limit > 0 {
		s += fmt.Sprintf(" limit=%d", e.Limit)
	}
	return s + "]"
}

// Unwrap exposes the sentinel kind and, when present, the context cause.
func (e *Error) Unwrap() []error {
	if e.Cause != nil {
		return []error{e.Kind, e.Cause}
	}
	return []error{e.Kind}
}

// Hook observes every governor checkpoint. n is the meter-local checkpoint
// ordinal (1-based), engine and step identify the checkpoint site. A
// non-nil return forces a trip with that error as the kind — the
// fault-injection harness (internal/faults) uses this to fail any engine at
// its Nth checkpoint. The hook may also panic, which exercises the
// facade's panic recovery.
type Hook func(n int64, engine, step string) error

// testHook is the process-wide fault-injection hook, captured by New into
// each meter. Production code never sets it; the compiled-in cost when
// unset is one atomic load at meter construction.
var testHook atomic.Pointer[Hook]

// SetTestHook installs (or, with nil, removes) the fault-injection hook.
// Meters capture the hook at construction, so tests install it before the
// run under test and remove it after.
func SetTestHook(h Hook) {
	if h == nil {
		testHook.Store(nil)
		return
	}
	testHook.Store(&h)
}

// Meter tracks one execution's materialized rows and approximate bytes
// against its limits, classifies context ends into the typed taxonomy, and
// records the first trip. Charge and Check are safe for concurrent workers.
type Meter struct {
	engine   string
	ctx      context.Context
	maxRows  int64
	maxBytes int64
	hook     Hook

	rows    atomic.Int64
	bytes   atomic.Int64
	nchecks atomic.Int64
	trip    atomic.Pointer[Error]
	stop    atomic.Bool
}

// New returns a meter for one execution, or nil when there is nothing to
// govern: no row/byte limit, no cancelable context, and no installed hook.
// The nil return keeps ungoverned paths at their pre-governor cost — every
// Meter method tolerates a nil receiver.
func New(ctx context.Context, engine string, maxRows, maxBytes int64) *Meter {
	var hook Hook
	if h := testHook.Load(); h != nil {
		hook = *h
	}
	if maxRows <= 0 && maxBytes <= 0 && hook == nil && (ctx == nil || ctx.Done() == nil) {
		return nil
	}
	return &Meter{ctx: ctx, engine: engine, maxRows: maxRows, maxBytes: maxBytes, hook: hook}
}

// Check is a pure checkpoint: it reports the recorded trip, consults the
// fault hook, and classifies a finished context into ErrTimeout or
// ErrCanceled. Engines call it where they previously only polled ctx.
func (m *Meter) Check(step string) error {
	if m == nil {
		return nil
	}
	if t := m.trip.Load(); t != nil {
		return t
	}
	if m.hook != nil {
		if err := m.hook(m.nchecks.Add(1), m.engine, step); err != nil {
			return m.tripNow(err, step, 0, nil)
		}
	}
	if m.ctx != nil {
		if cerr := m.ctx.Err(); cerr != nil {
			kind := ErrCanceled
			if errors.Is(cerr, context.DeadlineExceeded) {
				kind = ErrTimeout
			}
			return m.tripNow(kind, step, 0, cerr)
		}
	}
	return nil
}

// Check is the engines' boundary checkpoint under an optional meter: the
// governed m.Check when a meter is threaded, the plain nil-tolerant ctx poll
// otherwise — so an ungoverned execution pays one pointer test.
func Check(ctx context.Context, m *Meter, step string) error {
	if m != nil {
		return m.Check(step)
	}
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Stop returns the one flag a search polls per node: the meter's own stop
// flag (flipped by every trip) when a meter is threaded, which a cancelable
// context flips too, so the hot path stays a single atomic load no matter
// how many stop sources exist. The flag is nil when there is nothing to
// watch; release detaches the context watcher.
func Stop(ctx context.Context, m *Meter) (flag *atomic.Bool, release func()) {
	if m != nil {
		flag = &m.stop
	}
	if ctx == nil || ctx.Done() == nil {
		return flag, func() {}
	}
	if flag == nil {
		flag = new(atomic.Bool)
	}
	detach := context.AfterFunc(ctx, func() { flag.Store(true) })
	return flag, func() { detach() }
}

// Charge adds rows materialized rows and bytes approximate bytes and trips
// when a budget is exceeded. It is also a hook checkpoint, so the
// fault-injection sweep covers charge sites; it does not poll the context
// (Check does, at coarser boundaries).
func (m *Meter) Charge(rows, bytes int64, step string) error {
	if m == nil {
		return nil
	}
	if t := m.trip.Load(); t != nil {
		return t
	}
	if m.hook != nil {
		if err := m.hook(m.nchecks.Add(1), m.engine, step); err != nil {
			return m.tripNow(err, step, 0, nil)
		}
	}
	if m.maxRows <= 0 && m.maxBytes <= 0 {
		return nil
	}
	r := m.rows.Add(rows)
	b := m.bytes.Add(bytes)
	if m.maxRows > 0 && r > m.maxRows {
		return m.tripNow(ErrRowLimit, step, m.maxRows, nil)
	}
	if m.maxBytes > 0 && b > m.maxBytes {
		return m.tripNow(ErrMemoryLimit, step, m.maxBytes, nil)
	}
	return nil
}

// Release refunds rows/bytes charged for state that has been dropped — the
// decomposition engine's degradation path releases its bags here so the
// backtracker fallback runs under the remaining budget.
func (m *Meter) Release(rows, bytes int64) {
	if m == nil {
		return
	}
	m.rows.Add(-rows)
	m.bytes.Add(-bytes)
}

// Err returns the recorded trip, or nil.
func (m *Meter) Err() error {
	if m == nil {
		return nil
	}
	if t := m.trip.Load(); t != nil {
		return t
	}
	return nil
}

// Tripped reports whether a trip has been recorded.
func (m *Meter) Tripped() bool { return m != nil && m.trip.Load() != nil }

// Rows and Bytes report the charged totals (0 on a nil meter).
func (m *Meter) Rows() int64 {
	if m == nil {
		return 0
	}
	return m.rows.Load()
}

// Bytes reports the charged approximate byte total.
func (m *Meter) Bytes() int64 {
	if m == nil {
		return 0
	}
	return m.bytes.Load()
}

// emitBatch is how many emitted rows a worker accumulates locally before
// charging the meter: the emission hot path pays a local counter increment
// and branch, with one Charge per batch.
const emitBatch = 64

// BatchEmit wraps a search worker's per-row emission callback so that, under
// m, every emitBatch emitted rows of the given width are charged as one
// Charge(rows, bytes, "emit"); the wrapped callback returns false once the
// meter trips. flush charges the partial batch and must run after the
// worker's search drains, before the finish checkpoint. Under a nil meter
// emit is returned unwrapped, so an ungoverned search pays nothing per row.
func BatchEmit(m *Meter, width int, emit func() bool) (metered func() bool, flush func()) {
	if m == nil {
		return emit, func() {}
	}
	rowBytes := RelBytes(1, width)
	pend := int64(0)
	metered = func() bool {
		if !emit() {
			return false
		}
		if pend++; pend < emitBatch {
			return true
		}
		err := m.Charge(pend, pend*rowBytes, "emit")
		pend = 0
		return err == nil
	}
	flush = func() {
		if pend > 0 {
			m.Charge(pend, pend*rowBytes, "emit")
			pend = 0
		}
	}
	return metered, flush
}

// RelBytes approximates the memory footprint of a materialized relation:
// rows × width × 8 bytes (relation.Value is an int64). The estimate ignores
// slice headers and hash-set overhead by design — the budget check must
// stay a pair of atomic adds.
func RelBytes(rows, width int) int64 { return int64(rows) * int64(width) * 8 }

func (m *Meter) tripNow(kind error, step string, limit int64, cause error) *Error {
	e := &Error{Kind: kind, Engine: m.engine, Step: step,
		Rows: m.rows.Load(), Bytes: m.bytes.Load(), Limit: limit, Cause: cause}
	if m.trip.CompareAndSwap(nil, e) {
		m.stop.Store(true)
	}
	return m.trip.Load()
}
