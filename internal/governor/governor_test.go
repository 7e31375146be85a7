package governor

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNewReturnsNilWhenNothingToGovern(t *testing.T) {
	if m := New(nil, "generic", 0, 0); m != nil {
		t.Fatalf("New with nothing to govern: got %v, want nil", m)
	}
	if m := New(context.Background(), "generic", 0, 0); m != nil {
		t.Fatalf("New with non-cancelable ctx: got %v, want nil", m)
	}
}

func TestNilMeterMethodsAreSafe(t *testing.T) {
	var m *Meter
	if err := m.Check("x"); err != nil {
		t.Fatalf("nil Check: %v", err)
	}
	if err := m.Charge(10, 10, "x"); err != nil {
		t.Fatalf("nil Charge: %v", err)
	}
	m.Release(1, 1)
	if m.Err() != nil || m.Tripped() || m.Rows() != 0 || m.Bytes() != 0 {
		t.Fatal("nil meter reported state")
	}
}

func TestRowLimitTrip(t *testing.T) {
	m := New(nil, "generic", 5, 0)
	if err := m.Charge(5, 40, "emit"); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := m.Charge(1, 8, "emit")
	if !errors.Is(err, ErrRowLimit) {
		t.Fatalf("got %v, want ErrRowLimit", err)
	}
	var ge *Error
	if !errors.As(err, &ge) {
		t.Fatalf("not a *Error: %v", err)
	}
	if ge.Engine != "generic" || ge.Step != "emit" || ge.Limit != 5 || ge.Rows != 6 {
		t.Fatalf("trip detail: %+v", ge)
	}
	// Sticky: later checkpoints return the same trip.
	if err2 := m.Check("finish"); !errors.Is(err2, ErrRowLimit) {
		t.Fatalf("trip not sticky: %v", err2)
	}
	if flag, _ := Stop(nil, m); !flag.Load() {
		t.Fatal("trip did not flip the stop flag")
	}
}

// TestBatchEmit pins the shared emission batching: a nil meter charges
// nothing, a meter sees one "emit" charge per emitBatch rows plus the
// flushed remainder, and a trip stops the wrapped callback.
func TestBatchEmit(t *testing.T) {
	n := 0
	inner := func() bool { n++; return true }
	emit, flush := BatchEmit(nil, 3, inner)
	for i := 0; i < 2*emitBatch; i++ {
		if !emit() {
			t.Fatal("nil-meter emit stopped")
		}
	}
	flush()
	if n != 2*emitBatch {
		t.Fatalf("inner called %d times, want %d", n, 2*emitBatch)
	}

	m := New(nil, "generic", emitBatch+10, 0)
	emit, flush = BatchEmit(m, 3, inner)
	for i := 0; i < emitBatch; i++ {
		if !emit() {
			t.Fatalf("emit %d stopped within budget", i)
		}
	}
	if m.Rows() != emitBatch || m.Bytes() != RelBytes(emitBatch, 3) {
		t.Fatalf("after one batch: rows %d bytes %d", m.Rows(), m.Bytes())
	}
	for i := 0; i < 5; i++ {
		emit()
	}
	flush()
	flush() // an empty flush charges nothing
	if m.Rows() != emitBatch+5 {
		t.Fatalf("after flush: rows %d, want %d", m.Rows(), emitBatch+5)
	}
	stopped := false
	for i := 0; i < emitBatch && !stopped; i++ {
		stopped = !emit()
	}
	if !stopped || !errors.Is(m.Err(), ErrRowLimit) {
		t.Fatalf("over budget: stopped=%v err=%v", stopped, m.Err())
	}
	var ge *Error
	if !errors.As(m.Err(), &ge) || ge.Step != "emit" {
		t.Fatalf("trip step: %v", m.Err())
	}
}

func TestMemoryLimitTrip(t *testing.T) {
	m := New(nil, "yannakakis", 0, 100)
	if err := m.Charge(2, 96, "join-project"); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if err := m.Charge(1, 8, "join-project"); !errors.Is(err, ErrMemoryLimit) {
		t.Fatalf("got %v, want ErrMemoryLimit", err)
	}
}

func TestReleaseRefunds(t *testing.T) {
	m := New(nil, "decomp", 100, 0)
	m.Charge(60, 480, "bag")
	m.Release(60, 480)
	if m.Rows() != 0 || m.Bytes() != 0 {
		t.Fatalf("after release: rows=%d bytes=%d", m.Rows(), m.Bytes())
	}
	if err := m.Charge(90, 720, "emit"); err != nil {
		t.Fatalf("budget not restored: %v", err)
	}
}

func TestContextClassification(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := New(ctx, "generic", 0, 0)
	if m == nil {
		t.Fatal("cancelable ctx should produce a meter")
	}
	cancel()
	err := m.Check("start")
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrCanceled wrapping context.Canceled", err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	dm := New(dctx, "generic", 0, 0)
	derr := dm.Check("start")
	if !errors.Is(derr, ErrTimeout) || !errors.Is(derr, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrTimeout wrapping DeadlineExceeded", derr)
	}
}

func TestHookForcedTrip(t *testing.T) {
	boom := errors.New("injected")
	var calls int
	SetTestHook(func(n int64, engine, step string) error {
		calls++
		if n == 3 {
			return boom
		}
		return nil
	})
	defer SetTestHook(nil)
	m := New(nil, "comparisons", 0, 0)
	if m == nil {
		t.Fatal("hook alone should produce a meter")
	}
	if err := m.Check("a"); err != nil {
		t.Fatalf("checkpoint 1: %v", err)
	}
	if err := m.Charge(1, 8, "b"); err != nil {
		t.Fatalf("checkpoint 2: %v", err)
	}
	err := m.Check("c")
	if !errors.Is(err, boom) {
		t.Fatalf("checkpoint 3: got %v, want injected", err)
	}
	if calls != 3 {
		t.Fatalf("hook called %d times, want 3", calls)
	}
}

func TestFirstTripWinsUnderConcurrency(t *testing.T) {
	m := New(nil, "generic", 1, 0)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = m.Charge(2, 16, "emit")
		}(i)
	}
	wg.Wait()
	first := m.Err()
	if first == nil {
		t.Fatal("no trip recorded")
	}
	for i, err := range errs {
		if err == nil {
			continue
		}
		if err != first { //nolint:errorlint // identity check is the point
			t.Fatalf("worker %d saw a different trip: %v vs %v", i, err, first)
		}
	}
}

func TestRelBytes(t *testing.T) {
	if got := RelBytes(10, 3); got != 240 {
		t.Fatalf("RelBytes(10,3) = %d, want 240", got)
	}
	if got := RelBytes(0, 5); got != 0 {
		t.Fatalf("RelBytes(0,5) = %d, want 0", got)
	}
}
