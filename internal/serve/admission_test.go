package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testfix"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// stallGate is a ScoreHook that blocks every scoring task until
// released — the canonical stalled-scoring fault.
type stallGate struct {
	entered chan struct{} // one token per task that reached the hook
	release chan struct{} // closed to un-stall everything
}

func newStallGate() *stallGate {
	return &stallGate{entered: make(chan struct{}, 128), release: make(chan struct{})}
}

func (s *stallGate) hook(rows int) {
	s.entered <- struct{}{}
	<-s.release
}

// TestAdmissionQueueFullSheds pins the bounded-queue contract: with one
// slot and a one-deep queue, the third concurrent request is rejected
// with a ShedError while the first two eventually complete.
func TestAdmissionQueueFullSheds(t *testing.T) {
	ds := testfix.Synth(3, 60, 3, 1, 0)
	m := trainModel(t, ds, 3, 1)
	stall := newStallGate()
	a, err := NewAssigner(m, Options{
		MaxConcurrent: 1,
		MaxQueue:      1,
		ScoreHook:     stall.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := sequential(m, ds.Features[:4])

	type result struct {
		out []int
		err error
	}
	results := make(chan result, 2)
	run := func() {
		out, _, err := a.AssignBatch(ds.Features[:4], nil)
		results <- result{out, err}
	}

	go run()
	<-stall.entered // request 1 holds the slot, stalled in scoring
	go run()
	waitFor(t, "request 2 to queue", func() bool { return a.Stats().Queued == 1 })

	// Request 3 arrives with the slot held and the queue full: shed.
	_, _, err = a.AssignBatch(ds.Features[:4], nil)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("third request got %v, want ShedError", err)
	}
	if !IsShed(err) {
		t.Error("IsShed does not recognize the ShedError")
	}
	if shed.RetryAfter <= 0 {
		t.Errorf("ShedError.RetryAfter = %v, want > 0", shed.RetryAfter)
	}

	close(stall.release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("admitted request failed: %v", r.err)
		}
		if !reflect.DeepEqual(r.out, want) {
			t.Error("admitted request labelled differently from sequential scan")
		}
	}
	st := a.Stats()
	if st.Shed != 1 || st.Requests != 2 {
		t.Errorf("stats = %+v, want Shed 1 / Requests 2", st)
	}
	if st.Inflight != 0 || st.Queued != 0 {
		t.Errorf("gauges not drained: %+v", st)
	}
}

// TestAdmissionDeadlineWhileQueued: a queued request whose context
// expires is rejected with an error wrapping context.DeadlineExceeded
// and counted in Stats.Deadline, and the stalled slot-holder still
// completes once the fault clears.
func TestAdmissionDeadlineWhileQueued(t *testing.T) {
	ds := testfix.Synth(5, 60, 3, 1, 0)
	m := trainModel(t, ds, 3, 2)
	stall := newStallGate()
	a, err := NewAssigner(m, Options{
		MaxConcurrent: 1,
		MaxQueue:      8,
		ScoreHook:     stall.hook,
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := a.AssignBatch(ds.Features[:4], nil)
		done <- err
	}()
	<-stall.entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err = a.AssignBatchCtx(ctx, ds.Features[:4], nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued request got %v, want DeadlineExceeded", err)
	}
	if IsShed(err) {
		t.Error("deadline expiry misclassified as shed")
	}

	// Single-query path honors the deadline the same way.
	if _, _, err := a.AssignCtx(ctx, ds.Features[0], nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("AssignCtx after expiry got %v, want DeadlineExceeded", err)
	}

	close(stall.release)
	if err := <-done; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}
	st := a.Stats()
	if st.Deadline != 2 {
		t.Errorf("Deadline = %d, want 2", st.Deadline)
	}
}

// TestAdmissionBudgetSheds: once the wait estimator has learned the
// service time, an arrival whose estimated queue wait exceeds
// QueueBudget is shed immediately instead of queueing.
func TestAdmissionBudgetSheds(t *testing.T) {
	ds := testfix.Synth(7, 60, 3, 1, 0)
	m := trainModel(t, ds, 3, 3)
	stall := newStallGate()
	var hook func(int)
	slow := false
	hook = func(rows int) {
		if slow {
			stall.hook(rows)
			return
		}
		time.Sleep(30 * time.Millisecond) // seed the EWMA well above budget
	}
	a, err := NewAssigner(m, Options{
		MaxConcurrent: 1,
		MaxQueue:      64,
		QueueBudget:   5 * time.Millisecond,
		ScoreHook:     func(rows int) { hook(rows) },
	})
	if err != nil {
		t.Fatal(err)
	}

	// First request completes in ~30ms, seeding the service-time EWMA.
	if _, _, err := a.AssignBatch(ds.Features[:4], nil); err != nil {
		t.Fatal(err)
	}

	// Now stall the slot and queue one arrival behind it: its estimated
	// wait (1 × ~30ms / 1 slot) blows the 5ms budget → shed.
	slow = true
	holder := make(chan error, 1)
	go func() {
		_, _, err := a.AssignBatch(ds.Features[:4], nil)
		holder <- err
	}()
	<-stall.entered

	_, _, err = a.AssignBatch(ds.Features[:4], nil)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("over-budget arrival got %v, want ShedError", err)
	}
	if shed.RetryAfter < 5*time.Millisecond {
		t.Errorf("RetryAfter = %v, want >= the estimated wait", shed.RetryAfter)
	}

	close(stall.release)
	if err := <-holder; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}
}

// TestDeadlineMidBatch: a batch whose deadline passes while a stride
// is scoring stops at the next stride boundary. The first stride's
// hook sleeps past the deadline; the request must fail with
// DeadlineExceeded and no partial results, and no stride after the
// boundary may be scored.
func TestDeadlineMidBatch(t *testing.T) {
	ds := testfix.Synth(9, 300, 4, 1, 0)
	m := trainModel(t, ds, 4, 4)
	var strides atomic.Int64
	a, err := NewAssigner(m, Options{
		ScoreHook: func(rows int) {
			if strides.Add(1) == 1 {
				time.Sleep(150 * time.Millisecond)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	out, dists, err := a.AssignBatchCtx(ctx, ds.Features, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled batch got %v, want DeadlineExceeded", err)
	}
	if out != nil || dists != nil {
		t.Errorf("expired batch returned results (%d labels, %d distances)", len(out), len(dists))
	}
	if st := a.Stats(); st.Deadline != 1 || st.Requests != 0 {
		t.Errorf("stats = %+v, want Deadline 1 / Requests 0", st)
	}
	if n := strides.Load(); n != 1 {
		t.Errorf("%d strides scored, want 1: the deadline must stop the batch at the first boundary", n)
	}
}

// TestGatedDeterminism: admission control must never change what a row
// scores against — gated results are identical to the ungated
// sequential scan for every batch size, under concurrent clients.
func TestGatedDeterminism(t *testing.T) {
	ds := testfix.Synth(11, 400, 5, 2, 0)
	m := trainModel(t, ds, 5, 5)
	a, err := NewAssigner(m, Options{
		MaxConcurrent: 2,
		MaxQueue:      4,
		QueueBudget:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range batchSizes {
		rows := queryRows(ds, n)
		want := sequential(m, rows)
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, _, err := a.AssignBatchCtx(context.Background(), rows, nil)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("n=%d: gated labelling differs from sequential scan", n)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			// Background contexts never expire and MaxQueue 4 < 8
			// clients can shed under load; sheds are acceptable here,
			// wrong labels are not.
			if !IsShed(err) {
				t.Error(err)
			}
		}
	}
}
