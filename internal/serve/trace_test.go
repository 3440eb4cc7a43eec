package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/testfix"
)

// tracedAssigner builds an Assigner whose batches report into a fresh
// RequestTracer, returning both.
func tracedAssigner(t *testing.T, opts Options) (*Assigner, *telemetry.RequestTracer) {
	t.Helper()
	ds := testfix.Adult(1, 256)
	m := trainModel(t, ds, 5, 1)
	reg := telemetry.NewRegistry()
	var tracer *telemetry.RequestTracer
	opts.TracerFor = func(model string) *telemetry.RequestTracer {
		tracer = telemetry.NewRequestTracer(reg, "stage_seconds", "Stages.", model, 0)
		return tracer
	}
	a, err := NewAssigner(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a, tracer
}

// TestAssignBatchTraced: an OK batch produces one trace with a
// consistent stage breakdown and feeds the per-stage histograms.
func TestAssignBatchTraced(t *testing.T) {
	a, tracer := tracedAssigner(t, Options{})
	rows := testfix.Adult(1, 256).Features
	for i := 0; i < 3; i++ {
		if _, _, err := a.AssignBatch(rows, nil); err != nil {
			t.Fatal(err)
		}
	}
	slow := tracer.Slowest()
	if len(slow) != 3 {
		t.Fatalf("recorder has %d traces, want 3", len(slow))
	}
	for _, tr := range slow {
		if tr.Outcome != telemetry.OutcomeOK || tr.Rows != len(rows) {
			t.Fatalf("trace = %+v", tr)
		}
		if tr.Total <= 0 || tr.Score <= 0 || tr.Score > tr.Total {
			t.Fatalf("stage breakdown inconsistent: %+v", tr)
		}
		// No gate configured: the request was admitted instantly and
		// never queued.
		if tr.Queue != 0 {
			t.Fatalf("queue wait without a gate: %+v", tr)
		}
		if tr.Admission+tr.Score > tr.Total {
			t.Fatalf("stages exceed total: %+v", tr)
		}
	}
	// Untraced single queries must not reach the recorder.
	if _, _, err := a.Assign(rows[0], nil); err != nil {
		t.Fatal(err)
	}
	if got := len(tracer.Slowest()); got != 3 {
		t.Fatalf("single query was traced: %d traces", got)
	}
}

// TestAssignBatchTracedOutcomes: shed and deadline requests land in
// the flight recorder with their outcome, but stay out of the OK-only
// stage histograms.
func TestAssignBatchTracedOutcomes(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	a, tracer := tracedAssigner(t, Options{
		MaxConcurrent: 1,
		MaxQueue:      1,
		ScoreHook: func(rows int) {
			select {
			case entered <- struct{}{}:
				<-release // first scorer wedges until released
			default:
			}
		},
	})
	rows := testfix.Adult(1, 256).Features

	firstDone := make(chan error, 1)
	go func() {
		_, _, err := a.AssignBatch(rows, nil)
		firstDone <- err
	}()
	<-entered // slot held

	// Queued request with an already-short deadline: expires waiting.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := a.AssignBatchCtx(ctx, rows, nil); err == nil {
		t.Fatal("queued request beat a wedged slot")
	}

	// Queue may still hold the expired waiter's slot briefly; spin until
	// the gate shows empty, then overflow it twice: occupy + shed.
	waitDone := make(chan error, 1)
	go func() {
		_, _, err := a.AssignBatchCtx(context.Background(), rows, nil)
		waitDone <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for a.Stats().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("third request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := a.AssignBatch(rows, nil); !IsShed(err) {
		t.Fatalf("over-queue request err = %v, want shed", err)
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("wedged request failed: %v", err)
	}
	if err := <-waitDone; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}

	var ok, shed, dead int
	for _, tr := range tracer.Slowest() {
		switch tr.Outcome {
		case telemetry.OutcomeOK:
			ok++
			if tr.Score <= 0 {
				t.Errorf("OK trace without score stage: %+v", tr)
			}
		case telemetry.OutcomeShed:
			shed++
			if tr.Score != 0 || tr.Admission != tr.Total {
				t.Errorf("shed trace should be all admission: %+v", tr)
			}
		case telemetry.OutcomeDeadline:
			dead++
		}
	}
	if ok != 2 || shed != 1 || dead != 1 {
		t.Fatalf("outcomes ok/shed/deadline = %d/%d/%d, want 2/1/1", ok, shed, dead)
	}
	// Stage histograms accumulate OK requests only.
	if n := tracer.Snapshot(telemetry.StageTotal).Count(); n != 2 {
		t.Fatalf("total stage histogram has %d records, want 2 (OK only)", n)
	}
	// The queued-then-admitted OK request measured a real queue wait.
	if n := tracer.Snapshot(telemetry.StageQueue).Count(); n != 2 {
		t.Fatalf("queue stage histogram has %d records, want 2", n)
	}
	if tracer.Snapshot(telemetry.StageQueue).Max() <= 0 {
		t.Fatal("no queue wait measured for the queued OK request")
	}
}
