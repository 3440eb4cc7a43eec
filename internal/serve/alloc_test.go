package serve

import (
	"testing"

	"repro/internal/telemetry"
	"repro/internal/testfix"
)

// TestHotPathAllocs pins the steady-state allocation budget of the
// serving hot paths. AssignBatch may allocate only its two result
// slices (labels + distances); the search scratch must come from its
// sync.Pool after warm-up. Assign
// must be allocation-free when the caller supplies no gate. A
// regression here shows up long before it shows up in ns/op — GC
// pressure under open-loop load is what breaks the SLO tail.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	ds := testfix.Adult(1, 512)
	m := trainModel(t, ds, 15, 1)
	rows := ds.Features

	a, err := NewAssigner(m, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Warm the scratch pool before measuring.
	for i := 0; i < 4; i++ {
		if _, _, err := a.AssignBatch(rows, nil); err != nil {
			t.Fatal(err)
		}
	}

	batch := testing.AllocsPerRun(20, func() {
		if _, _, err := a.AssignBatch(rows, nil); err != nil {
			t.Fatal(err)
		}
	})
	// out + dists, with headroom for a pool refill on an unlucky GC.
	if batch > 3 {
		t.Errorf("AssignBatch allocs/op = %.1f, want <= 3", batch)
	}

	x := rows[0]
	single := testing.AllocsPerRun(100, func() {
		if _, _, err := a.Assign(x, nil); err != nil {
			t.Fatal(err)
		}
	})
	if single > 0.5 {
		t.Errorf("Assign allocs/op = %.1f, want 0", single)
	}

	// Tracing on: the span bookkeeping (stage histogram records, flight
	// recorder) must add nothing beyond the trace-done defer itself.
	at, err := NewAssigner(m, Options{
		TracerFor: func(model string) *telemetry.RequestTracer {
			return telemetry.NewRequestTracer(telemetry.NewRegistry(),
				"alloc_request_stage_seconds", "Alloc stages.", model, 0)
		}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := at.AssignBatch(rows, nil); err != nil {
			t.Fatal(err)
		}
	}
	traced := testing.AllocsPerRun(20, func() {
		if _, _, err := at.AssignBatch(rows, nil); err != nil {
			t.Fatal(err)
		}
	})
	if traced > batch+1 {
		t.Errorf("traced AssignBatch allocs/op = %.1f, want <= untraced %.1f + 1", traced, batch)
	}
}
