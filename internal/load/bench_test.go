package load

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/serve"
)

// BenchmarkLoad records the rows/s-at-SLO trajectory: each sub-bench
// offers a fixed open-loop rate at an in-process registry and reports
// accepted goodput, accepted-request p99, and the shed fraction. Run
// with -benchtime 1x — one iteration IS the experiment; iterating
// would just repeat the same deterministic workload.
func BenchmarkLoad(b *testing.B) {
	const slo = 20 * time.Millisecond
	for _, rate := range []float64{500, 2000, 8000} {
		b.Run(fmt.Sprintf("rate=%v", rate), func(b *testing.B) {
			reg := newRegistry(b, serve.Options{
				MaxConcurrent: 4,
				MaxQueue:      32,
				QueueBudget:   slo / 2,
			}, 4)
			w, err := Build(Config{
				Rate:     rate,
				Requests: int(rate / 2), // ~500ms of traffic per operating point
				Seed:     42,
				Dim:      4,
				MaxBatch: 8,
				Models:   []string{"prod"},
				Timeout:  200 * time.Millisecond,
				SLO:      slo,
			})
			if err != nil {
				b.Fatal(err)
			}
			tgt := &RegistryTarget{Registry: reg}
			b.ResetTimer()
			var rep *Report
			for i := 0; i < b.N; i++ {
				rep = Run(context.Background(), w, tgt)
			}
			b.StopTimer()
			if rep.Sent != len(w.Requests) {
				b.Fatalf("sent %d/%d", rep.Sent, len(w.Requests))
			}
			b.ReportMetric(rep.AcceptedRowsPerSec, "rows/s")
			b.ReportMetric(float64(rep.Latency.P99)/float64(time.Millisecond), "p99-ms")
			b.ReportMetric(float64(rep.Shed)/float64(rep.Sent), "shed-frac")
			met := 0.0
			if rep.SLO != nil && rep.SLO.Met {
				met = 1
			}
			b.ReportMetric(met, "slo-met")
		})
	}
}
