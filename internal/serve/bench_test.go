package serve

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/testfix"
)

// syntheticModel builds a minimal valid model whose k centroids are
// evenly-strided copies of the given rows — the shape a trained model
// has (centroids inside the data's hull) without running a training
// job: the k-sweep benchmarks only exercise the scoring kernels.
func syntheticModel(tb testing.TB, rows [][]float64, k int) *model.Model {
	tb.Helper()
	m := &model.Model{
		Format:   model.Format,
		Version:  model.Version,
		Name:     fmt.Sprintf("synth-k%d", k),
		K:        k,
		Clusters: make([]model.ClusterProfile, k),
	}
	m.Centroids = make([][]float64, k)
	stride := len(rows) / k
	for c := range m.Centroids {
		m.Centroids[c] = append([]float64(nil), rows[c*stride]...)
	}
	if err := m.Validate(); err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkServe measures batch-assign throughput on an Adult-shaped
// model (k=15, min-max scaled features): one 4096-row request scored
// inline (batch=4096), the k-sweep of bare kernels, and the single
// query. `make bench` records the event stream to BENCH_serve.json;
// rows/op is fixed at 4096 so ns/op across batch variants compare
// directly (lower = faster).
func BenchmarkServe(b *testing.B) {
	ds := testfix.Adult(1, 4096)
	m := trainModel(b, ds, 15, 1)
	rows := ds.Features

	b.Run("batch=4096", func(b *testing.B) {
		a, err := NewAssigner(m, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(rows)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := a.AssignBatch(rows, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	// k-sweep: the indexed serving kernel (what every Assigner scores
	// with) against the naive model.AssignDist scan on the same rows,
	// for centroid counts spanning small to wide deployments — both as
	// bare kernel loops, so the ratio is pure kernel (request overhead
	// is batch=4096 above). It must grow with k; the naive
	// scan stays in the codebase exactly so this reference keeps
	// meaning. Models are built directly (not trained) so k=150 costs
	// no setup time.
	for _, k := range []int{5, 15, 50, 150} {
		km := syntheticModel(b, rows, k)
		b.Run(fmt.Sprintf("kernel=naive/k=%d", k), func(b *testing.B) {
			out := make([]int, len(rows))
			b.SetBytes(int64(len(rows)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r, x := range rows {
					out[r], _ = km.AssignDist(x)
				}
			}
		})
		b.Run(fmt.Sprintf("kernel=indexed/k=%d", k), func(b *testing.B) {
			ix := stats.NewCentroidIndex(km.Centroids)
			sc := ix.NewScratch()
			out := make([]int, len(rows))
			b.SetBytes(int64(len(rows)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r, x := range rows {
					out[r], _ = ix.Nearest(x, sc)
				}
			}
		})
	}

	// Single-query path: the per-request floor the batch variants
	// amortize.
	b.Run("single", func(b *testing.B) {
		a, err := NewAssigner(m, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := a.Assign(rows[i%len(rows)], nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeTelemetry pins the cost of span tracing on the batch
// path: the same batch=4096 workload with and without a live
// RequestTracer (registry-backed stage histograms plus the flight
// recorder). The `BenchmarkServe` prefix gets the pair recorded into
// BENCH_serve.json by `make bench`, and bench-check's dedicated
// -rename comparison holds telemetry=on within the ±5% bar of
// telemetry=off (see Makefile).
func BenchmarkServeTelemetry(b *testing.B) {
	ds := testfix.Adult(1, 4096)
	m := trainModel(b, ds, 15, 1)
	rows := ds.Features

	variants := []struct {
		name string
		opts Options
	}{
		{"telemetry=off", Options{}},
		{"telemetry=on", Options{
			TracerFor: func(model string) *telemetry.RequestTracer {
				return telemetry.NewRequestTracer(telemetry.NewRegistry(),
					"bench_request_stage_seconds", "Bench stages.", model, 0)
			}}},
	}
	for _, v := range variants {
		b.Run(v.name+"/batch=4096", func(b *testing.B) {
			a, err := NewAssigner(m, v.opts)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(rows)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := a.AssignBatch(rows, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
