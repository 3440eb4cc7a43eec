package main

import (
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Metric family names and help texts. The serving families keep their
// pre-registry names so existing dashboards keep working; the latency
// family changed TYPE from summary to histogram (full-fidelity le
// buckets instead of two pre-computed quantiles).
const (
	stageFamily = "fairserved_request_stage_seconds"
	stageHelp   = "Per-stage request latency (admission wait, queue residency, scoring, total), OK requests only."

	latencyFamily = "fairserved_request_latency_seconds"
	latencyHelp   = "Accepted-request latency since model install."
)

// telemetryState owns the process's metric registry and the per-model
// request tracers behind GET /debug/traces.
type telemetryState struct {
	reg *telemetry.Registry

	mu      sync.Mutex
	tracers map[string]*telemetry.RequestTracer
}

func newTelemetryState() *telemetryState {
	return &telemetryState{
		reg:     telemetry.NewRegistry(),
		tracers: map[string]*telemetry.RequestTracer{},
	}
}

// tracerFor hands serve.Options.TracerFor the tracer for a model name,
// creating it on first use. Hot reloads re-construct the Assigner but
// keep the model name, so they keep feeding the same tracer — stage
// histograms and the flight recorder span generations.
func (ts *telemetryState) tracerFor(model string) *telemetry.RequestTracer {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tr := ts.tracers[model]
	if tr == nil {
		tr = telemetry.NewRequestTracer(ts.reg, stageFamily, stageHelp, model, 0)
		ts.tracers[model] = tr
	}
	return tr
}

// slowest merges every model's flight recorder, slowest first.
func (ts *telemetryState) slowest() []telemetry.Trace {
	ts.mu.Lock()
	tracers := make([]*telemetry.RequestTracer, 0, len(ts.tracers))
	for _, tr := range ts.tracers {
		tracers = append(tracers, tr)
	}
	ts.mu.Unlock()
	var out []telemetry.Trace
	for _, tr := range tracers {
		out = append(out, tr.Slowest()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		if out[i].Model != out[j].Model {
			return out[i].Model < out[j].Model
		}
		return out[i].Seq > out[j].Seq
	})
	return out
}

// watch wires the serving registry into /metrics: an OnScrape hook
// snapshots every model's Stats, latency histogram and drift reports
// exactly once per scrape — Drift() takes the tracker lock the
// assignment path's observe() also takes, so it must not be recomputed
// per metric family — and (re-)registers pull-style instruments over
// the snapshots. Recording itself (counters bumped per request, the
// latency histogram) shares no lock with any of this; see
// serve.Stats.
func (ts *telemetryState) watch(sreg *serve.Registry) {
	r := ts.reg
	r.OnScrape(func() {
		for _, e := range sreg.List() {
			a := e.Assigner()
			st := a.Stats()
			lat := a.Latency()
			gen := float64(e.Generation)
			ml := telemetry.Label{Key: "model", Value: e.Name}
			r.CounterFunc("fairserved_requests_total",
				"Assignment requests served per model.",
				func() uint64 { return st.Requests }, ml)
			r.CounterFunc("fairserved_rows_total",
				"Feature vectors labelled per model.",
				func() uint64 { return st.Rows }, ml)
			r.CounterFunc("fairserved_shed_total",
				"Requests rejected by admission control per model.",
				func() uint64 { return st.Shed }, ml)
			r.CounterFunc("fairserved_deadline_total",
				"Requests failed by their deadline per model.",
				func() uint64 { return st.Deadline }, ml)
			r.GaugeFunc("fairserved_inflight",
				"Admitted requests currently scoring per model.",
				func() float64 { return float64(st.Inflight) }, ml)
			r.GaugeFunc("fairserved_queue_depth",
				"Requests waiting for an admission slot per model.",
				func() float64 { return float64(st.Queued) }, ml)
			r.HistogramFunc(latencyFamily, latencyHelp,
				func() *telemetry.Histogram { return lat }, ml)
			r.GaugeFunc("fairserved_model_generation",
				"Hot-swap generation per model name.",
				func() float64 { return gen }, ml)
			for _, d := range a.Drift() {
				d := d
				al := telemetry.Label{Key: "attribute", Value: d.Attribute}
				r.GaugeFunc("fairserved_drift_max_tv",
					"Max total-variation distance between observed and training cluster mixes.",
					func() float64 { return d.MaxTV }, ml, al)
				r.CounterFunc("fairserved_drift_observed_rows",
					"Rows with sensitive values observed per attribute.",
					func() uint64 { return d.ObservedRows }, ml, al)
			}
		}
	})
}

// newDebugMux builds the opt-in pprof mux served on -debug-addr. It is
// deliberately a separate mux on a separate listener: profiling
// endpoints never ride on the serving address, so exposing :8080 to
// clients can't expose heap dumps.
func newDebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
