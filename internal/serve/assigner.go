// Package serve is the fair-assignment serving subsystem: it loads
// model artifacts (internal/model) and answers nearest-centroid
// assignment queries under concurrent traffic.
//
// The package has three pieces:
//
//   - Assigner: answers single and batch queries for one immutable
//     model, scoring each request on the caller's goroutine, and
//     accumulates per-model serving statistics (request/row counters,
//     latency quantiles, fairness drift, shed/deadline counts).
//   - Registry: a named set of Assigners with atomic hot-swap — a
//     reload under traffic lets in-flight requests finish on the model
//     they started with while new requests see the new one.
//   - Stats/DriftReport: snapshots for the /metrics and /v1/models
//     endpoints of cmd/fairserved.
//
// # Determinism
//
// Assignment is nearest-centroid per row (the only deployment rule the
// FairKM objective admits for unseen points — see core.Result.Predict),
// so rows are independent: a batch labels rows[i] into result slot i
// with the same kernel single queries use, and the result is identical
// to a sequential scan. This contract is pinned by
// TestAssignerDeterministic (batch sizes straddling the scoring
// stride, under -race).
//
// # Parallelism
//
// Requests are the unit of parallelism: net/http serves each on its
// own goroutine, and the admission gate caps how many score at once.
// A request is never split across a second pool: under concurrent
// traffic the requests alone keep the cores busy, and splitting one
// only adds dispatch cost. A lone request on an idle machine therefore
// scores on one core.
//
// # Overload
//
// With Options.MaxConcurrent set, each Assigner runs behind an
// admission gate: at most MaxConcurrent requests score at once, at most
// MaxQueue wait for a slot, and (with QueueBudget) arrivals whose
// estimated queue wait already exceeds the budget are rejected with a
// ShedError instead of queueing — shed, don't collapse. Request
// contexts propagate through AssignCtx/AssignBatchCtx: a deadline that
// expires while queued, or mid-batch at the next stride boundary,
// aborts the request (wrapping context.DeadlineExceeded) rather than
// scoring rows nobody is waiting for. Limits are per model: every
// Assigner a Registry constructs gets its own independent gate.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// stride is how many rows a batch scores between context checks: a
// deadline takes effect after at most this many rows of pure compute.
const stride = 64

// Options parameterizes an Assigner.
type Options struct {
	// TracerFor, when non-nil, is called once per Assigner construction
	// with the model's name and returns the span tracer batch requests
	// report into (nil disables tracing for that model). It is a
	// factory rather than a tracer because a Registry shares one
	// Options across every model it installs — including re-installs on
	// hot reload, which should keep feeding the model's existing
	// tracer.
	TracerFor func(model string) *telemetry.RequestTracer

	// MaxConcurrent caps how many requests may score on this model at
	// once; <= 0 disables admission control entirely (no queue bound,
	// no shedding — the pre-overload-control behavior).
	MaxConcurrent int
	// MaxQueue bounds how many requests may wait for a slot when
	// MaxConcurrent is set; <= 0 means DefaultMaxQueue. Arrivals beyond
	// the bound are rejected with a ShedError.
	MaxQueue int
	// QueueBudget, when positive, sheds arrivals whose estimated queue
	// wait (queued requests × smoothed service time / slots) already
	// exceeds it: the request would blow its latency budget anyway, so
	// reject it now and keep the queue short.
	QueueBudget time.Duration

	// ScoreHook, when non-nil, runs once per scored stride of a batch
	// (at most 64 rows) before any distances are computed. It exists
	// ONLY for fault-injection tests — simulating slow or stalled
	// scoring — and must be nil in production.
	ScoreHook func(rows int)
}

// Assigner serves one immutable model. All methods are safe for
// concurrent use; the model is never mutated after construction.
type Assigner struct {
	m    *model.Model
	hook func(rows int) // Options.ScoreHook

	// ix is the sorted-neighbor centroid index — norms and neighbor
	// lists computed once per model install, never per batch — so all
	// scoring goes through the pruned fused kernel
	// (stats.CentroidIndex.Nearest): d² = ‖x‖² − 2·x·c + ‖c‖², with
	// triangle-inequality early termination over neighbors of the
	// running best. scratch pools the per-query visited marks so the
	// steady-state hot path allocates nothing.
	ix      *stats.CentroidIndex
	scratch sync.Pool

	gate *gate // nil when admission control is off

	stats *tracker
	// tracer, when non-nil, receives one span Trace per batch request
	// (every outcome). Single-query AssignCtx stays untraced: its whole
	// budget is a few hundred nanoseconds and the trace would cost more
	// than the work it measures.
	tracer *telemetry.RequestTracer
}

// NewAssigner validates the model and builds its centroid index.
func NewAssigner(m *model.Model, opts Options) (*Assigner, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	a := &Assigner{
		m:     m,
		hook:  opts.ScoreHook,
		ix:    stats.NewCentroidIndex(m.Centroids),
		gate:  newGate(opts),
		stats: newTracker(m),
	}
	if opts.TracerFor != nil {
		a.tracer = opts.TracerFor(m.Name)
	}
	a.scratch.New = func() any { return a.ix.NewScratch() }
	return a, nil
}

// Model returns the immutable model being served.
func (a *Assigner) Model() *model.Model { return a.m }

// score labels rows into the caller's slots via the pruned fused
// kernel — the exact kernel single queries use, so batch and single
// results are identical bit for bit.
//
//fairvet:hotpath
func (a *Assigner) score(rows [][]float64, out []int, dists []float64) {
	if a.hook != nil {
		a.hook(len(rows))
	}
	sc := a.scratch.Get().(*stats.CentroidScratch)
	for i, x := range rows {
		out[i], dists[i] = a.ix.Nearest(x, sc)
	}
	a.scratch.Put(sc)
}

// admitErr classifies a gate rejection for the caller: shed errors pass
// through (IsShed), context errors are counted and wrapped so
// errors.Is(err, context.DeadlineExceeded) still works.
func (a *Assigner) admitErr(err error) error {
	if IsShed(err) {
		a.stats.shed.Add(1)
		return err
	}
	return a.ctxErr(err, "while queued")
}

// traceDone assembles and records one batch request's span trace:
// admission = entry to slot acquisition (the whole request when the
// gate denied it), queue = the measured blocking wait inside the gate,
// score = everything after admission, total = entry to return. Runs
// deferred, after the stats/gate bookkeeping of the path taken.
func (a *Assigner) traceDone(err error, denied bool, rows int, start, admitted time.Time, queueWait time.Duration) {
	end := time.Now()
	tr := telemetry.Trace{Rows: rows, Queue: queueWait, Total: end.Sub(start)}
	switch {
	case err == nil:
		tr.Outcome = telemetry.OutcomeOK
	case IsShed(err):
		tr.Outcome = telemetry.OutcomeShed
	default:
		tr.Outcome = telemetry.OutcomeDeadline
	}
	if denied {
		tr.Admission = tr.Total
	} else {
		tr.Admission = admitted.Sub(start)
		tr.Score = end.Sub(admitted)
	}
	a.tracer.Observe(tr)
}

// ctxErr wraps a context expiry into the request error, counting it.
func (a *Assigner) ctxErr(err error, when string) error {
	a.stats.deadline.Add(1)
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("serve: model %q: deadline exceeded %s: %w", a.m.Name, when, err)
	}
	return fmt.Errorf("serve: model %q: request canceled %s: %w", a.m.Name, when, err)
}

// Assign labels one feature vector (already in the model's trained
// space if the artifact carries Scaling — see AssignRaw). The
// sensitive values, when non-nil, feed the drift tracker; they are keyed
// by attribute name and never influence the assignment itself.
func (a *Assigner) Assign(x []float64, sensitive map[string]string) (cluster int, dist float64, err error) {
	return a.AssignCtx(context.Background(), x, sensitive)
}

// AssignCtx is Assign under a request context: it passes the admission
// gate (when configured) and honors the context's deadline while
// queued. Shed requests return a ShedError; expired ones wrap ctx.Err().
func (a *Assigner) AssignCtx(ctx context.Context, x []float64, sensitive map[string]string) (cluster int, dist float64, err error) {
	if len(x) != a.m.Dim() {
		return 0, 0, fmt.Errorf("serve: query has %d features, model %q expects %d", len(x), a.m.Name, a.m.Dim())
	}
	start := time.Now()
	if a.gate != nil {
		if _, err := a.gate.acquire(ctx); err != nil {
			return 0, 0, a.admitErr(err)
		}
		admitted := time.Now()
		defer func() { a.gate.release(time.Since(admitted)) }()
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, a.ctxErr(err, "before scoring")
	}
	sc := a.scratch.Get().(*stats.CentroidScratch)
	cluster, dist = a.ix.Nearest(x, sc)
	a.scratch.Put(sc)
	a.stats.record(1, time.Since(start))
	if sensitive != nil {
		a.stats.observe(cluster, sensitive)
	}
	return cluster, dist, nil
}

// AssignBatch labels rows[i] into result slot i. sensitive, when
// non-nil, must have one entry per row (nil entries allowed) and feeds
// the drift tracker. Results are deterministic and identical to a
// sequential scan.
func (a *Assigner) AssignBatch(rows [][]float64, sensitive []map[string]string) ([]int, []float64, error) {
	return a.AssignBatchCtx(context.Background(), rows, sensitive)
}

// AssignBatchCtx is AssignBatch under a request context, scored on the
// caller's goroutine. The context is checked while waiting for
// admission, before scoring, at every stride boundary and after the
// last stride: an expired request returns an error wrapping
// context.DeadlineExceeded and no partial results.
func (a *Assigner) AssignBatchCtx(ctx context.Context, rows [][]float64, sensitive []map[string]string) (_ []int, _ []float64, retErr error) {
	dim := a.m.Dim()
	for i, x := range rows {
		if len(x) != dim {
			return nil, nil, fmt.Errorf("serve: row %d has %d features, model %q expects %d", i, len(x), a.m.Name, dim)
		}
	}
	if sensitive != nil && len(sensitive) != len(rows) {
		return nil, nil, fmt.Errorf("serve: %d sensitive records for %d rows", len(sensitive), len(rows))
	}
	start := time.Now()
	// Span trace bookkeeping: admitted and queueWait are filled in by
	// the gate branch; denied marks an admission rejection (the whole
	// request was the admission stage). Malformed requests returned
	// above are not traced — they never entered the pipeline.
	admitted := start
	var queueWait time.Duration
	denied := false
	if a.tracer != nil {
		defer func() { a.traceDone(retErr, denied, len(rows), start, admitted, queueWait) }()
	}
	if a.gate != nil {
		qw, err := a.gate.acquire(ctx)
		if err != nil {
			denied = true
			queueWait = qw
			return nil, nil, a.admitErr(err)
		}
		queueWait = qw
		admitted = time.Now()
		defer func() { a.gate.release(time.Since(admitted)) }()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, a.ctxErr(err, "before scoring")
	}
	out := make([]int, len(rows))
	dists := make([]float64, len(rows))
	for lo := 0; lo < len(rows); lo += stride {
		if lo > 0 && ctx.Err() != nil {
			return nil, nil, a.ctxErr(ctx.Err(), "mid-batch")
		}
		hi := min(lo+stride, len(rows))
		a.score(rows[lo:hi], out[lo:hi], dists[lo:hi])
	}
	if err := ctx.Err(); err != nil {
		// The deadline passed while scoring the last stride: the caller
		// already gave up, so this is a late failure, not a success
		// whose latency belongs in the accepted stats.
		return nil, nil, a.ctxErr(err, "mid-batch")
	}

	a.stats.record(len(rows), time.Since(start))
	for i, sv := range sensitive {
		if sv != nil {
			a.stats.observe(out[i], sv)
		}
	}
	return out, dists, nil
}

// AssignRaw is Assign for a vector in raw input space: the artifact's
// Scaling (if any) is applied to a copy first.
func (a *Assigner) AssignRaw(x []float64, sensitive map[string]string) (int, float64, error) {
	if a.m.Scaling != nil && len(x) == a.m.Dim() {
		scaled := append([]float64(nil), x...)
		a.m.Scaling.Apply(scaled)
		x = scaled
	}
	return a.Assign(x, sensitive)
}

// Stats snapshots the serving counters, including the admission gauges
// when a gate is configured.
func (a *Assigner) Stats() Stats {
	s := a.stats.snapshot()
	if a.gate != nil {
		s.Inflight, s.Queued = a.gate.depth()
	}
	return s
}

// Latency snapshots the full accepted-request latency distribution —
// the histogram behind the Stats quantiles, for Prometheus bucket
// exposition.
func (a *Assigner) Latency() *telemetry.Histogram { return a.stats.latency() }

// Drift reports observed-vs-training fairness per categorical
// attribute.
func (a *Assigner) Drift() []DriftReport { return a.stats.drift() }
