package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Request outcomes, as recorded in Trace.Outcome.
const (
	// OutcomeOK: the request was scored and answered.
	OutcomeOK = "ok"
	// OutcomeShed: admission control rejected the request.
	OutcomeShed = "shed"
	// OutcomeDeadline: the request's context expired (queued or
	// mid-batch) before completion.
	OutcomeDeadline = "deadline"
)

// Stage names of the serve pipeline, as exposed in the per-stage
// histogram's `stage` label. See DESIGN.md "Telemetry" for the exact
// boundaries.
const (
	// StageAdmission is the whole admission-gate crossing: request
	// entry to slot acquisition (zero when no gate is configured).
	StageAdmission = "admission"
	// StageQueue is the measured blocking wait inside the gate's queue
	// (a sub-interval of admission; zero when the fast path admitted).
	StageQueue = "queue"
	// StageScore is everything after admission: scoring the rows plus
	// the deadline checks between strides.
	StageScore = "score"
	// StageTotal is the full request, entry to reply.
	StageTotal = "total"
)

// Trace is one request's span breakdown through the serve pipeline.
// Durations marshal as nanoseconds (the repository-wide _ns
// convention).
type Trace struct {
	// Seq orders traces within one tracer (1-based).
	Seq uint64 `json:"seq"`
	// Model is the served model's name.
	Model string `json:"model"`
	// Rows is the request's batch size.
	Rows int `json:"rows"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// Admission, Queue, Score and Total are the stage durations (see
	// the Stage* constants). Denied requests have zero Score.
	Admission time.Duration `json:"admission_ns"`
	Queue     time.Duration `json:"queue_ns"`
	Score     time.Duration `json:"score_ns"`
	Total     time.Duration `json:"total_ns"`
}

// DefaultTraceKeep is the flight-recorder capacity when
// NewRequestTracer is given keep <= 0.
const DefaultTraceKeep = 32

// traceWindowPerKeep scales the flight recorder's rotation window:
// with keep slots the recorder retains the slowest traces of the
// current and previous keep*traceWindowPerKeep observations, so
// "recent" tracks traffic volume rather than wall-clock.
const traceWindowPerKeep = 128

// RequestTracer records per-request span traces for one model: every
// observed OK request feeds four per-stage histograms registered as
// `family{model=...,stage=...}`, and every request (any outcome) is
// offered to a bounded flight recorder that retains the slowest recent
// traces for GET /debug/traces.
//
// Observe is designed for the serve hot path: histogram records are
// wait-free, and the flight recorder's steady-state fast path is one
// atomic add plus one atomic load (a request faster than the current
// slowest-set floor never takes the recorder lock).
type RequestTracer struct {
	model string

	admission HistogramMetric
	queue     HistogramMetric
	score     HistogramMetric
	total     HistogramMetric

	seq atomic.Uint64
	rec flightRecorder
}

// NewRequestTracer registers the per-stage histograms for model in reg
// under the family name (help is the family help text; the family is
// shared across models) and returns the tracer. keep bounds the flight
// recorder (<= 0 means DefaultTraceKeep).
func NewRequestTracer(reg *Registry, familyName, help, model string, keep int) *RequestTracer {
	t := &RequestTracer{model: model}
	mk := func(stage string) HistogramMetric {
		return reg.Histogram(familyName, help,
			Label{Key: "model", Value: model}, Label{Key: "stage", Value: stage})
	}
	t.admission = mk(StageAdmission)
	t.queue = mk(StageQueue)
	t.score = mk(StageScore)
	t.total = mk(StageTotal)
	t.rec.init(keep)
	return t
}

// Model returns the traced model's name.
func (t *RequestTracer) Model() string { return t.model }

// Observe records one request trace. The tracer stamps Model and Seq;
// everything else is the caller's measurement. Stage histograms only
// accumulate OK requests (the anatomy of served traffic — denied
// requests are already counted by the shed/deadline counters and
// would flood the stage distributions with zeros); the flight recorder
// sees every outcome.
func (t *RequestTracer) Observe(tr Trace) {
	tr.Model = t.model
	tr.Seq = t.seq.Add(1)
	if tr.Outcome == OutcomeOK {
		t.admission.Record(tr.Admission)
		t.queue.Record(tr.Queue)
		t.score.Record(tr.Score)
		t.total.Record(tr.Total)
	}
	t.rec.observe(tr)
}

// Slowest returns the retained slowest recent traces, slowest first.
func (t *RequestTracer) Slowest() []Trace { return t.rec.slowest() }

// Snapshot materializes one stage histogram (a Stage* constant);
// unknown stages panic.
func (t *RequestTracer) Snapshot(stage string) *Histogram {
	switch stage {
	case StageAdmission:
		return t.admission.Snapshot()
	case StageQueue:
		return t.queue.Snapshot()
	case StageScore:
		return t.score.Snapshot()
	case StageTotal:
		return t.total.Snapshot()
	default:
		panic("telemetry: unknown stage " + stage)
	}
}

// flightRecorder keeps the `keep` slowest traces (by Total) of the
// current observation window plus the complete previous window, so a
// scrape right after rotation still sees a full set. The hot-path
// contract: once the current window's slowest set is full, a trace at
// or below its floor costs one atomic add and one atomic load.
type flightRecorder struct {
	keep   int
	window uint64

	obs   atomic.Uint64
	floor atomic.Int64 // min Total in cur once full; -1 otherwise

	mu        sync.Mutex
	cur, prev []Trace // cur is a min-heap on Total
}

func (f *flightRecorder) init(keep int) {
	if keep <= 0 {
		keep = DefaultTraceKeep
	}
	f.keep = keep
	f.window = uint64(keep) * traceWindowPerKeep
	f.floor.Store(-1)
	f.cur = make([]Trace, 0, keep)
	f.prev = make([]Trace, 0, keep)
}

func (f *flightRecorder) observe(tr Trace) {
	n := f.obs.Add(1)
	rotate := n%f.window == 0
	if !rotate {
		if fl := f.floor.Load(); fl >= 0 && int64(tr.Total) <= fl {
			return
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if rotate {
		f.cur, f.prev = f.prev[:0], f.cur
		f.floor.Store(-1)
	}
	if len(f.cur) < f.keep {
		f.cur = append(f.cur, tr)
		f.siftUp(len(f.cur) - 1)
		if len(f.cur) == f.keep {
			f.floor.Store(int64(f.cur[0].Total))
		}
		return
	}
	if tr.Total <= f.cur[0].Total {
		return // raced below the floor; not among the slowest
	}
	f.cur[0] = tr
	f.siftDown(0)
	f.floor.Store(int64(f.cur[0].Total))
}

func (f *flightRecorder) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if f.cur[parent].Total <= f.cur[i].Total {
			return
		}
		f.cur[parent], f.cur[i] = f.cur[i], f.cur[parent]
		i = parent
	}
}

func (f *flightRecorder) siftDown(i int) {
	n := len(f.cur)
	for {
		least := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < n && f.cur[c].Total < f.cur[least].Total {
				least = c
			}
		}
		if least == i {
			return
		}
		f.cur[i], f.cur[least] = f.cur[least], f.cur[i]
		i = least
	}
}

// slowest merges both windows, slowest Total first (ties broken by
// newer Seq first).
func (f *flightRecorder) slowest() []Trace {
	f.mu.Lock()
	out := make([]Trace, 0, len(f.cur)+len(f.prev))
	out = append(out, f.cur...)
	out = append(out, f.prev...)
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Seq > out[j].Seq
	})
	return out
}
