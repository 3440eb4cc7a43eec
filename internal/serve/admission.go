package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// DefaultMaxQueue is the admission queue bound when Options.MaxConcurrent
// is set but Options.MaxQueue is not: how many requests may wait for a
// scoring slot before arrivals are shed.
const DefaultMaxQueue = 64

// defaultRetryAfter is the Retry-After hint when the gate has no wait
// estimate yet (no request has completed since construction).
const defaultRetryAfter = 100 * time.Millisecond

// ShedError is an admission-control rejection: the server is over its
// configured capacity and refused the request instead of queueing it
// unboundedly. RetryAfter is the server's estimate of when capacity
// frees up (cmd/fairserved maps it to HTTP 429 + a Retry-After header).
type ShedError struct {
	// RetryAfter estimates how long the caller should back off.
	RetryAfter time.Duration
	// Reason says which bound tripped ("queue full" or "queue wait
	// exceeds budget").
	Reason string
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: overloaded (%s), retry after %v", e.Reason, e.RetryAfter)
}

// IsShed reports whether err is an admission-control rejection
// (shed-don't-collapse: the caller should back off and retry, the
// server is healthy).
func IsShed(err error) bool {
	var s *ShedError
	return errors.As(err, &s)
}

// gate is a per-model admission controller: a slot semaphore bounding
// concurrent scoring, a bounded wait queue, and an optional latency
// budget that sheds arrivals whose estimated queue wait is already
// hopeless. The estimate is queued·EWMA(service time)/slots — the wait
// a new arrival would see if every queued request takes about as long
// as recent ones did.
//
// A slot is held for the whole request, which scores on its own
// goroutine. A request whose deadline passes mid-batch gives its slot
// back at the next stride boundary, after at most one stride of pure
// compute; scoring does no I/O, so nothing else can hold a slot past
// its deadline.
type gate struct {
	slots    chan struct{}
	maxQueue int64
	budget   time.Duration

	queued atomic.Int64
	// ewma is the smoothed admitted-service time in nanoseconds
	// (α = 1/8), seeded by the first completion.
	ewma atomic.Int64
}

// newGate returns nil (admission control off) unless MaxConcurrent > 0.
func newGate(o Options) *gate {
	if o.MaxConcurrent <= 0 {
		return nil
	}
	maxQueue := o.MaxQueue
	if maxQueue <= 0 {
		maxQueue = DefaultMaxQueue
	}
	return &gate{
		slots:    make(chan struct{}, o.MaxConcurrent),
		maxQueue: int64(maxQueue),
		budget:   o.QueueBudget,
	}
}

// acquire admits the request or rejects it: *ShedError when a capacity
// bound trips, ctx.Err() when the request's deadline expires while
// queued. A nil error means the caller holds a slot and must
// release(). queueWait is the measured blocking wait in the queue —
// the span-trace "queue" stage — and is zero on the uncontended fast
// path (which stays clock-free) and on shed rejections (the request
// never queued).
func (g *gate) acquire(ctx context.Context) (queueWait time.Duration, err error) {
	select {
	case g.slots <- struct{}{}:
		return 0, nil
	default:
	}
	q := g.queued.Add(1)
	if q > g.maxQueue {
		g.queued.Add(-1)
		return 0, &ShedError{Reason: "queue full", RetryAfter: g.retryAfter(q)}
	}
	if g.budget > 0 {
		if wait := g.estimate(q); wait > g.budget {
			g.queued.Add(-1)
			return 0, &ShedError{Reason: "queue wait exceeds budget", RetryAfter: wait}
		}
	}
	defer g.queued.Add(-1)
	enqueued := time.Now()
	select {
	case g.slots <- struct{}{}:
		return time.Since(enqueued), nil
	case <-ctx.Done():
		return time.Since(enqueued), ctx.Err()
	}
}

// release frees a slot and folds the observed service time (admission
// to completion, queue wait excluded) into the wait estimator.
func (g *gate) release(served time.Duration) {
	<-g.slots
	n := served.Nanoseconds()
	if n < 0 {
		n = 0
	}
	for {
		old := g.ewma.Load()
		next := n
		if old > 0 {
			next = old + (n-old)/8
		}
		if g.ewma.CompareAndSwap(old, next) {
			return
		}
	}
}

// estimate predicts the queue wait for an arrival with q requests
// already waiting: zero until the first completion seeds the EWMA.
func (g *gate) estimate(q int64) time.Duration {
	return time.Duration(q * g.ewma.Load() / int64(cap(g.slots)))
}

// retryAfter picks a back-off hint for a shed response: the wait
// estimate when one exists, else the configured budget, else a default.
func (g *gate) retryAfter(q int64) time.Duration {
	if w := g.estimate(q); w > 0 {
		return w
	}
	if g.budget > 0 {
		return g.budget
	}
	return defaultRetryAfter
}

// depth snapshots the gauges: requests holding slots and requests
// waiting for one.
func (g *gate) depth() (inflight, queued int) {
	return len(g.slots), int(g.queued.Load())
}
