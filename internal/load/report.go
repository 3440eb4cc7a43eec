package load

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/telemetry"
)

// SecondStats is one second of the run, bucketed by completion time.
type SecondStats struct {
	Second   int `json:"second"`
	OK       int `json:"ok"`
	Shed     int `json:"shed"`
	Deadline int `json:"deadline"`
	Errors   int `json:"errors"`
	RowsOK   int `json:"rows_ok"`
}

// SLOResult grades accepted-request tail latency against the target.
type SLOResult struct {
	// Target is the p99 bound the run was graded against.
	Target time.Duration `json:"target_p99_ns"`
	// P99 is the achieved accepted-request p99.
	P99 time.Duration `json:"p99_ns"`
	// Met reports p99 <= Target.
	Met bool `json:"met"`
	// AcceptedRowsPerSec is the goodput at this operating point — the
	// "rows/s at p99 ≤ X ms" number the BENCH_load trajectory records.
	AcceptedRowsPerSec float64 `json:"accepted_rows_per_sec"`
}

// Report is the result of one open-loop run.
type Report struct {
	Config Config        `json:"config"`
	Wall   time.Duration `json:"wall_ns"`

	// Sent is how many scheduled requests were fired (all of them
	// unless the run context was canceled); Unsent counts the rest.
	Sent   int `json:"sent"`
	Unsent int `json:"unsent,omitempty"`
	// The outcome breakdown: Sent = OK + Shed + DeadlineExceeded + Errors.
	OK               int `json:"ok"`
	Shed             int `json:"shed"`
	DeadlineExceeded int `json:"deadline_exceeded"`
	Errors           int `json:"errors"`
	// RowsOK counts rows labelled by accepted requests.
	RowsOK int `json:"rows_ok"`

	// OfferedRate is the configured open-loop rate; AcceptedRowsPerSec
	// is RowsOK over the wall clock.
	OfferedRate        float64 `json:"offered_rate_rps"`
	AcceptedRowsPerSec float64 `json:"accepted_rows_per_sec"`

	// Latency is the accepted-request latency distribution. Shed and
	// expired requests are counted above, never mixed into it.
	Latency telemetry.Summary `json:"latency"`

	// Seconds is the per-second throughput/outcome series.
	Seconds []SecondStats `json:"seconds"`

	// SLO is present when Config.SLO > 0.
	SLO *SLOResult `json:"slo,omitempty"`

	// FirstError samples the first non-OK outcome's error text.
	FirstError string `json:"first_error,omitempty"`
}

// collector accumulates outcomes; one mutex is plenty at harness rates
// and keeps the histogram simple.
type collector struct {
	mu      sync.Mutex
	rep     Report
	hist    telemetry.Histogram
	seconds map[int]*SecondStats
}

func (c *collector) record(at time.Duration, o Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sec := int(at / time.Second)
	cell := c.seconds[sec]
	if cell == nil {
		cell = &SecondStats{Second: sec}
		c.seconds[sec] = cell
	}
	switch o.Class {
	case ClassOK:
		c.rep.OK++
		c.rep.RowsOK += o.Rows
		cell.OK++
		cell.RowsOK += o.Rows
		c.hist.Record(o.Latency)
	case ClassShed:
		c.rep.Shed++
		cell.Shed++
	case ClassDeadline:
		c.rep.DeadlineExceeded++
		cell.Deadline++
	default:
		c.rep.Errors++
		cell.Errors++
	}
	if o.Class != ClassOK && o.Err != nil && c.rep.FirstError == "" {
		c.rep.FirstError = cli.FirstLine(o.Err)
	}
}

// Run fires the workload open-loop at tgt: each request launches at its
// precomputed offset on its own goroutine, never waiting for earlier
// responses. Canceling ctx stops the pacer (remaining requests count as
// Unsent) and waits for in-flight requests to finish.
func Run(ctx context.Context, w *Workload, tgt Target) *Report {
	col := &collector{seconds: map[int]*SecondStats{}}
	col.rep.Config = w.Config
	col.rep.OfferedRate = w.Config.Rate

	var wg sync.WaitGroup
	start := time.Now()
	for i := range w.Requests {
		req := &w.Requests[i]
		if d := time.Until(start.Add(req.At)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			col.rep.Unsent = len(w.Requests) - i
			break
		}
		col.rep.Sent++
		wg.Add(1)
		go func(req *Request) {
			defer wg.Done()
			rctx := ctx
			if w.Config.Timeout > 0 {
				var cancel context.CancelFunc
				rctx, cancel = context.WithTimeout(ctx, w.Config.Timeout)
				defer cancel()
			}
			sent := time.Now()
			o := tgt.Do(rctx, req)
			if o.Latency == 0 {
				o.Latency = time.Since(sent)
			}
			col.record(time.Since(start), o)
		}(req)
	}
	wg.Wait()

	rep := col.rep
	rep.Wall = time.Since(start)
	rep.Latency = col.hist.Summarize()
	if secs := rep.Wall.Seconds(); secs > 0 {
		rep.AcceptedRowsPerSec = float64(rep.RowsOK) / secs
	}
	maxSec := -1
	for s := range col.seconds {
		if s > maxSec {
			maxSec = s
		}
	}
	rep.Seconds = make([]SecondStats, maxSec+1)
	for s := 0; s <= maxSec; s++ {
		rep.Seconds[s] = SecondStats{Second: s}
		if cell := col.seconds[s]; cell != nil {
			rep.Seconds[s] = *cell
		}
	}
	if w.Config.SLO > 0 {
		rep.SLO = &SLOResult{
			Target:             w.Config.SLO,
			P99:                rep.Latency.P99,
			Met:                rep.Latency.P99 <= w.Config.SLO,
			AcceptedRowsPerSec: rep.AcceptedRowsPerSec,
		}
	}
	return &rep
}

// ms renders a duration as fractional milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond)) }

// Render writes the human-readable summary.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "open-loop: offered %.6g req/s for %d requests (%.2fs wall, seed %d)\n",
		r.OfferedRate, r.Sent+r.Unsent, r.Wall.Seconds(), r.Config.Seed)
	fmt.Fprintf(w, "outcomes:  ok %d  shed %d  deadline %d  error %d", r.OK, r.Shed, r.DeadlineExceeded, r.Errors)
	if r.Unsent > 0 {
		fmt.Fprintf(w, "  unsent %d", r.Unsent)
	}
	fmt.Fprintln(w)
	if r.FirstError != "" {
		fmt.Fprintf(w, "first-err: %s\n", r.FirstError)
	}
	fmt.Fprintf(w, "goodput:   %d rows accepted = %.6g rows/s\n", r.RowsOK, r.AcceptedRowsPerSec)
	l := r.Latency
	fmt.Fprintf(w, "latency:   n=%d min %s p50 %s p90 %s p99 %s p99.9 %s max %s (accepted only)\n",
		l.Count, ms(l.Min), ms(l.P50), ms(l.P90), ms(l.P99), ms(l.P999), ms(l.Max))
	if r.SLO != nil {
		verdict := "MET"
		if !r.SLO.Met {
			verdict = "MISSED"
		}
		fmt.Fprintf(w, "slo:       p99 %s vs target %s → %s (%.6g rows/s at the SLO gate)\n",
			ms(r.SLO.P99), ms(r.SLO.Target), verdict, r.SLO.AcceptedRowsPerSec)
	}
	if len(r.Seconds) > 1 {
		fmt.Fprintf(w, "per-second (ok/shed/deadline/err rows):\n")
		for _, s := range r.Seconds {
			fmt.Fprintf(w, "  t=%2ds  %5d %5d %5d %5d  %7d\n", s.Second, s.OK, s.Shed, s.Deadline, s.Errors, s.RowsOK)
		}
	}
}
