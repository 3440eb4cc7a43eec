package load

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/testfix"
)

// trainModel fits FairKM on a synthetic fixture and wraps it as an
// artifact for serving.
func trainModel(t testing.TB, ds *dataset.Dataset, k int, seed int64) *model.Model {
	t.Helper()
	res, err := core.Run(ds, core.Config{K: k, AutoLambda: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(ds, nil, res, model.Provenance{Tool: "loadtest", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	m.Name = fmt.Sprintf("m%d", seed)
	return m
}

func newRegistry(t testing.TB, opts serve.Options, dim int) *serve.Registry {
	t.Helper()
	ds := testfix.Synth(23, 240, dim, 1, 0)
	m := trainModel(t, ds, 4, 7)
	reg := serve.NewRegistry(opts)
	if _, err := reg.Install("prod", "", m); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	return reg
}

// TestBuildDeterministic pins the open-loop determinism contract: at a
// fixed seed the schedule and payload byte sequence are identical
// across builds; a different seed produces different payloads but the
// identical schedule (send times depend only on rate).
func TestBuildDeterministic(t *testing.T) {
	cfg := Config{Rate: 500, Requests: 200, Seed: 42, Dim: 5, Models: []string{"a", "b", "c"}}
	w1, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w1.Fingerprint() != w2.Fingerprint() {
		t.Fatal("same seed produced different workloads")
	}
	if w1.TotalRows != w2.TotalRows {
		t.Fatalf("row totals differ: %d vs %d", w1.TotalRows, w2.TotalRows)
	}

	cfg.Seed = 43
	w3, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w3.Fingerprint() == w1.Fingerprint() {
		t.Error("different seeds produced identical workloads")
	}
	for i := range w3.Requests {
		if w3.Requests[i].At != w1.Requests[i].At {
			t.Fatalf("request %d scheduled at %v vs %v: schedule must depend only on the rate", i, w3.Requests[i].At, w1.Requests[i].At)
		}
	}

	// The schedule is exactly i/rate — open loop, computed up front.
	for i, r := range w1.Requests {
		want := time.Duration(float64(i) * float64(time.Second) / cfg.Rate)
		if r.At != want {
			t.Fatalf("request %d at %v, want %v", i, r.At, want)
		}
	}
}

func TestBuildZipfShapes(t *testing.T) {
	w, err := Build(Config{Rate: 1000, Requests: 3000, Seed: 1, Dim: 3, MaxBatch: 32, Models: []string{"hot", "warm", "cold"}})
	if err != nil {
		t.Fatal(err)
	}
	ones, big := 0, 0
	byModel := map[string]int{}
	for i := range w.Requests {
		r := &w.Requests[i]
		if len(r.Rows) == 1 {
			ones++
		}
		if len(r.Rows) > 8 {
			big++
		}
		if len(r.Rows) < 1 || len(r.Rows) > 32 {
			t.Fatalf("batch size %d outside [1,32]", len(r.Rows))
		}
		byModel[r.Model]++
	}
	if ones < 3000/4 {
		t.Errorf("only %d/3000 singleton batches; Zipf should favor rank 1", ones)
	}
	if big == 0 {
		t.Error("no batches above 8 rows; tail missing")
	}
	if !(byModel["hot"] > byModel["warm"] && byModel["warm"] > byModel["cold"]) {
		t.Errorf("model popularity not Zipf-ranked: %v", byModel)
	}
	if byModel["cold"] == 0 {
		t.Error("cold model never selected")
	}
}

func TestBuildValidation(t *testing.T) {
	bad := []Config{
		{Rate: 0, Requests: 10, Dim: 3},
		{Rate: -5, Requests: 10, Dim: 3},
		{Rate: 10, Requests: 0, Dim: 3},
		{Rate: 10, Requests: 10, Dim: 0},
		{Rate: 10, Requests: 10, Dim: 3, ZipfBatch: 0.5},
		{Rate: 10, Requests: 10, Dim: 3, Timeout: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := Build(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// slowTarget answers correctly but slowly, counting concurrent
// in-flight requests so the test can prove the generator overlapped
// them (open loop) instead of serializing (closed loop).
type slowTarget struct {
	delay    time.Duration
	inflight atomic.Int64
	peak     atomic.Int64
}

func (s *slowTarget) Do(ctx context.Context, req *Request) Outcome {
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	for {
		p := s.peak.Load()
		if n <= p || s.peak.CompareAndSwap(p, n) {
			break
		}
	}
	select {
	case <-time.After(s.delay):
		return Outcome{Class: ClassOK, Rows: len(req.Rows)}
	case <-ctx.Done():
		return Outcome{Class: ClassDeadline, Err: ctx.Err()}
	}
}

// TestOpenLoopIndependentOfServerSpeed: a server 20× slower than the
// inter-arrival gap must not throttle the offered load — every request
// fires on schedule (so requests pile up concurrently), and the
// workload bytes are identical to what a fast run sends.
func TestOpenLoopIndependentOfServerSpeed(t *testing.T) {
	cfg := Config{Rate: 400, Requests: 80, Seed: 7, Dim: 4}
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := w.Fingerprint()

	slow := &slowTarget{delay: 50 * time.Millisecond} // 20× the 2.5ms gap
	rep := Run(context.Background(), w, slow)
	if rep.Sent != cfg.Requests || rep.Unsent != 0 {
		t.Fatalf("sent %d/%d: a slow server throttled the open loop", rep.Sent, cfg.Requests)
	}
	if rep.OK != cfg.Requests {
		t.Fatalf("ok %d, errors? %s", rep.OK, rep.FirstError)
	}
	if peak := slow.peak.Load(); peak < 10 {
		t.Errorf("peak in-flight %d; open-loop generator should overlap a slow server far deeper", peak)
	}
	if after := w.Fingerprint(); after != before {
		t.Error("running the workload mutated it")
	}

	// A fast run sends byte-identical traffic.
	w2, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	Run(context.Background(), w2, &slowTarget{delay: 0})
	if w2.Fingerprint() != before {
		t.Error("fast and slow runs sent different workloads")
	}
}

// TestRunRegistryTarget drives a real in-process registry and checks
// the report's arithmetic: outcome classes partition Sent, accepted
// rows are counted, and the latency histogram covers exactly the
// accepted requests.
func TestRunRegistryTarget(t *testing.T) {
	reg := newRegistry(t, serve.Options{}, 4)
	w, err := Build(Config{Rate: 2000, Requests: 400, Seed: 11, Dim: 4, Models: []string{"prod"}, SLO: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(context.Background(), w, &RegistryTarget{Registry: reg})
	if rep.Sent != 400 {
		t.Fatalf("sent %d, want 400", rep.Sent)
	}
	if rep.OK+rep.Shed+rep.DeadlineExceeded+rep.Errors != rep.Sent {
		t.Fatalf("outcomes don't partition sent: %+v", rep)
	}
	if rep.OK != 400 {
		t.Fatalf("ok %d (first error: %s)", rep.OK, rep.FirstError)
	}
	if rep.RowsOK != w.TotalRows {
		t.Errorf("rows ok %d, want all %d", rep.RowsOK, w.TotalRows)
	}
	if rep.Latency.Count != uint64(rep.OK) {
		t.Errorf("latency histogram has %d samples for %d accepted", rep.Latency.Count, rep.OK)
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 || rep.Latency.Max < rep.Latency.P999 {
		t.Errorf("implausible latency summary %+v", rep.Latency)
	}
	if rep.AcceptedRowsPerSec <= 0 {
		t.Error("no goodput computed")
	}
	if rep.SLO == nil || !rep.SLO.Met {
		t.Errorf("2s SLO should be trivially met: %+v", rep.SLO)
	}
	var secOK int
	for _, s := range rep.Seconds {
		secOK += s.OK
	}
	if secOK != rep.OK {
		t.Errorf("per-second series sums to %d ok, want %d", secOK, rep.OK)
	}

	// Unknown model traffic is an error class, not a crash.
	w2, err := Build(Config{Rate: 2000, Requests: 50, Seed: 11, Dim: 4, Models: []string{"ghost"}})
	if err != nil {
		t.Fatal(err)
	}
	rep2 := Run(context.Background(), w2, &RegistryTarget{Registry: reg})
	if rep2.Errors != 50 || rep2.FirstError == "" {
		t.Errorf("ghost-model run: %d errors (first %q), want 50", rep2.Errors, rep2.FirstError)
	}
}

// TestRunCancel stops the pacer mid-schedule: remaining requests count
// as unsent, in-flight ones still complete.
func TestRunCancel(t *testing.T) {
	reg := newRegistry(t, serve.Options{}, 4)
	w, err := Build(Config{Rate: 100, Requests: 1000, Seed: 3, Dim: 4, Models: []string{"prod"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	rep := Run(ctx, w, &RegistryTarget{Registry: reg})
	if rep.Unsent == 0 || rep.Sent+rep.Unsent != 1000 {
		t.Errorf("cancel accounting: sent %d unsent %d", rep.Sent, rep.Unsent)
	}
}

// TestShedDontCollapse is the acceptance pin for the overload story,
// run under -race in CI: an in-process fairserved registry with a
// stalled-request fault injected must shed traffic (429s rise) while the
// p99 of ACCEPTED requests stays inside the latency budget — the
// admission gate converts overload into fast rejections instead of an
// unbounded queue.
func TestShedDontCollapse(t *testing.T) {
	const (
		serviceDelay = 5 * time.Millisecond   // per-request scoring cost under fault
		stallFor     = 700 * time.Millisecond // one request wedges its slot for the whole run
		slo          = 150 * time.Millisecond
	)
	var stalled atomic.Bool
	hook := func(rows int) {
		if stalled.CompareAndSwap(false, true) {
			time.Sleep(stallFor) // the injected fault: a wedged stride
			return
		}
		time.Sleep(serviceDelay)
	}
	ds := testfix.Synth(23, 240, 4, 1, 0)
	m := trainModel(t, ds, 4, 7)
	reg := serve.NewRegistry(serve.Options{
		MaxConcurrent: 2,
		MaxQueue:      8,
		QueueBudget:   25 * time.Millisecond,
		ScoreHook:     hook,
	})
	if _, err := reg.Install("prod", "", m); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	// Offered 400 req/s vs ~200 req/s effective capacity (one of two
	// slots wedged, 5ms per request on the other): the server MUST shed.
	w, err := Build(Config{
		Rate:     400,
		Requests: 240,
		Seed:     99,
		Dim:      4,
		MaxBatch: 4,
		Models:   []string{"prod"},
		Timeout:  500 * time.Millisecond,
		SLO:      slo,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(context.Background(), w, &RegistryTarget{Registry: reg})

	if rep.Sent != 240 {
		t.Fatalf("open loop broke: sent %d/240", rep.Sent)
	}
	if rep.OK == 0 {
		t.Fatalf("server collapsed: zero accepted requests (first error: %s)", rep.FirstError)
	}
	if rep.Shed < rep.Sent/10 {
		t.Errorf("shed %d of %d: overload must produce substantial shedding", rep.Shed, rep.Sent)
	}
	if rep.Errors > 0 {
		t.Errorf("%d hard errors under fault (first: %s); overload must shed, not fail", rep.Errors, rep.FirstError)
	}
	if rep.SLO == nil || !rep.SLO.Met {
		t.Errorf("accepted-request p99 %v blew the %v budget: queueing leaked into accepted latency (report: ok=%d shed=%d deadline=%d)",
			rep.Latency.P99, slo, rep.OK, rep.Shed, rep.DeadlineExceeded)
	}

	// The wedged request itself must have been failed by its deadline,
	// not reported as a (very slow) success.
	if rep.DeadlineExceeded == 0 {
		t.Error("the stalled request should surface as a deadline failure")
	}

	// Shed-don't-collapse: the registry still serves cleanly after the
	// storm.
	e, err := reg.Get("prod")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Assigner().AssignBatch(ds.Features[:8], nil); err != nil {
		t.Fatalf("server unhealthy after overload: %v", err)
	}
	st := e.Assigner().Stats()
	if st.Shed == 0 || st.Deadline == 0 {
		t.Errorf("serving stats missed the storm: %+v", st)
	}
}

// TestHTTPTargetClassification maps wire statuses to outcome classes
// against a scripted server, and checks FetchDim model discovery.
func TestHTTPTargetClassification(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/assign", func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
			t.Errorf("content type %q", r.Header.Get("Content-Type"))
		}
		switch calls.Add(1) {
		case 1:
			fmt.Fprint(w, `{"assignments":[]}`)
		case 2:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case 3:
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			w.WriteHeader(http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/v1/models", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"default":"prod","models":[{"name":"prod","dim":6},{"name":"alt","dim":3}]}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	tgt := &HTTPTarget{BaseURL: ts.URL}
	req := &Request{Rows: [][]float64{{1, 2}, {3, 4}}}
	wantClasses := []Class{ClassOK, ClassShed, ClassDeadline, ClassError}
	for i, want := range wantClasses {
		o := tgt.Do(context.Background(), req)
		if o.Class != want {
			t.Errorf("call %d classified %v, want %v", i+1, o.Class, want)
		}
		if want == ClassOK && o.Rows != 2 {
			t.Errorf("ok call counted %d rows, want 2", o.Rows)
		}
	}

	// Client-side timeout → deadline class.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if o := tgt.Do(ctx, req); o.Class != ClassDeadline {
		t.Errorf("expired ctx classified %v, want deadline", o.Class)
	}

	if dim, err := FetchDim(ts.URL, ""); err != nil || dim != 6 {
		t.Errorf("FetchDim default = %d, %v; want 6", dim, err)
	}
	if dim, err := FetchDim(ts.URL, "alt"); err != nil || dim != 3 {
		t.Errorf("FetchDim alt = %d, %v; want 3", dim, err)
	}
	if _, err := FetchDim(ts.URL, "ghost"); err == nil {
		t.Error("FetchDim of unknown model succeeded")
	}
}

// TestConcurrentCollect hammers the collector from many goroutines so
// -race has something to bite on.
func TestConcurrentCollect(t *testing.T) {
	col := &collector{seconds: map[int]*SecondStats{}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				col.record(time.Duration(i)*time.Millisecond, Outcome{Class: Class(i % 4), Latency: time.Millisecond, Rows: 1})
			}
		}(g)
	}
	wg.Wait()
	if got := col.rep.OK + col.rep.Shed + col.rep.DeadlineExceeded + col.rep.Errors; got != 4000 {
		t.Errorf("collected %d outcomes, want 4000", got)
	}
}
