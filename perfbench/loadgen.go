package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type opKind uint8

const (
	opAssign opKind = iota
	opMetrics
	opModels
	opReload
)

// routes is each op kind's method and path.
var routes = [...]struct{ method, path string }{
	opAssign:  {http.MethodPost, "/v1/assign"},
	opMetrics: {http.MethodGet, "/metrics"},
	opModels:  {http.MethodGet, "/v1/models"},
	opReload:  {http.MethodPost, "/v1/models/reload"},
}

// op is one scheduled request: when it is due, relative to its phase's
// start, and what it sends.
type op struct {
	due  time.Duration
	kind opKind
	// arg is the payload index of an assign, or the reload's ordinal.
	arg int
}

// opResult is what happened to one op. Times are offsets from the
// phase start.
type opResult struct {
	sent, done time.Duration
	// lag is how late the generator sent the op while a connection was
	// free: a schedule the generator could not keep, not a slow server.
	lag    time.Duration
	status int // 0 = transport error
	bytes  int
	wrong  bool
}

// control is the control-plane traffic mixed into a phase.
type control struct {
	scrapeEvery time.Duration // GET /metrics and GET /v1/models
	reloadEvery time.Duration // POST /v1/models/reload
}

// phase is one stretch of open-loop traffic at a fixed offered rate.
type phase struct {
	dur time.Duration
	ops []op
	res []opResult
}

// schedule builds a phase's open-loop schedule from the seed before
// it runs: Poisson assign arrivals at rate over dur, each drawing a
// payload uniformly, plus the control plane at fixed offsets. Reload
// ordinals continue from *reloads.
func schedule(seed int64, rate float64, dur time.Duration, npay int, ctl control, reloads *int) *phase {
	rng := rand.New(rand.NewSource(seed))
	ph := &phase{dur: dur}
	var ctlOps []op
	if ctl.scrapeEvery > 0 {
		for t := ctl.scrapeEvery / 2; t < dur; t += ctl.scrapeEvery {
			ctlOps = append(ctlOps, op{due: t, kind: opMetrics}, op{due: t, kind: opModels})
		}
	}
	if ctl.reloadEvery > 0 {
		for t := ctl.reloadEvery / 2; t < dur; t += ctl.reloadEvery {
			*reloads++
			ctlOps = append(ctlOps, op{due: t, kind: opReload, arg: *reloads})
		}
	}
	sort.SliceStable(ctlOps, func(i, j int) bool { return ctlOps[i].due < ctlOps[j].due })
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			break
		}
		for len(ctlOps) > 0 && ctlOps[0].due <= due {
			ph.ops = append(ph.ops, ctlOps[0])
			ctlOps = ctlOps[1:]
		}
		ph.ops = append(ph.ops, op{due: due, kind: opAssign, arg: rng.Intn(npay)})
	}
	ph.ops = append(ph.ops, ctlOps...)
	ph.res = make([]opResult, len(ph.ops))
	return ph
}

// target is a running fairserved and the traffic that drives it.
type target struct {
	base     string
	model    string
	payloads []*payload
	oracle   *oracle
	// reloadBody[i] is the body of reload ordinal i+1.
	reloadBody func(ordinal int) []byte
	// reloadsSent counts reloads handed to the server, so a response
	// may carry any generation up to 1+reloadsSent.
	reloadsSent atomic.Int64
	conns       int
	tr          *tracer
	// onScrape, when set, sees every /metrics body the traffic fetched.
	onScrape func([]byte)
	// wrong counts answers the oracle rejected, in every phase.
	wrong atomic.Int64

	errMu  sync.Mutex
	errors []string
}

func (t *target) noteError(msg string) {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	if len(t.errors) < 5 {
		t.errors = append(t.errors, msg)
	}
}

// run executes a phase open-loop on t.conns connections, one worker
// goroutine each. Every op's latency counts from its due time, so a
// stall is charged to every request it delays.
func (t *target) run(ph *phase, parentSpan int) {
	// The generator's Go code runs on one thread: its goroutines spend
	// their time blocked on the network, and a second thread would only
	// compete with the server under test for the machine's cores.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var next atomic.Int64
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < t.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{
				Timeout:   30 * time.Second,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			}
			defer client.CloseIdleConnections()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ph.ops) {
					return
				}
				o := ph.ops[i]
				free := time.Since(start)
				if d := o.due - free; d > 0 {
					time.Sleep(d)
				}
				r := &ph.res[i]
				r.sent = time.Since(start)
				r.lag = r.sent - max(o.due, free)
				span := t.tr.begin("fairserved.request", parentSpan, int64(i))
				ok := t.do(client, o, r, &buf)
				r.done = time.Since(start)
				t.tr.end(span)
				if ok {
					t.check(o, r, buf.Bytes())
				}
			}
		}()
	}
	wg.Wait()
}

// do sends one op and reads its whole answer into buf. It reports
// whether an answer arrived; checking it is left to check, so that the
// benchmark's own verification is not timed as the server's.
func (t *target) do(client *http.Client, o op, r *opResult, buf *bytes.Buffer) bool {
	var body []byte
	switch o.kind {
	case opAssign:
		body = t.payloads[o.arg].body
	case opReload:
		body = t.reloadBody(o.arg)
		t.reloadsSent.Add(1)
	}
	rt := routes[o.kind]
	req, err := http.NewRequest(rt.method, t.base+rt.path, bytes.NewReader(body))
	if err != nil {
		t.noteError(err.Error())
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		t.noteError(err.Error())
		return false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.noteError(err.Error())
		return false
	}
	r.status, r.bytes = resp.StatusCode, buf.Len()
	return true
}

// check verifies an answer do read: assigns against the oracle, scrapes
// through onScrape, and any status other than 200, 429 and 503.
func (t *target) check(o op, r *opResult, body []byte) {
	switch {
	case o.kind == opAssign && r.status == http.StatusOK:
		maxGen := 1 + int(t.reloadsSent.Load())
		if err := t.oracle.check(o.arg, body, t.model, maxGen); err != nil {
			r.wrong = true
			t.wrong.Add(1)
			t.noteError("oracle: " + err.Error())
		}
	case o.kind == opMetrics && r.status == http.StatusOK && t.onScrape != nil:
		t.onScrape(body)
	case r.status != http.StatusOK && r.status != http.StatusTooManyRequests && r.status != http.StatusServiceUnavailable:
		rt := routes[o.kind]
		t.noteError(fmt.Sprintf("%s %s: status %d: %.200s", rt.method, rt.path, r.status, body))
	}
}

// phaseStats summarizes a finished phase.
type phaseStats struct {
	lat       []float64 // accepted assign latency from due time, seconds
	okRows    int
	attempted int
	failed    int
	wrong     int
	lagP99    float64 // seconds
	status    map[int]int
	// growing reports a backlog: completions in the last third of the
	// phase trail the ops due in it by more than 10%.
	growing bool
	// ctlLat holds control-plane latencies by kind, seconds.
	ctlLat map[opKind][]float64
	ctlLen map[opKind][]float64
	reqB   []float64
	respB  []float64
}

func (t *target) stats(ph *phase) *phaseStats {
	s := &phaseStats{status: map[int]int{}, ctlLat: map[opKind][]float64{}, ctlLen: map[opKind][]float64{}}
	var lags []float64
	third := ph.dur * 2 / 3
	dueLate, doneLate := 0, 0
	for i, o := range ph.ops {
		r := ph.res[i]
		s.attempted++
		lags = append(lags, r.lag.Seconds())
		ok := r.status == http.StatusOK && !r.wrong
		if !ok {
			s.failed++
		}
		if r.wrong {
			s.wrong++
		}
		if o.kind != opAssign {
			if ok {
				s.ctlLat[o.kind] = append(s.ctlLat[o.kind], (r.done - r.sent).Seconds())
				s.ctlLen[o.kind] = append(s.ctlLen[o.kind], float64(r.bytes))
			}
			continue
		}
		s.status[r.status]++
		s.reqB = append(s.reqB, float64(len(t.payloads[o.arg].body)))
		if o.due >= third {
			dueLate++
		}
		if ok {
			s.lat = append(s.lat, (r.done - o.due).Seconds())
			s.okRows += len(t.payloads[o.arg].rows)
			s.respB = append(s.respB, float64(r.bytes))
			if r.done >= third && r.done < ph.dur {
				doneLate++
			}
		}
	}
	s.lagP99 = quantile(lags, 0.99)
	s.growing = float64(doneLate) < 0.9*float64(dueLate)
	return s
}

// zipfBatch draws batch sizes in [1,max] with P(b) ∝ b^-s.
type zipfBatch struct{ cdf []float64 }

func newZipfBatch(maxB int, s float64) *zipfBatch {
	z := &zipfBatch{}
	tot := 0.0
	for b := 1; b <= maxB; b++ {
		tot += math.Pow(float64(b), -s)
		z.cdf = append(z.cdf, tot)
	}
	for i := range z.cdf {
		z.cdf[i] /= tot
	}
	return z
}

func (z *zipfBatch) draw(rng *rand.Rand) int {
	u := rng.Float64()
	for i, c := range z.cdf {
		if u <= c {
			return i + 1
		}
	}
	return len(z.cdf)
}
