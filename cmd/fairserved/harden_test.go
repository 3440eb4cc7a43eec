package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/serve"
)

// hardTestServer builds a handler over a registry with explicit serve
// options and handler options — the overload/hardening test rig.
func hardTestServer(t *testing.T, path string, so serve.Options, ho handlerOptions) (*httptest.Server, *serve.Registry) {
	t.Helper()
	srv, reg, _ := newTelemetryTestServer(t, path, so, ho)
	return srv, reg
}

// TestBodyLimits: oversized payloads get 413, garbage gets 400, and
// neither ever reaches the assigner.
func TestBodyLimits(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveFixtureModel(t, dir, 11)
	ts, reg := hardTestServer(t, path, serve.Options{}, handlerOptions{MaxBody: 512})

	// A syntactically valid body that blows the 512-byte bound.
	big := map[string]any{"features": make([]float64, 4096)}
	resp, data := postJSON(t, ts.URL+"/v1/assign", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d %s, want 413", resp.StatusCode, data)
	}
	var e map[string]string
	if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
		t.Errorf("413 body not a JSON error: %s", data)
	}

	// Garbage bytes get 400, not a 500 or a hang; the trailing-data
	// cases include a stray closing bracket, which must not pass for
	// the end of the value. Both endpoints read bodies the same way.
	for _, ep := range []struct{ path, valid string }{
		{"/v1/assign", `{"features":[1,2,3]}`},
		{"/v1/models/reload", `{"model":"prod"}`},
	} {
		for name, body := range map[string]string{
			"not json":            "{not json at all",
			"trailing data":       ep.valid + ` {"x":1}`,
			"trailing brace":      ep.valid + ` }`,
			"trailing bracket":    ep.valid + `]`,
			"unknown field":       `{"features":[1,2,3],"bogus":true}`,
			"case-folded unknown": `{"Bogus":true}`,
		} {
			resp, data := postRaw(t, ts.URL+ep.path, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s = %d %s, want 400", ep.path, name, resp.StatusCode, data)
			}
			if strings.HasPrefix(name, "trailing") && !strings.Contains(string(data), "trailing data") {
				t.Errorf("%s %s error = %s, want trailing data", ep.path, name, data)
			}
		}

		// A small valid body padded past the bound: the whole body is
		// read under -max-body, so the padding cannot slip past it.
		resp, data := postRaw(t, ts.URL+ep.path, ep.valid+strings.Repeat(" ", 600))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s padded past the bound = %d %s, want 413", ep.path, resp.StatusCode, data)
		}
	}

	// The reload endpoint is bounded by the same limit.
	resp, err := http.Post(ts.URL+"/v1/models/reload", "application/json",
		bytes.NewReader(append([]byte(`{"path":"`), append(bytes.Repeat([]byte("x"), 2048), []byte(`"}`)...)...)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized reload = %d, want 413", resp.StatusCode)
	}

	// None of the rejects touched the model.
	e2, err := reg.Get("prod")
	if err != nil {
		t.Fatal(err)
	}
	if st := e2.Assigner().Stats(); st.Requests != 0 {
		t.Errorf("rejected bodies reached the assigner: %+v", st)
	}

	// Features this large overflow the squared distance to +Inf, which
	// has no JSON number form: the reply is a 400 with a JSON error,
	// never a 200 with an empty body.
	resp, data = postRaw(t, ts.URL+"/v1/assign", `{"features":[1e200,1e200,1e200]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("overflowing features = %d %s, want 400", resp.StatusCode, data)
	}
	var oe map[string]string
	if err := json.Unmarshal(data, &oe); err != nil || oe["error"] == "" {
		t.Errorf("overflow reply not a JSON error: %s", data)
	}
}

// postRaw posts body verbatim and returns the response and its body.
func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestOverloadResponses wedges the single scoring slot and checks the
// wire contract: queued-over-capacity requests get 429 with a
// Retry-After header while the server stays healthy.
func TestOverloadResponses(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveFixtureModel(t, dir, 12)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	ts, reg := hardTestServer(t, path, serve.Options{
		MaxConcurrent: 1,
		MaxQueue:      1,
		ScoreHook: func(rows int) {
			select {
			case entered <- struct{}{}:
				<-release // first scorer wedges until released
			default:
			}
		},
	}, handlerOptions{})

	body := []byte(`{"features":[0,1,2]}`)
	post := func() *http.Response {
		resp, err := http.Post(ts.URL+"/v1/assign", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return nil
		}
		resp.Body.Close()
		return resp
	}

	first := make(chan *http.Response, 1)
	go func() { first <- post() }()
	<-entered // the slot is now held

	// Occupy the one queue spot.
	second := make(chan *http.Response, 1)
	go func() { second <- post() }()
	deadline := time.Now().Add(2 * time.Second)
	for {
		e, _ := reg.Get("prod")
		if st := e.Assigner().Stats(); st.Queued >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: the third arrival is shed.
	resp := post()
	if resp == nil || resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue request = %v, want 429", resp)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1s", resp.Header.Get("Retry-After"))
	}

	close(release)
	for _, ch := range []chan *http.Response{first, second} {
		select {
		case r := <-ch:
			if r == nil || r.StatusCode != http.StatusOK {
				t.Errorf("admitted request = %v, want 200", r)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("admitted request never completed")
		}
	}

	// The shed shows up in stats, /v1/models, and /metrics.
	e, _ := reg.Get("prod")
	if st := e.Assigner().Stats(); st.Shed != 1 || st.Requests != 2 {
		t.Errorf("stats after storm = %+v", st)
	}
	_, data := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(data), `fairserved_shed_total{model="prod"} 1`) {
		t.Errorf("/metrics missing shed counter:\n%s", data)
	}
	_, data = getBody(t, ts.URL+"/v1/models")
	var list struct {
		Models []modelInfo `json:"models"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if list.Models[0].Shed != 1 {
		t.Errorf("/v1/models shed = %d, want 1", list.Models[0].Shed)
	}
}

// TestRequestTimeout503: a request that cannot finish inside
// -request-timeout fails with 503 and the deadline shows in metrics.
func TestRequestTimeout503(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveFixtureModel(t, dir, 13)
	ts, _ := hardTestServer(t, path, serve.Options{
		MaxConcurrent: 1,
		ScoreHook:     func(rows int) { time.Sleep(300 * time.Millisecond) },
	}, handlerOptions{RequestTimeout: 30 * time.Millisecond})

	resp, data := postJSON(t, ts.URL+"/v1/assign", map[string]any{"features": []float64{0, 1, 2}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("slow request = %d %s, want 503", resp.StatusCode, data)
	}
	_, data = getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(data), `fairserved_deadline_total{model="prod"} 1`) {
		t.Errorf("/metrics missing deadline counter:\n%s", data)
	}
}

// TestHardenedFlagValidation audits the new knobs' exit-code-2 paths.
func TestHardenedFlagValidation(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveFixtureModel(t, dir, 14)
	m := "-model"
	cases := map[string][]string{
		"queue without concurrent":  {m, path, "-max-queue", "8"},
		"budget without concurrent": {m, path, "-queue-budget", "10ms"},
		"negative concurrent":       {m, path, "-max-concurrent", "-1"},
		"negative queue":            {m, path, "-max-concurrent", "2", "-max-queue", "-1"},
		"negative budget":           {m, path, "-max-concurrent", "2", "-queue-budget", "-1s"},
		"negative request timeout":  {m, path, "-request-timeout", "-1s"},
		"zero max body":             {m, path, "-max-body", "0"},
		"zero shutdown timeout":     {m, path, "-shutdown-timeout", "0s"},
		"negative shutdown timeout": {m, path, "-shutdown-timeout", "-5s"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var buf bytes.Buffer
			if err := serveCtx(ctx, args, &buf); err == nil {
				t.Errorf("serveCtx(%v) accepted a bad invocation", args)
			}
		})
	}
}

// TestDebugMuxIsolation: pprof lives only on the opt-in -debug-addr
// mux; the serving mux must never expose it (profiling endpoints on a
// public port are a DoS and information leak).
func TestDebugMuxIsolation(t *testing.T) {
	dbg := httptest.NewServer(newDebugMux())
	defer dbg.Close()
	resp, err := http.Get(dbg.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("debug mux /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(dbg.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("debug mux /debug/pprof/cmdline = %d, want 200", resp.StatusCode)
	}

	dir := t.TempDir()
	path, _ := saveFixtureModel(t, dir, 15)
	ts, _ := hardTestServer(t, path, serve.Options{}, handlerOptions{})
	for _, p := range []string{"/debug/pprof/", "/debug/pprof/profile", "/debug/pprof/heap"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("serving mux %s = %d, want 404", p, resp.StatusCode)
		}
	}
}

// TestOrphanedStridesKeepRows: requests that stall in scoring past
// -request-timeout get 503 while good requests are decoded and scored
// alongside them. Each request owns its decoded rows: every 200 must
// carry the sequential-scan answer for its own rows, and under -race
// rows shared between requests would be reported as a race.
func TestOrphanedStridesKeepRows(t *testing.T) {
	dir := t.TempDir()
	path, m := saveFixtureModel(t, dir, 16)
	const stalledRows = 13
	ts, _ := hardTestServer(t, path, serve.Options{
		// Only the stalled requests score a 13-row stride; it sleeps
		// past the request timeout.
		ScoreHook: func(rows int) {
			if rows == stalledRows {
				time.Sleep(150 * time.Millisecond)
			}
		},
	}, handlerOptions{RequestTimeout: 50 * time.Millisecond})

	stalled := make([]map[string]any, stalledRows)
	for i := range stalled {
		stalled[i] = map[string]any{"features": []float64{float64(i), -1, 2}}
	}
	stalledBody, err := json.Marshal(map[string]any{"rows": stalled})
	if err != nil {
		t.Fatal(err)
	}

	// Stalled posters and good posters run at the same time, so the
	// stalled requests are scoring while good ones are decoded and
	// scored.
	const stallers, perStaller = 3, 3
	const posters, perPoster = 3, 20
	var ok, unavailable atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < stallers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < perStaller; r++ {
				resp, err := http.Post(ts.URL+"/v1/assign", "application/json", bytes.NewReader(stalledBody))
				if err != nil {
					t.Error(err)
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("stalled request = %d %s, want 503", resp.StatusCode, data)
				}
			}
		}()
	}
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < perPoster; r++ {
				rows := make([]map[string]any, 8)
				xs := make([][]float64, len(rows))
				for j := range rows {
					xs[j] = []float64{float64(g) - float64(j)*0.25, float64(r) * 0.1, float64(j%3) - 1}
					rows[j] = map[string]any{"features": xs[j]}
				}
				if !goodAssign(t, ts.URL, rows, xs, m) {
					unavailable.Add(1)
				} else {
					ok.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatalf("no good request succeeded (%d got 503)", unavailable.Load())
	}
	t.Logf("%d good requests answered, %d shed by the deadline", ok.Load(), unavailable.Load())
}

// goodAssign posts one batch and checks a 200 against model.AssignDist
// on its own rows. It reports false for a 503 and flags anything else.
func goodAssign(t *testing.T, url string, rows []map[string]any, xs [][]float64, m *model.Model) bool {
	raw, err := json.Marshal(map[string]any{"rows": rows})
	if err != nil {
		t.Error(err)
		return false
	}
	resp, err := http.Post(url+"/v1/assign", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Error(err)
		return false
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
		return false
	}
	switch resp.StatusCode {
	case http.StatusServiceUnavailable:
		return false
	case http.StatusOK:
	default:
		t.Errorf("good request = %d %s", resp.StatusCode, data)
		return false
	}
	var got assignResponse
	if err := json.Unmarshal(data, &got); err != nil || len(got.Assignments) != len(xs) {
		t.Errorf("good request answer %s (%v)", data, err)
		return true
	}
	for i, x := range xs {
		c, d := m.AssignDist(x)
		if a := got.Assignments[i]; a.Cluster != c || math.Abs(a.Distance-d) > 1e-9*(1+d) {
			t.Errorf("row %d %v: served cluster %d distance %v, want %d %v", i, x, a.Cluster, a.Distance, c, d)
		}
	}
	return true
}
