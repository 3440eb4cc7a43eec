package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/testfix"
)

// requestDiff describes the first difference between two decoded
// requests, comparing floats by bit pattern (so -0 and 0 differ) and
// telling nil from empty, or returns "" when they are identical.
func requestDiff(a, b assignRequest) string {
	if a.Model != b.Model || a.Raw != b.Raw {
		return fmt.Sprintf("model/raw %q/%v vs %q/%v", a.Model, a.Raw, b.Model, b.Raw)
	}
	if d := rowDiff(assignRow{a.Features, a.Sensitive}, assignRow{b.Features, b.Sensitive}); d != "" {
		return "top level: " + d
	}
	if (a.Rows == nil) != (b.Rows == nil) || len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("rows %d (nil %v) vs %d (nil %v)", len(a.Rows), a.Rows == nil, len(b.Rows), b.Rows == nil)
	}
	for i := range a.Rows {
		if d := rowDiff(a.Rows[i], b.Rows[i]); d != "" {
			return fmt.Sprintf("row %d: %s", i, d)
		}
	}
	return ""
}

func rowDiff(a, b assignRow) string {
	if (a.Features == nil) != (b.Features == nil) || len(a.Features) != len(b.Features) {
		return fmt.Sprintf("features %v vs %v", a.Features, b.Features)
	}
	for j := range a.Features {
		if math.Float64bits(a.Features[j]) != math.Float64bits(b.Features[j]) {
			return fmt.Sprintf("feature %d: %v vs %v", j, a.Features[j], b.Features[j])
		}
	}
	if (a.Sensitive == nil) != (b.Sensitive == nil) || !reflect.DeepEqual(a.Sensitive, b.Sensitive) {
		return fmt.Sprintf("sensitive %v vs %v", a.Sensitive, b.Sensitive)
	}
	return ""
}

// FuzzAssignWire is the differential check of the fast /v1/assign
// decoder: whenever parseAssign accepts a body, the strict
// encoding/json decode must accept it too and produce the identical
// request — float bits, maps, Raw/Model and single versus batch form.
// The seed corpus lives in testdata/fuzz/FuzzAssignWire.
func FuzzAssignWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		fast, ok := parseAssign(body)
		if !ok {
			return
		}
		var strict assignRequest
		if err := decodeStrict(body, &strict); err != nil {
			t.Fatalf("fast path accepted a body the strict decode rejects (%v): %q", err, body)
		}
		if d := requestDiff(fast, strict); d != "" {
			t.Fatalf("fast and strict decodes differ, %s: %q", d, body)
		}
	})
}

// TestParseAssignCoverage pins which bodies take the fast path: the
// canonical shapes clients send must, and everything else must fall
// back to the strict decode, which then accepts or rejects it exactly
// as before.
func TestParseAssignCoverage(t *testing.T) {
	fast := []string{
		`{"features":[0.1,-0.4,2]}`,
		`{"rows":[{"features":[1,2,3]},{"features":[4,5,6],"sensitive":{"gender":"f"}}],"raw":true}`,
		`{"model":"prod","raw":false,"features":[-0,5e-324,1E+2,-1.5e-3],"sensitive":{}}`,
		"\r\n\t{ \"rows\" : [ { \"sensitive\" : { \"a\" : \"b\" , \"a\" : \"c\" } , \"features\" : [ 1 ] } ] } \n",
		`{}`,
		`{"features":[1],"rows":[{"features":[2]}]}`,
	}
	for _, body := range fast {
		got, ok := parseAssign([]byte(body))
		if !ok {
			t.Errorf("canonical body fell back to the strict decode: %s", body)
			continue
		}
		var want assignRequest
		if err := decodeStrict([]byte(body), &want); err != nil {
			t.Fatalf("strict decode rejects %s: %v", body, err)
		}
		if d := requestDiff(got, want); d != "" {
			t.Errorf("%s: %s", body, d)
		}
	}

	// Outside the canonical grammar; accepted is what the strict decode
	// (and so the handler) makes of it.
	for body, accepted := range map[string]bool{
		`{"Features":[1,2,3],"RAW":true}`:                 true,
		`{"model":"pr\u006fd","features":[1]}`:            true,
		`{"model":"prød","features":[1]}`:                 true,
		`{"features":[1],"sensitive":{"g":"a\"b"}}`:       true,
		`{"features":null,"rows":[{"features":[1]}]}`:     true,
		`{"features":[1],"sensitive":null}`:               true,
		`{"features":[1],"features":[2]}`:                 true,
		`{"rows":[{"features":[1],"features":[2]}]}`:      true,
		`{"features":[]}`:                                 true,
		`{"rows":[{"features":[]}]}`:                      true,
		`{"rows":[{}]}`:                                   true,
		`{"rows":[]}`:                                     true,
		`{"features":[1e400]}`:                            false,
		`{"features":[01]}`:                               false,
		`{"features":[1.]}`:                               false,
		`{"features":[+1]}`:                               false,
		`{"features":[1],"bogus":true}`:                   false,
		`{"rows":[{"features":[1],"raw":true}]}`:          false,
		`{"features":[1,2,3]} }`:                          false,
		`{"features":[1,2,3]}]`:                           false,
		`{"features":[1,2,3]} {"x":1}`:                    false,
		`{"features":[1,2,3]`:                             false,
		``:                                                false,
		`[{"features":[1]}]`:                              false,
		"{\"model\":\"a\x01\",\"features\":[1]}":          false,
		`{"features":[1],"sensitive":{"g":1}}`:            false,
		`{"features":[1],"raw":"true"}`:                   false,
		`{"features":[1],"raw":truex}`:                    false,
		`{"rows":[{"features":[1]},],"raw":true}`:         false,
		`{"features":[1,2,3]}` + strings.Repeat(" ", 100): true, // whitespace is not trailing data
	} {
		if _, ok := parseAssign([]byte(body)); ok && !strings.HasSuffix(body, " ") {
			t.Errorf("non-canonical body took the fast path: %q", body)
		}
		_, err := decodeAssign([]byte(body))
		if (err == nil) != accepted {
			t.Errorf("decodeAssign(%q) error = %v, want accepted=%v", body, err, accepted)
		}
	}
}

// TestAssignResponseEncoding: the fast encoder's bytes equal
// json.Marshal(resp)+"\n" — what writeJSON emits — at the float
// format's edges and for model names json.Marshal must escape.
func TestAssignResponseEncoding(t *testing.T) {
	dists := []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 1e20, 1e21, math.MaxFloat64,
		9.999999999999999e-7, 1.5e-9, 0.1, 2.5, 123456789.125, 1e-300}
	for _, name := range []string{"prod", "", "a<b>&c", `q"uote\`, "prød", "tab\there", " "} {
		for _, n := range []int{0, 1, len(dists)} {
			resp := assignResponse{Model: name, Generation: n + 1, Assignments: make([]assignment, n)}
			clusters := make([]int, n)
			for i := range clusters {
				clusters[i] = i * 37
				resp.Assignments[i] = assignment{Cluster: clusters[i], Distance: dists[i]}
			}
			want, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			got, ok := appendAssignResponse(nil, name, n+1, clusters, dists[:n])
			if !ok || !bytes.Equal(got, want) {
				t.Errorf("model %q, %d rows:\n got %s\nwant %s", name, n, got, want)
			}
		}
	}
	for _, d := range []float64{math.Inf(1), math.NaN()} {
		if _, ok := appendAssignResponse(nil, "prod", 1, []int{0}, []float64{d}); ok {
			t.Errorf("distance %v encoded; json.Marshal rejects it", d)
		}
	}
}

// wireFixture is a registry-backed handler over a k-centroid model
// built directly from Adult-shaped rows (no training), with request
// bodies in the shape of the serve-bulk workload: pre-scaled rows,
// shortest 'g' floats.
type wireFixture struct {
	h    http.Handler
	reg  *serve.Registry
	rows [][]float64
}

func newWireFixture(tb testing.TB, k int) *wireFixture {
	tb.Helper()
	ds := testfix.Adult(1, 4096)
	m := &model.Model{Format: model.Format, Version: model.Version, Name: fmt.Sprintf("synth-k%d", k),
		K: k, Centroids: make([][]float64, k), Clusters: make([]model.ClusterProfile, k)}
	for c := range m.Centroids {
		m.Centroids[c] = append([]float64(nil), ds.Features[c*(ds.N()/k)]...)
	}
	ts := newTelemetryState()
	reg := serve.NewRegistry(serve.Options{TracerFor: ts.tracerFor})
	tb.Cleanup(reg.Close)
	if _, err := reg.Install("prod", "", m); err != nil {
		tb.Fatal(err)
	}
	ts.watch(reg)
	return &wireFixture{h: newHandler(reg, ts, handlerOptions{}), reg: reg, rows: ds.Features}
}

// body is a request for the first n fixture rows: the single form for
// one row, the batch form otherwise.
func (f *wireFixture) body(n int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"rows":[`)
	if n == 1 {
		b.Reset()
		b.WriteString(`{`)
	}
	for r, x := range f.rows[:n] {
		if r > 0 {
			b.WriteByte(',')
		}
		if n > 1 {
			b.WriteByte('{')
		}
		b.WriteString(`"features":[`)
		for j, v := range x {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte(']')
		if n > 1 {
			b.WriteByte('}')
		}
	}
	if n > 1 {
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return b.Bytes()
}

// replayBody is the body of a reusable POST /v1/assign, rewound each
// round, and discardWriter a ResponseWriter that keeps only the status
// — together they drive the handler with no per-call test allocations.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header { return d.h }

func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func (d *discardWriter) WriteHeader(status int) { d.status = status }

func newReplay(tb testing.TB, body []byte) (*http.Request, *replayBody, *discardWriter) {
	req, err := http.NewRequest(http.MethodPost, "/v1/assign", nil)
	if err != nil {
		tb.Fatal(err)
	}
	rb := &replayBody{}
	rb.Reset(body)
	req.Body, req.ContentLength = rb, int64(len(body))
	return req, rb, &discardWriter{h: http.Header{}}
}

// serveOnce replays body through the handler and fails on a non-200.
func (f *wireFixture) serveOnce(tb testing.TB, req *http.Request, rb *replayBody, w *discardWriter, body []byte) {
	rb.Reset(body)
	w.status = 0
	f.h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		tb.Fatalf("handler status %d", w.status)
	}
}

// TestHandlerAllocs pins the allocation budget of a whole /v1/assign
// request at batch 1024. The reflection decode it replaced made about
// 4,200 allocations per request, several per row; the wire path
// allocates per request, not per row.
func TestHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	f := newWireFixture(t, 150)
	body := f.body(1024)
	req, rb, w := newReplay(t, body)
	for i := 0; i < 4; i++ {
		f.serveOnce(t, req, rb, w, body)
	}
	allocs := testing.AllocsPerRun(20, func() { f.serveOnce(t, req, rb, w, body) })
	// Measured at 11; the rest is headroom.
	if allocs > 32 {
		t.Errorf("handler allocs/op at batch 1024 = %.0f, want <= 32", allocs)
	}
}

// TestParseAssignHostileSizes pins that parseAssign's up-front buffers
// are bounded by what a valid body of the same length could need, not
// by delimiter counts over bytes it has not yet checked: a 1 MiB body
// of bare braces or commas falls back after a few bytes and must not
// first allocate many times its own size.
func TestParseAssignHostileSizes(t *testing.T) {
	const size = 1 << 20
	for name, body := range map[string][]byte{
		"braces": append([]byte(`{"rows":[`), bytes.Repeat([]byte{'{'}, size)...),
		"commas": bytes.Repeat([]byte{','}, size),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, ok := parseAssign(body)
		runtime.ReadMemStats(&after)
		if ok {
			t.Fatalf("%s: parseAssign accepted a malformed body", name)
		}
		// A valid body of bare one-digit numbers needs 4 bytes of row
		// buffer per body byte; allow that plus slack.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 5*uint64(len(body)) {
			t.Errorf("%s: parseAssign allocated %d bytes for a %d-byte body, want <= 5x", name, grew, len(body))
		}
	}
}

// BenchmarkHTTP splits the in-process /v1/assign request into its
// layers — decode (body bytes to rows), assign (AssignBatch on decoded
// rows), encode (reply bytes) and the whole handler — at a k=150
// model, for 1-, 64- and 1024-row requests in the serve-bulk body
// shape.
func BenchmarkHTTP(b *testing.B) {
	f := newWireFixture(b, 150)
	e, err := f.reg.Get("prod")
	if err != nil {
		b.Fatal(err)
	}
	a := e.Assigner()
	for _, layer := range []string{"decode", "assign", "encode", "handler"} {
		for _, n := range []int{1, 64, 1024} {
			body := f.body(n)
			if _, ok := parseAssign(body); !ok {
				b.Fatalf("fixture body of %d rows is not canonical", n)
			}
			rows := f.rows[:n]
			clusters, dists, err := a.AssignBatch(rows, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("layer=%s/batch=%d", layer, n), func(b *testing.B) {
				var run func()
				switch layer {
				case "decode":
					run = func() {
						if _, err := decodeAssign(body); err != nil {
							b.Fatal(err)
						}
					}
				case "assign":
					run = func() {
						if _, _, err := a.AssignBatch(rows, nil); err != nil {
							b.Fatal(err)
						}
					}
				case "encode":
					var buf []byte
					run = func() { buf, _ = appendAssignResponse(buf[:0], "prod", 1, clusters, dists) }
				case "handler":
					req, rb, w := newReplay(b, body)
					run = func() { f.serveOnce(b, req, rb, w, body) }
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}
