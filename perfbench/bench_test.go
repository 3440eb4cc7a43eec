package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data/adult"
	"repro/internal/model"
	"repro/internal/stats"
)

// binDir holds the programs under test and perfbench itself, built
// once by TestMain.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	build := func(pkgDir string, args ...string) error {
		cmd := exec.Command("go", append([]string{"build", "-o", dir + "/"}, args...)...)
		cmd.Dir = pkgDir
		out, err := cmd.CombinedOutput()
		if err != nil {
			return fmt.Errorf("go build %v: %v\n%s", args, err, out)
		}
		return nil
	}
	if err := build("..", "./cmd/fairserved", "./cmd/fairkm", "./cmd/fairstream"); err == nil {
		err = build(".", ".")
	} else {
		fmt.Fprintln(os.Stderr, err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) *benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

// TestTablesMatchBenchmarkJSON holds the code's workload and metric
// tables to BENCHMARK.json, name for name and unit for unit.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	f := readBenchFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricDef, names, units []string) {
		if len(got) != len(names) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(names), len(got))
		}
		for i, d := range got {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var n, u []string
	for _, m := range f.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range f.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", perLayer, n, u)
}

// TestSmoke runs every workload in seconds-long smoke mode, untraced
// and traced, and checks the result line carries every metric
// BENCHMARK.json names for that mode, each with its unit. The untraced
// runs use a seed no tuning run used.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the programs under test")
	}
	f := readBenchFile(t)
	for _, w := range workloads {
		for _, traced := range []int{0, 1} {
			w, traced := w, traced
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, traced), func(t *testing.T) {
				seed := "424242"
				if traced == 1 {
					seed = "1"
				}
				cmd := exec.Command(filepath.Join(binDir, "perfbench"), "-bin", binDir, "-work", t.TempDir(),
					"--workload", w.name, "--seed", seed, "--seconds", "2", "--trace", fmt.Sprint(traced), "-smoke")
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("perfbench: %v\n%s", err, out)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				want := map[string]string{}
				if traced == 1 {
					for _, m := range f.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range f.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
						continue
					}
					if got.Unit != unit {
						t.Errorf("metric %s unit %q, want %q", name, got.Unit, unit)
					}
					if traced == 0 && got.Value == 0 {
						t.Errorf("end-to-end metric %s reads 0", name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// fakeServer answers /v1/assign like fairserved, from the reference
// scan of m, with every cluster id shifted by shift.
func fakeServer(m *model.Model, shift int) *httptest.Server {
	norms := stats.CentroidNorms(m.Centroids)
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Rows []struct {
				Features []float64 `json:"features"`
			} `json:"rows"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := assignResponse{Model: "prod", Generation: 1}
		for _, row := range req.Rows {
			c, d := referenceNearest(row.Features, m.Centroids, norms)
			resp.Assignments = append(resp.Assignments, answer{Cluster: (c + shift) % m.K, Distance: d})
		}
		json.NewEncoder(w).Encode(resp)
	}))
}

// TestOracleCatchesOffByOne drives a fake target that answers every
// row with the next cluster over: the oracle must reject its answers,
// and must accept the same fake when it answers honestly.
func TestOracleCatchesOffByOne(t *testing.T) {
	ds, err := adult.Generate(adult.Config{Seed: 3, Rows: 3000})
	if err != nil {
		t.Fatal(err)
	}
	ds.MinMaxNormalize()
	res, err := core.Run(ds, core.Config{K: 5, AutoLambda: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(ds, nil, res, model.Provenance{Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}
	w := &serveWorkload{payloads: 16, batch: func(*rand.Rand) int { return 8 }}
	held, err := heldOut(3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	payloads, _ := buildPayloads(1, w, held, m)
	for _, shift := range []int{0, 1} {
		srv := fakeServer(m, shift)
		tg := &target{base: srv.URL, model: "prod", payloads: payloads, oracle: newOracle([]*model.Model{m}, payloads, false), conns: 2}
		ph := schedule(1, 200, 500*time.Millisecond, len(payloads), control{}, new(int))
		tg.run(ph, 0)
		srv.Close()
		st := tg.stats(ph)
		if shift == 0 && (st.wrong != 0 || st.failed != 0) {
			t.Errorf("honest fake: %d wrong, %d failed of %d: %v", st.wrong, st.failed, st.attempted, tg.errors)
		}
		if shift == 1 && (st.wrong != st.attempted || tg.wrong.Load() == 0) {
			t.Errorf("off-by-one fake: oracle rejected %d of %d answers", st.wrong, st.attempted)
		}
	}
}

// TestSelfTime checks a span's self time excludes its children's union.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "a.root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "b.child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b.child", Start: 30, End: 60},
	}}
	self := tr.selfByName()
	if self["a.root"] != 50 || self["b.child"] != 60 {
		t.Errorf("self times %v, want a.root 50 and b.child 60", self)
	}
}

// TestHistQuantile checks quantiles of the observations a sparse
// cumulative histogram gained between two scrapes.
func TestHistQuantile(t *testing.T) {
	s := `h_bucket{stage="x",`
	before := promSnap{s + `le="1"}`: 5, s + `le="+Inf"}`: 5}
	after := promSnap{s + `le="1"}`: 5, s + `le="2"}`: 14, s + `le="4"}`: 15, s + `le="+Inf"}`: 15}
	if got := histQuantile(before, after, s, 0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := histQuantile(before, after, s, 0.99); got != 4 {
		t.Errorf("p99 = %v, want 4", got)
	}
}
