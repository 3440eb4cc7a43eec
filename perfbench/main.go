// Command perfbench is the repository benchmark. It runs the shipped
// binaries the way users run them — fairserved over loopback HTTP, and
// fairkm/fairstream from a CSV file to a saved model artifact — checks
// every output against a reference, and prints one JSON result line.
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	perfbench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
//	          [-data-seed N] [-traffic-seed N] [-smoke]
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run records spans around the
// benchmark's own calls into each module and reports per-layer
// metrics. RATIONALE.md explains each workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names and units; the package tests hold the two in
// step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported with
// tracing off on every workload (RATIONALE.md gives each workload's
// reading of them).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"capacity_rows_per_s", "rows/s"},
	{"ok_frac", "ratio"},
	{"train_rows_per_s", "rows/s"},
	{"co", "sse/row"},
	{"fairness_ae", "dist"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, named after the repository's
// modules. A layer a workload never calls reads 0.
var perLayer = []metricDef{
	{"fairserved.latency_p50_ms", "ms"},
	{"fairserved.latency_p99_ms", "ms"},
	{"fairserved.wire_share", "ratio"},
	{"fairserved.req_bytes", "bytes"},
	{"fairserved.resp_bytes", "bytes"},
	{"fairserved.status_200", "count"},
	{"fairserved.status_429", "count"},
	{"fairserved.status_503", "count"},
	{"fairserved.status_other", "count"},
	{"serve.admission_ms_p99", "ms"},
	{"serve.queue_ms_p99", "ms"},
	{"serve.score_ms_p50", "ms"},
	{"serve.score_ms_p99", "ms"},
	{"serve.score_share", "ratio"},
	{"serve.shed", "count"},
	{"serve.deadline", "count"},
	{"serve.inflight_max", "count"},
	{"serve.queue_depth_max", "count"},
	{"serve.assign_ns_per_row", "ns/row"},
	{"serve.install_ms", "ms"},
	{"serve.reload_ms_p50", "ms"},
	{"serve.drift_rows", "count"},
	{"stats.nearest_ns_per_row", "ns/row"},
	{"stats.index_speedup", "ratio"},
	{"model.decode_ms", "ms"},
	{"model.artifact_bytes", "bytes"},
	{"model.save_ms", "ms"},
	{"telemetry.scrape_ms_p50", "ms"},
	{"telemetry.scrape_bytes", "bytes"},
	{"dataset.parse_ms", "ms"},
	{"dataset.parse_mb_per_s", "MB/s"},
	{"dataset.split_ms", "ms"},
	{"dataset.minmax_ms", "ms"},
	{"dataset.self_share", "ratio"},
	{"pipeline.summarize_ms", "ms"},
	{"pipeline.merge_ms", "ms"},
	{"pipeline.evaluate_ms", "ms"},
	{"pipeline.summary_rows", "count"},
	{"pipeline.compression", "ratio"},
	{"pipeline.shard_skew", "ratio"},
	{"pipeline.self_share", "ratio"},
	{"core.solve_ms", "ms"},
	{"core.iterations", "count"},
	{"core.moves", "count"},
	{"core.ms_per_iter", "ms"},
	{"core.move_yield", "ratio"},
	{"core.self_share", "ratio"},
	{"metrics.report_ms", "ms"},
	{"metrics.self_share", "ratio"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"trace.overhead", "ratio"},
}

// env is one benchmark invocation's settings.
type env struct {
	bin, work   string
	dataSeed    int64
	trafficSeed int64
	seconds     float64
	trace       bool
	smoke       bool
	nproc       int
	traceOut    string
}

// report is what a workload hands back for printing.
type report struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
}

func newReport() *report { return &report{correct: true, values: map[string]float64{}} }

// fail records n failed operations, and marks the run incorrect when
// they were wrong answers rather than refusals.
func (r *report) fail(n int, wrong bool) {
	r.failed += n
	if wrong && n > 0 {
		r.correct = false
	}
}

type workload struct {
	name string
	run  func(*env) (*report, error)
	// fixedData keeps the dataset seed at 1 unless -data-seed is given:
	// the serve workloads train the served model on the same data for
	// every --seed, which then varies only the traffic.
	fixedData bool
}

var workloads = []workload{
	{"serve-small", func(e *env) (*report, error) { return runServe(e, serveSmall(e)) }, true},
	{"serve-bulk", func(e *env) (*report, error) { return runServe(e, serveBulk(e)) }, true},
	{"train-full", func(e *env) (*report, error) { return runTrain(e, trainFull(e)) }, false},
	{"train-stream", func(e *env) (*report, error) { return runTrain(e, trainStream(e)) }, false},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name        = fs.String("workload", "", "workload to run: serve-small, serve-bulk, train-full, train-stream")
		seed        = fs.Int64("seed", 1, "seed for every generated input")
		dataSeed    = fs.Int64("data-seed", -1, "seed for the generated training data (-1 = -seed; 1 for the serve workloads)")
		trafficSeed = fs.Int64("traffic-seed", -1, "seed for the held-out rows, payloads and request schedule (-1 = -seed)")
		seconds     = fs.Float64("seconds", 20, "measured seconds per run")
		trace       = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin         = fs.String("bin", ".bench_build/bin", "directory holding the built fairserved, fairkm and fairstream")
		work        = fs.String("work", ".bench_build/work", "directory for generated inputs and artifacts")
		smoke       = fs.Bool("smoke", false, "tiny inputs and phases, for the package tests")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown -workload %q", *name)
	}
	for _, b := range []string{"fairserved", "fairkm", "fairstream"} {
		if _, err := os.Stat(filepath.Join(*bin, b)); err != nil {
			return fmt.Errorf("program under test: %w", err)
		}
	}
	defaultData := *seed
	if w.fixedData {
		defaultData = 1
	}
	e := &env{
		bin:         absPath(*bin),
		dataSeed:    pick(*dataSeed, defaultData),
		trafficSeed: pick(*trafficSeed, *seed),
		seconds:     *seconds,
		trace:       *trace == 1,
		smoke:       *smoke,
		nproc:       runtime.NumCPU(),
	}
	runDir := fmt.Sprintf("%s-%d-%d", w.name, e.trafficSeed, os.Getpid())
	e.work = filepath.Join(absPath(*work), runDir)
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(e.work)
	if e.trace {
		e.traceOut = filepath.Join(absPath(*work), "..", "traces", runDir+".jsonl")
	}

	start := time.Now()
	rep, err := w.run(e)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s finished in %.1fs (nproc=%d)\n", w.name, time.Since(start).Seconds(), e.nproc)
	return printResult(rep, e.trace)
}

func pick(v, def int64) int64 {
	if v < 0 {
		return def
	}
	return v
}

func absPath(p string) string {
	a, err := filepath.Abs(p)
	if err != nil {
		return p
	}
	return a
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// printResult prints every metric of the run's kind, one per line, then
// the JSON result as the last line of standard output.
func printResult(rep *report, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultLine{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && !traced {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("  %-28s %16s %s\n", d.name, strconv.FormatFloat(v, 'g', 8, 64), d.unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
