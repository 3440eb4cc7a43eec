// Command fairload is an open-loop load harness for fairserved: it
// fires assignment requests at a fixed arrival rate on a schedule
// computed up front from the seed, so a slow server cannot throttle
// the offered load (no coordinated omission). Batch sizes and model
// selection are Zipf-distributed; the report covers the full
// accepted-request latency distribution, per-second throughput, the
// shed/deadline/error breakdown, and SLO attainment (rows/s at
// p99 ≤ the -slo bound).
//
// Two targets:
//
//	fairload -url http://host:8080 -rate 500 -requests 5000
//	    drives a live fairserved over HTTP; the payload dimensionality
//	    is discovered via GET /v1/models unless -dim is given.
//
//	fairload -artifact prod=m.json -rate 500 -requests 5000
//	    loads the artifact(s) into an in-process registry and drives it
//	    directly — deterministic, no network in the measurement. The
//	    -max-concurrent/-max-queue/-queue-budget flags configure the
//	    in-process server exactly like fairserved.
//
// At a fixed -seed the schedule and payload bytes are identical across
// runs and machines (the report prints the workload fingerprint).
// -json emits the full report for dashboards; the default output is a
// human-readable summary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro/internal/cli"
	"repro/internal/load"
	"repro/internal/serve"
)

func main() { cli.Main("fairload", run) }

// repeatable collects repeated string flags.
type repeatable []string

func (r *repeatable) String() string { return strings.Join(*r, ",") }

func (r *repeatable) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func run(args []string, out io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runCtx(ctx, args, out)
}

// runCtx's named result lets the deferred close of the written CPU
// profile report a failed final flush instead of dropping it.
func runCtx(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("fairload", flag.ContinueOnError)
	fs.SetOutput(out)
	var artifacts, modelNames repeatable
	fs.Var(&artifacts, "artifact", "model artifact for in-process mode, as PATH or NAME=PATH (repeatable)")
	fs.Var(&modelNames, "model", "model name to target (repeatable; default: every loaded artifact, or the server's default model)")
	var (
		url       = fs.String("url", "", "fairserved base URL for HTTP mode (e.g. http://127.0.0.1:8080)")
		rate      = fs.Float64("rate", 500, "offered request arrival rate per second")
		requests  = fs.Int("requests", 1000, "total requests to schedule")
		seed      = fs.Int64("seed", 1, "workload seed: schedule and payloads are deterministic in it")
		dim       = fs.Int("dim", 0, "feature dimensionality (0 = discover from the target)")
		maxBatch  = fs.Int("max-batch", load.DefaultMaxBatch, "largest batch size; sizes are Zipf toward 1")
		zipfBatch = fs.Float64("zipf", load.DefaultZipfBatch, "Zipf exponent for batch sizes (>= 1)")
		zipfModel = fs.Float64("model-zipf", load.DefaultZipfModel, "Zipf exponent for model popularity (>= 1)")
		timeout   = fs.Duration("timeout", 0, "per-request client deadline (0 = none)")
		slo       = fs.Duration("slo", 0, "grade accepted-request p99 against this bound (0 = no SLO grading)")
		asJSON    = fs.Bool("json", false, "emit the full report as JSON instead of the summary")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")

		maxConc     = fs.Int("max-concurrent", 0, "in-process: max concurrent batches per model (0 = unlimited)")
		maxQueue    = fs.Int("max-queue", 0, "in-process: admission queue depth (requires -max-concurrent)")
		queueBudget = fs.Duration("queue-budget", 0, "in-process: shed when estimated queue wait exceeds this (requires -max-concurrent)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*url == "") == (len(artifacts) == 0) {
		fs.Usage()
		return fmt.Errorf("exactly one of -url (HTTP mode) or -artifact (in-process mode) is required")
	}
	if *url != "" && (*maxConc != 0 || *maxQueue != 0 || *queueBudget != 0) {
		return fmt.Errorf("-max-concurrent/-max-queue/-queue-budget configure the in-process server; they have no effect with -url")
	}
	if *maxConc == 0 && (*maxQueue != 0 || *queueBudget != 0) {
		return fmt.Errorf("-max-queue and -queue-budget require -max-concurrent > 0")
	}
	if *dim < 0 {
		return fmt.Errorf("-dim must be >= 0, got %d", *dim)
	}
	if *cpuProf != "" {
		f, cerr := os.Create(*cpuProf)
		if cerr != nil {
			return cerr
		}
		defer cli.CloseCapture(&err, f)
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cfg := load.Config{
		Rate:      *rate,
		Requests:  *requests,
		Seed:      *seed,
		Dim:       *dim,
		MaxBatch:  *maxBatch,
		ZipfBatch: *zipfBatch,
		Models:    modelNames,
		ZipfModel: *zipfModel,
		Timeout:   *timeout,
		SLO:       *slo,
	}

	var tgt load.Target
	if *url != "" {
		if cfg.Dim == 0 {
			name := ""
			if len(modelNames) == 1 {
				name = modelNames[0]
			}
			d, err := load.FetchDim(*url, name)
			if err != nil {
				return err
			}
			cfg.Dim = d
		}
		tgt = &load.HTTPTarget{BaseURL: *url}
	} else {
		reg := serve.NewRegistry(serve.Options{
			MaxConcurrent: *maxConc,
			MaxQueue:      *maxQueue,
			QueueBudget:   *queueBudget,
		})
		defer reg.Close()
		for _, spec := range artifacts {
			name, path := "", spec
			if i := strings.IndexByte(spec, '='); i >= 0 {
				name, path = spec[:i], spec[i+1:]
			}
			e, err := reg.Load(name, path)
			if err != nil {
				return err
			}
			if cfg.Dim == 0 {
				cfg.Dim = e.Model().Dim()
			} else if cfg.Dim != e.Model().Dim() && *dim == 0 {
				return fmt.Errorf("artifacts disagree on dimensionality (%d vs %d); pass -dim to pick one", cfg.Dim, e.Model().Dim())
			}
			if len(modelNames) == 0 {
				cfg.Models = append(cfg.Models, e.Name)
			}
		}
		tgt = &load.RegistryTarget{Registry: reg}
	}

	w, err := load.Build(cfg)
	if err != nil {
		return err
	}
	if !*asJSON {
		fmt.Fprintf(out, "workload:  %d requests, %d rows, fingerprint %s\n", len(w.Requests), w.TotalRows, w.Fingerprint()[:16])
	}

	rep := load.Run(ctx, w, tgt)
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	rep.Render(out)
	return nil
}
