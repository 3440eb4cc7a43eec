package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	fairclust "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// trainWorkload is one training CLI run from a CSV file to a saved
// artifact.
type trainWorkload struct {
	pre       int // generator rows before parity undersampling
	bin       string
	sensitive []string
	args      func(csv, out string) []string
	minRuns   int
	starts    int // fairserved starts on the artifact after each run, for setup_s
	stream    bool
}

func trainFull(e *env) *trainWorkload {
	w := &trainWorkload{
		pre: 100_000, bin: "fairkm", sensitive: adultSensitive,
		minRuns: 3, starts: 5,
	}
	w.args = func(csv, out string) []string {
		return []string{"-in", csv, "-features", adultFeatures, "-sensitive", strings.Join(w.sensitive, ","),
			"-k", "15", "-auto-lambda", "-save", out}
	}
	if e.smoke {
		w.pre, w.minRuns, w.starts = 6000, 1, 1
	}
	return w
}

// streamShards and streamMergeBudget are train-stream's sharding flags;
// the traced replay uses the same values.
const (
	streamShards      = 2
	streamMergeBudget = 8192
)

func trainStream(e *env) *trainWorkload {
	w := &trainWorkload{
		pre: 1_000_000, bin: "fairstream",
		sensitive: []string{"marital-status", "relationship", "race", "gender"},
		minRuns:   3, starts: 5, stream: true,
	}
	w.args = func(csv, out string) []string {
		return []string{"-in", csv, "-features", adultFeatures, "-sensitive", strings.Join(w.sensitive, ","),
			"-k", "15", "-auto-lambda", "-minmax", "-shards", fmt.Sprint(streamShards),
			"-merge-budget", fmt.Sprint(streamMergeBudget), "-save", out}
	}
	if e.smoke {
		w.pre, w.minRuns, w.starts = 20000, 1, 1
	}
	return w
}

func (w *trainWorkload) spec() dataset.CSVSpec {
	return dataset.CSVSpec{Features: strings.Split(adultFeatures, ","), CategoricalSensitive: w.sensitive}
}

func runTrain(e *env, w *trainWorkload) (*report, error) {
	in, err := genAdultCSV(filepath.Join(e.work, "train.csv"), e.dataSeed, w.pre)
	if err != nil {
		return nil, err
	}
	if e.trace {
		return traceTrain(e, w, in)
	}
	rep := newReport()
	artPath := filepath.Join(e.work, "model.json")
	var walls, cpus, rss, setups []float64
	var first []byte
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for rep.attempted < w.minRuns || time.Now().Before(deadline) {
		rep.attempted++
		r, err := runCLI(e, w.bin, w.args(in.path, artPath)...)
		if err == nil {
			err = sameArtifact(artPath, &first)
		}
		if err != nil {
			fmt.Println("error:", err)
			rep.fail(1, true)
			continue
		}
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		rss = append(rss, r.rssMB)
		if setups, err = deployTimes(e, []string{"-model", "prod=" + artPath}, artPath, w.starts, setups); err != nil {
			return nil, err
		}
		rep.attempted += w.starts
	}
	if first == nil {
		return nil, fmt.Errorf("no training run succeeded")
	}
	fmt.Printf("%d runs of %s on %d rows: CPU %v s, wall %v s, peak RSS %v MB; setup %v s\n", len(cpus), w.bin, in.rows, cpus, walls, rss, setups)

	m, err := model.Load(artPath)
	if err != nil {
		return nil, err
	}
	ev, err := evaluate(in.path, w.spec(), m)
	if err != nil {
		return nil, err
	}
	v := rep.values
	v["setup_s"] = quantile(setups, 0)
	// The least CPU time of the runs, not the median: the same job's CPU
	// time swings by half on a shared machine.
	cpu := quantile(cpus, 0)
	v["capacity_rows_per_s"] = float64(e.nproc) * float64(in.rows) / cpu
	v["ok_frac"] = 1 - float64(rep.failed)/float64(rep.attempted)
	v["train_rows_per_s"] = float64(in.rows) / cpu
	v["co"] = ev.Value.KMeansTerm / float64(ev.N)
	v["fairness_ae"] = meanAE(ev.Fairness)
	v["peak_rss_mb"] = quantile(rss, 0)
	return rep, nil
}

// sameArtifact decodes and validates a saved artifact and checks that,
// apart from its save timestamp, it is byte-identical to the first
// run's at the same seed (recorded into *first on the first call).
func sameArtifact(path string, first *[]byte) error {
	m, err := model.Load(path)
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	m.Provenance.CreatedAt = ""
	var b bytes.Buffer
	if err := m.Encode(&b); err != nil {
		return err
	}
	if *first == nil {
		*first = b.Bytes()
	} else if !bytes.Equal(b.Bytes(), *first) {
		return fmt.Errorf("artifact differs from the first run's at the same seed")
	}
	return nil
}

// deployTimes starts fairserved with args n times on the artifact at
// artPath, stopping each start, and appends each start's time from exec
// to the first 200 on /v1/assign to ts. Workloads start the server a
// few times after each training run, so that the least of a run's
// starts, setup_s, does not rest on one moment of a shared machine.
func deployTimes(e *env, args []string, artPath string, n int, ts []float64) ([]float64, error) {
	m, err := model.Load(artPath)
	if err != nil {
		return ts, err
	}
	probe := []byte(`{"features":[` + strings.TrimSuffix(strings.Repeat("0,", m.Dim()), ",") + `]}`)
	for i := 0; i < n; i++ {
		srv, d, err := startServer(e, args, probe)
		if err != nil {
			return ts, err
		}
		if err := srv.stop(); err != nil {
			return ts, err
		}
		ts = append(ts, d.Seconds())
	}
	return ts, nil
}

// evaluate grades an artifact over its whole training file with the
// repository's own evaluator: the K-Means term (CO) and per-attribute
// fairness of the artifact's nearest-centroid assignment.
func evaluate(path string, spec dataset.CSVSpec, m *model.Model) (*pipeline.Evaluation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src, err := dataset.NewCSVStream(f, spec, 0)
	if err != nil {
		return nil, err
	}
	return fairclust.EvaluateStreamModel(src, m)
}

func meanAE(reps []metrics.FairnessReport) float64 {
	for _, r := range reps {
		if r.Attribute == "mean" {
			return r.AE
		}
	}
	return math.NaN()
}

// traceTrain runs the CLI once, then replays its path in process with
// a span around every call into dataset, pipeline, core, metrics,
// model and serve, and checks the replay reproduces the CLI's
// objective bit for bit. The same replay runs once untraced before,
// for trace.overhead.
func traceTrain(e *env, w *trainWorkload, in *csvInput) (*report, error) {
	rep := newReport()
	artPath := filepath.Join(e.work, "model.json")
	rep.attempted++
	cli, err := runCLI(e, w.bin, w.args(in.path, artPath)...)
	if err != nil {
		return nil, err
	}
	art, err := model.Load(artPath)
	if err != nil {
		return nil, err
	}
	replay := func(tr *tracer, root int, v map[string]float64) (res *core.Result, ds *dataset.Dataset, weights []float64, scaling *model.Scaling, err error) {
		if w.stream {
			return replayStream(e, w, in, tr, root, v)
		}
		res, ds, scaling, err = replayFull(w, in, tr, root, v)
		return res, ds, nil, scaling, err
	}
	start := time.Now()
	if _, _, _, _, err := replay(nil, 0, map[string]float64{}); err != nil {
		return nil, err
	}
	untraced := time.Since(start)
	runtime.GC()

	tr := newTracer()
	v := rep.values
	root := tr.begin("bench.train", 0, 0)
	start = time.Now()
	res, ds, weights, scaling, err := replay(tr, root, v)
	if err != nil {
		return nil, err
	}
	v["trace.overhead"] = time.Since(start).Seconds() / untraced.Seconds()
	if math.Float64bits(res.Objective) != math.Float64bits(art.Provenance.Objective) {
		fmt.Printf("error: replayed objective %v, CLI artifact %v\n", res.Objective, art.Provenance.Objective)
		rep.fail(1, true)
	}
	var saved []byte
	d, err := tr.timed("model.Save", root, func(int) error {
		m, err := model.New(ds, weights, res, model.Provenance{Tool: w.bin, Seed: 1, Rows: in.rows})
		if err != nil {
			return err
		}
		m.Scaling = scaling
		p := filepath.Join(e.work, "replay.json")
		if err := model.Save(p, m); err != nil {
			return err
		}
		saved, err = os.ReadFile(p)
		return err
	})
	if err != nil {
		return nil, err
	}
	v["model.save_ms"] = ms(d.Seconds())
	v["model.artifact_bytes"] = float64(len(saved))
	var m *model.Model
	d, err = tr.timed("model.Decode", root, func(int) error {
		m, err = model.Decode(bytes.NewReader(saved))
		return err
	})
	if err != nil {
		return nil, err
	}
	v["model.decode_ms"] = ms(d.Seconds())
	reg := serve.NewRegistry(serve.Options{})
	d, err = tr.timed("serve.Install", root, func(int) error {
		_, err := reg.Install("prod", "", m)
		return err
	})
	reg.Close()
	if err != nil {
		return nil, err
	}
	v["serve.install_ms"] = ms(d.Seconds())
	total := tr.end(root)
	v["core.iterations"] = float64(res.Iterations)
	v["core.moves"] = float64(res.TotalMoves)
	v["core.ms_per_iter"] = v["core.solve_ms"] / float64(max(1, res.Iterations))
	v["core.move_yield"] = float64(res.TotalMoves) / float64(ds.N()*max(1, res.Iterations))

	self := map[string]float64{}
	for name, d := range tr.selfByName() {
		self[strings.SplitN(name, ".", 2)[0]] += d.Seconds()
	}
	if w.stream {
		// The ingest pass and FitSharded both stream the file; charge
		// the user's path once: parse and summarize from the ingest
		// pass, merge and solve from FitSharded, plus evaluate.
		self = map[string]float64{
			"dataset":  (v["dataset.minmax_ms"] + v["dataset.split_ms"] + v["dataset.parse_ms"] + v["dataset.ingest_parse_ms"]) / 1e3,
			"pipeline": (v["pipeline.summarize_ms"] + v["pipeline.merge_ms"] + v["pipeline.evaluate_ms"]) / 1e3,
			"core":     v["core.solve_ms"] / 1e3,
			"model":    (v["model.save_ms"] + v["model.decode_ms"]) / 1e3,
			"serve":    v["serve.install_ms"] / 1e3,
		}
		delete(v, "dataset.ingest_parse_ms")
	}
	delete(self, "bench")
	tot := 0.0
	for _, s := range self {
		tot += s
	}
	for _, layer := range []string{"dataset", "pipeline", "core", "metrics"} {
		v[layer+".self_share"] = self[layer] / tot
	}
	fmt.Printf("traced: CLI %.3fs, untraced replay %.3fs, traced replay and deploy %.3fs, %d spans; self time by layer (s): %v\n",
		cli.wall.Seconds(), untraced.Seconds(), total.Seconds(), len(tr.spans), self)
	return rep, tr.write(e.traceOut)
}

// replayFull is fairkm's path: ReadCSV → MinMaxNormalize → core.Run
// (a span per engine iteration) → the metrics report fairkm prints.
func replayFull(w *trainWorkload, in *csvInput, tr *tracer, root int, v map[string]float64) (*core.Result, *dataset.Dataset, *model.Scaling, error) {
	var ds *dataset.Dataset
	d, err := tr.timed("dataset.ReadCSV", root, func(int) error {
		f, err := os.Open(in.path)
		if err != nil {
			return err
		}
		defer f.Close()
		ds, err = dataset.ReadCSV(f, w.spec())
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	v["dataset.parse_ms"] = ms(d.Seconds())
	v["dataset.parse_mb_per_s"] = float64(in.bytes) / 1e6 / d.Seconds()
	var scaling *model.Scaling
	d, _ = tr.timed("dataset.MinMaxNormalize", root, func(int) error {
		mins, ranges := ds.MinMaxNormalize()
		scaling = &model.Scaling{Kind: "minmax", Mins: mins, Ranges: ranges}
		return nil
	})
	v["dataset.minmax_ms"] = ms(d.Seconds())
	res, d, err := solveTraced(tr, root, "core.Run", func(obs engine.Observer) (*core.Result, error) {
		return core.Run(ds, core.Config{K: 15, AutoLambda: true, Seed: 1, MaxIter: 30, Observer: obs})
	})
	if err != nil {
		return nil, nil, nil, err
	}
	v["core.solve_ms"] = ms(d.Seconds())
	d, _ = tr.timed("metrics.report", root, func(int) error {
		metrics.CO(ds.Features, res.Assign, 15)
		metrics.SilhouetteSampled(ds.Features, res.Assign, 15, 2000, 1)
		metrics.FairnessAll(ds, res.Assign, 15)
		return nil
	})
	v["metrics.report_ms"] = ms(d.Seconds())
	return res, ds, scaling, nil
}

// solveTraced runs a solve inside a span, with a child span per engine
// iteration built from the observer's elapsed times.
func solveTraced(tr *tracer, root int, name string, solve func(engine.Observer) (*core.Result, error)) (*core.Result, time.Duration, error) {
	id := tr.begin(name, root, 0)
	start := time.Now()
	prev := start
	res, err := solve(func(ev engine.IterEvent) {
		now := start.Add(ev.Elapsed)
		tr.add("core.iteration", id, prev, now)
		prev = now
	})
	return res, tr.end(id), err
}

// tracedSource records a span around every chunk a source yields and
// optionally min-max scales it, as fairstream's scaledSource does.
// parseDur sums the spans and lastEnd keeps the latest span end, both
// under mu (shard sources run on several goroutines).
type tracedSource struct {
	src      pipeline.Source
	tr       *tracer
	parent   int
	scaling  *model.Scaling
	mu       *sync.Mutex
	parseDur *time.Duration
	lastEnd  *time.Time
}

func (s *tracedSource) Next() (*dataset.Dataset, error) {
	id := s.tr.begin("dataset.Next", s.parent, 0)
	chunk, err := s.src.Next()
	if err == nil && s.scaling != nil {
		for _, row := range chunk.Features {
			s.scaling.Apply(row)
		}
	}
	d := s.tr.end(id)
	now := time.Now()
	s.mu.Lock()
	*s.parseDur += d
	if s.lastEnd != nil && now.After(*s.lastEnd) {
		*s.lastEnd = now
	}
	s.mu.Unlock()
	return chunk, err
}

// replayStream is fairstream's path: the min-max pass, SplitCSV, a
// per-shard ingest pass with CSVStream.Next and Summarizer.Add spans,
// pipeline.FitSharded, core.RunWeighted on the merged summary, and
// pipeline.Evaluate.
func replayStream(e *env, w *trainWorkload, in *csvInput, tr *tracer, root int, v map[string]float64) (*core.Result, *dataset.Dataset, []float64, *model.Scaling, error) {
	spec := w.spec()
	var scaling *model.Scaling
	d, err := tr.timed("dataset.minmax", root, func(int) error {
		var err error
		scaling, err = scanMinMax(in.path, spec)
		return err
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	v["dataset.minmax_ms"] = ms(d.Seconds())
	var split *dataset.CSVShards
	d, err = tr.timed("dataset.SplitCSV", root, func(int) error {
		var err error
		split, err = dataset.SplitCSV(in.path, streamShards)
		return err
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	v["dataset.split_ms"] = ms(d.Seconds())
	pcfg := pipeline.Config{K: 15, AutoLambda: true, CoresetSize: 64, Seed: 1, MaxIter: 30}

	// Ingest pass: each shard on its own goroutine, as FitSharded runs
	// them, timing parse and summarize separately.
	var mu sync.Mutex
	var parse, summarize time.Duration
	shardRows := make([]int, split.Shards())
	errs := make([]error, split.Shards())
	var wg sync.WaitGroup
	for i := 0; i < split.Shards(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = tr.timed("pipeline.shard", root, func(id int) error {
				stream, closer, err := split.Open(i, spec, 0)
				if err != nil {
					return err
				}
				defer closer.Close()
				src := &tracedSource{src: stream, tr: tr, parent: id, scaling: scaling, mu: &mu, parseDur: &parse}
				sum, err := pipeline.NewSummarizer(pcfg)
				if err != nil {
					return err
				}
				for {
					chunk, err := src.Next()
					if err == io.EOF {
						return nil
					}
					if err != nil {
						return err
					}
					shardRows[i] += chunk.N()
					a := tr.begin("pipeline.Summarizer.Add", id, 0)
					err = sum.Add(chunk)
					d := tr.end(a)
					mu.Lock()
					summarize += d
					mu.Unlock()
					if err != nil {
						return err
					}
				}
			})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, nil, err
		}
	}
	v["dataset.ingest_parse_ms"] = ms(parse.Seconds())
	v["pipeline.summarize_ms"] = ms(summarize.Seconds())
	maxRows, totRows := 0, 0
	for _, n := range shardRows {
		maxRows = max(maxRows, n)
		totRows += n
	}
	v["pipeline.shard_skew"] = float64(maxRows) * float64(len(shardRows)) / float64(totRows)

	var res *pipeline.Result
	var fitParse time.Duration
	var lastRead, fitEnd time.Time
	_, err = tr.timed("pipeline.FitSharded", root, func(id int) error {
		defer func() { fitEnd = time.Now() }()
		srcs := make([]pipeline.Source, split.Shards())
		for i := range srcs {
			stream, closer, err := split.Open(i, spec, 0)
			if err != nil {
				return err
			}
			defer closer.Close()
			srcs[i] = &tracedSource{src: stream, tr: tr, parent: id, scaling: scaling, mu: &mu, parseDur: &fitParse, lastEnd: &lastRead}
		}
		var err error
		res, err = pipeline.FitSharded(srcs, pipeline.ShardedConfig{Config: pcfg, MergeBudget: streamMergeBudget})
		return err
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	solve, solveDur, err := solveTraced(tr, root, "core.RunWeighted", func(obs engine.Observer) (*core.Result, error) {
		return core.RunWeighted(res.Summary, res.SummaryWeights, core.Config{K: 15, AutoLambda: true, Seed: 1, MaxIter: 30, Observer: obs})
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if math.Float64bits(solve.Objective) != math.Float64bits(res.Solve.Objective) {
		return nil, nil, nil, nil, fmt.Errorf("core.RunWeighted on the summary gave objective %v, FitSharded %v", solve.Objective, res.Solve.Objective)
	}
	v["core.solve_ms"] = ms(solveDur.Seconds())
	// Merge and solve run after the last shard has read its last chunk.
	v["pipeline.merge_ms"] = ms(max(0, (fitEnd.Sub(lastRead) - solveDur).Seconds()))
	v["pipeline.summary_rows"] = float64(res.Summary.N())
	v["pipeline.compression"] = float64(res.N) / float64(res.Summary.N())

	var evParse time.Duration
	evDur, err := tr.timed("pipeline.Evaluate", root, func(id int) error {
		f, err := os.Open(in.path)
		if err != nil {
			return err
		}
		defer f.Close()
		stream, err := dataset.NewCSVStream(f, spec, 0)
		if err != nil {
			return err
		}
		_, err = pipeline.Evaluate(&tracedSource{src: stream, tr: tr, parent: id, scaling: scaling, mu: &mu, parseDur: &evParse}, res.Solve.Centroids, res.Lambda)
		return err
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	v["dataset.parse_ms"] = ms(evParse.Seconds())
	v["dataset.parse_mb_per_s"] = float64(in.bytes) / 1e6 / evParse.Seconds()
	v["pipeline.evaluate_ms"] = ms((evDur - evParse).Seconds())
	return res.Solve, res.Summary, res.SummaryWeights, scaling, nil
}

// scanMinMax is fairstream's min-max pass over a CSV stream.
func scanMinMax(path string, spec dataset.CSVSpec) (*model.Scaling, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src, err := dataset.NewCSVStream(f, spec, 0)
	if err != nil {
		return nil, err
	}
	var mins, maxs []float64
	for {
		chunk, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if mins == nil {
			mins = append([]float64(nil), chunk.Features[0]...)
			maxs = append([]float64(nil), chunk.Features[0]...)
		}
		for _, row := range chunk.Features {
			for j, x := range row {
				mins[j] = math.Min(mins[j], x)
				maxs[j] = math.Max(maxs[j], x)
			}
		}
	}
	if mins == nil {
		return nil, fmt.Errorf("empty input")
	}
	ranges := make([]float64, len(mins))
	for j := range ranges {
		ranges[j] = maxs[j] - mins[j]
	}
	return &model.Scaling{Kind: "minmax", Mins: mins, Ranges: ranges}, nil
}
