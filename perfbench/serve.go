package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/stats"
)

// serveWorkload is fairserved under one traffic mix.
type serveWorkload struct {
	// trainPre is the training set size before the generator's income
	// parity undersampling (about half survives); poolPre likewise for
	// the held-out rows requests are drawn from.
	trainPre, poolPre int
	// trainer and trainArgs produce each served artifact; artifact i
	// trains with seed i+1.
	trainer   string
	trainArgs func(csv, out string, seed int64) []string
	artifacts int
	// payloads are pre-encoded bodies; batch draws each one's rows.
	payloads int
	batch    func(*rand.Rand) int
	// raw requests carry raw features plus every sensitive value and
	// ask the server to scale; otherwise rows are pre-scaled features.
	raw        bool
	serverArgs []string
	// nominal is the fixed offered rate in requests/s, about half of
	// what one connection per CPU sustains on a 2-vCPU machine.
	nominal float64
	// lagLimit is the generator lag p99 beyond which a run is invalid.
	lagLimit time.Duration
	ctl      control // control plane during traffic
	starts   int     // server starts after each training run, for setup_s
}

// trainRuns is how many times a serve workload trains its first
// artifact.
const trainRuns = 5

var admission = []string{"-max-concurrent", "2", "-max-queue", "64", "-queue-budget", "25ms", "-request-timeout", "2s"}

func serveSmall(e *env) *serveWorkload {
	w := &serveWorkload{
		trainPre: 33_000, poolPre: 12_000,
		trainer: "fairkm",
		trainArgs: func(csv, out string, seed int64) []string {
			return []string{"-in", csv, "-features", adultFeatures, "-sensitive", strings.Join(adultSensitive, ","),
				"-k", "15", "-auto-lambda", "-seed", strconv.FormatInt(seed, 10), "-save", out}
		},
		artifacts:  2,
		payloads:   2048,
		batch:      newZipfBatch(16, 2).draw,
		raw:        true,
		serverArgs: admission,
		nominal:    4800,
		lagLimit:   5 * time.Millisecond,
		ctl:        control{scrapeEvery: time.Second, reloadEvery: 5 * time.Second},
		starts:     6,
	}
	if e.smoke {
		w.trainPre, w.poolPre, w.payloads, w.starts = 4000, 2000, 64, 1
		w.ctl.reloadEvery = time.Second
	}
	return w
}

func serveBulk(e *env) *serveWorkload {
	w := &serveWorkload{
		trainPre: 200_000, poolPre: 70_000,
		trainer: "fairstream",
		trainArgs: func(csv, out string, seed int64) []string {
			return []string{"-in", csv, "-features", adultFeatures, "-sensitive", "marital-status,relationship,race,gender",
				"-k", "150", "-m", "64", "-auto-lambda", "-minmax", "-shards", "2", "-merge-budget", "8192",
				"-seed", strconv.FormatInt(seed, 10), "-save", out}
		},
		artifacts:  1,
		payloads:   32,
		batch:      func(*rand.Rand) int { return 1024 },
		serverArgs: admission,
		nominal:    47,
		lagLimit:   25 * time.Millisecond,
		starts:     6,
	}
	if e.smoke {
		w.trainPre, w.poolPre, w.payloads, w.starts = 8000, 4000, 4, 1
		w.batch = func(*rand.Rand) int { return 256 }
	}
	return w
}

// serveSetup is everything a serve run needs before traffic starts.
type serveSetup struct {
	artPaths  []string
	arts      []*model.Model
	trainCPU  []float64
	trainRows int
	setups    []float64 // exec → first 200 of each server start, seconds
	payloads  []*payload
	pool      *dataset.Dataset // rows the payloads carry, in pool order
	oracle    *oracle
	serverArg []string
}

func prepareServe(e *env, w *serveWorkload) (*serveSetup, error) {
	in, err := genAdultCSV(filepath.Join(e.work, "train.csv"), e.dataSeed, w.trainPre)
	if err != nil {
		return nil, err
	}
	s := &serveSetup{trainRows: in.rows}
	s.serverArg = append([]string{"-model", "prod=" + filepath.Join(e.work, "model0.json")}, w.serverArgs...)
	for a := 0; a < w.artifacts; a++ {
		path := filepath.Join(e.work, fmt.Sprintf("model%d.json", a))
		// The first artifact is trained trainRuns times: the run with
		// the least CPU time gives train_rows_per_s (wall time of a
		// one-second job on a shared machine swings by a fifth), every
		// rerun must reproduce the artifact, and the server starts on
		// it after each run, for setup_s.
		var first []byte
		runs := 1
		if a == 0 {
			runs = trainRuns
		}
		for run := 0; run < runs; run++ {
			r, err := runCLI(e, w.trainer, w.trainArgs(in.path, path, int64(a+1))...)
			if err != nil {
				return nil, err
			}
			if err := sameArtifact(path, &first); err != nil {
				return nil, err
			}
			if a == 0 {
				s.trainCPU = append(s.trainCPU, r.cpu.Seconds())
				if s.setups, err = deployTimes(e, s.serverArg, path, w.starts, s.setups); err != nil {
					return nil, err
				}
			}
		}
		m, err := model.Load(path)
		if err != nil {
			return nil, fmt.Errorf("trained artifact: %w", err)
		}
		s.artPaths = append(s.artPaths, path)
		s.arts = append(s.arts, m)
	}
	held, err := heldOut(e.trafficSeed, w.poolPre)
	if err != nil {
		return nil, err
	}
	s.payloads, s.pool = buildPayloads(e.trafficSeed, w, held, s.arts[0])
	fp := newFingerprint()
	for _, p := range s.payloads {
		fp.add(p.body)
	}
	fmt.Printf("payloads: %d bodies, %d rows, sha256 %s\n", len(s.payloads), s.pool.N(), fp)
	s.oracle = newOracle(s.arts, s.payloads, w.raw)
	if s.oracle.nearTies > 0 {
		fmt.Printf("oracle: %d rows are near-ties where the fused and subtract-and-square scans pick different clusters\n", s.oracle.nearTies)
	}
	return s, nil
}

// buildPayloads draws the payload pool from the held-out rows, taking
// rows in order so every pool row is sent by exactly one payload.
// Pre-scaled workloads scale with the first artifact's scaling.
func buildPayloads(seed int64, w *serveWorkload, held *dataset.Dataset, art *model.Model) ([]*payload, *dataset.Dataset) {
	rng := rand.New(rand.NewSource(seed))
	var out []*payload
	var idx []int
	next := 0
	for p := 0; p < w.payloads; p++ {
		n := w.batch(rng)
		pl := &payload{}
		var b bytes.Buffer
		single := w.raw && n == 1
		if single {
			b.WriteString(`{"raw":true,`)
		} else {
			b.WriteString(`{"rows":[`)
		}
		for r := 0; r < n; r++ {
			i := next % held.N()
			next++
			x := append([]float64(nil), held.Features[i]...)
			if !w.raw && art.Scaling != nil {
				art.Scaling.Apply(x)
			}
			if r > 0 {
				b.WriteByte(',')
			}
			if !single {
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
			if w.raw {
				b.WriteString(`,"sensitive":{`)
				for a, attr := range held.Sensitive {
					if a > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, "%q:%q", attr.Name, attr.Values[attr.Codes[i]])
				}
				b.WriteByte('}')
			}
			if !single {
				b.WriteByte('}')
			}
			pl.rows = append(pl.rows, x)
			pl.pool = append(pl.pool, len(idx))
			idx = append(idx, i)
		}
		if single {
			b.WriteString(`}`)
		} else if w.raw {
			b.WriteString(`],"raw":true}`)
		} else {
			b.WriteString(`]}`)
		}
		pl.body = b.Bytes()
		out = append(out, pl)
	}
	return out, held.Subset(idx)
}

// quality scores the served assignment of the payload pool — the
// answers every verified response carried — with the paper's CO per
// row and mean AE over the pool's sensitive attributes.
func (s *serveSetup) quality() (co, ae float64) {
	m := s.arts[0]
	assign := s.oracle.poolAssign(0, s.payloads, s.pool.N())
	feats := make([][]float64, s.pool.N())
	for i, p := range s.payloads {
		for ri, row := range p.pool {
			feats[row] = append([]float64(nil), s.payloads[i].rows[ri]...)
			if s.oracle.raw && m.Scaling != nil {
				m.Scaling.Apply(feats[row])
			}
		}
	}
	co = metrics.CO(feats, assign, m.K) / float64(len(feats))
	for _, rep := range metrics.FairnessAll(s.pool, assign, m.K) {
		if rep.Attribute == "mean" {
			ae = rep.AE
		}
	}
	return co, ae
}

func (s *serveSetup) target(e *env, srv *server) *target {
	return &target{
		base: srv.base, model: "prod", payloads: s.payloads, oracle: s.oracle, conns: e.nproc,
		reloadBody: func(ord int) []byte {
			return []byte(fmt.Sprintf(`{"model":"prod","path":%q}`, s.artPaths[ord%len(s.artPaths)]))
		},
	}
}

func runServe(e *env, w *serveWorkload) (*report, error) {
	s, err := prepareServe(e, w)
	if err != nil {
		return nil, err
	}
	if e.trace {
		return traceServe(e, w, s)
	}
	rep := newReport()
	rep.attempted += len(s.setups)
	srv, _, err := startServer(e, s.serverArg, s.payloads[0].body)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	t := s.target(e, srv)
	dur := time.Duration(e.seconds * float64(time.Second))
	reloads := 0
	ph := schedule(e.trafficSeed, w.nominal, dur, len(s.payloads), w.ctl, &reloads)
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	t.run(ph, 0)
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	st := t.stats(ph)
	fmt.Printf("traffic: %.0f req/s offered for %v, %d ops, %d failed, growing backlog %v, lag p99 %.3fms; server CPU %.2fs for %d rows\n",
		w.nominal, dur, st.attempted, st.failed, st.growing, ms(st.lagP99), cpu1-cpu0, st.okRows)
	fmt.Printf("latency from due time: p50 %.3fms p99 %.3fms over %d samples; setup %v s\n",
		ms(quantile(st.lat, 0.5)), ms(quantile(st.lat, 0.99)), len(st.lat), s.setups)
	if st.lagP99 > w.lagLimit.Seconds() {
		return nil, fmt.Errorf("run invalid: the load generator fell behind its schedule (lag p99 %.2fms > %v)", ms(st.lagP99), w.lagLimit)
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	for _, msg := range t.errors {
		fmt.Println("error:", msg)
	}
	co, ae := s.quality()
	rep.attempted += st.attempted
	rep.fail(st.failed-st.wrong, false)
	rep.fail(st.wrong, true)
	v := rep.values
	v["setup_s"] = quantile(s.setups, 0)
	v["capacity_rows_per_s"] = float64(e.nproc) * float64(st.okRows) / (cpu1 - cpu0)
	v["ok_frac"] = 1 - float64(rep.failed)/float64(rep.attempted)
	v["train_rows_per_s"] = float64(s.trainRows) / quantile(s.trainCPU, 0)
	v["co"], v["fairness_ae"] = co, ae
	v["peak_rss_mb"] = rss
	return rep, nil
}

// traceServe is the traced serve run: half the time at the nominal rate
// untraced, half traced with client spans and /metrics diffs, then an
// in-process replay of the artifact through model, serve and stats.
// Both halves send the same schedule, control plane included, so that
// trace.overhead compares like with like.
func traceServe(e *env, w *serveWorkload, s *serveSetup) (*report, error) {
	rep := newReport()
	srv, _, err := startServer(e, s.serverArg, s.payloads[0].body)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	t := s.target(e, srv)
	half := time.Duration(e.seconds * float64(time.Second) / 2)
	reloads := 0
	phA := schedule(e.trafficSeed, w.nominal, half, len(s.payloads), w.ctl, &reloads)
	t.run(phA, 0)
	stA := t.stats(phA)

	tr := newTracer()
	t.tr = tr
	before, err := scrape(srv.base)
	if err != nil {
		return nil, err
	}
	var inflightMax, queueMax float64
	t.onScrape = func(b []byte) {
		p := parseProm(b)
		inflightMax = max(inflightMax, p[`fairserved_inflight{model="prod"}`])
		queueMax = max(queueMax, p[`fairserved_queue_depth{model="prod"}`])
	}
	phB := schedule(e.trafficSeed, w.nominal, half, len(s.payloads), w.ctl, &reloads)
	root := tr.begin("bench.phase", 0, 0)
	t.run(phB, root)
	tr.end(root)
	after, err := scrape(srv.base)
	if err != nil {
		return nil, err
	}
	stB := t.stats(phB)
	if err := srv.stop(); err != nil {
		return nil, err
	}
	for _, msg := range t.errors {
		fmt.Println("error:", msg)
	}
	rep.attempted = stA.attempted + stB.attempted
	rep.fail(stA.failed+stB.failed-stA.wrong-stB.wrong, false)
	rep.fail(stA.wrong+stB.wrong, true)

	v := rep.values
	var client float64
	for i, o := range phB.ops {
		if r := phB.res[i]; o.kind == opAssign && r.status == http.StatusOK {
			client += (r.done - r.sent).Seconds()
		}
	}
	stage := func(name string) float64 {
		k := `fairserved_request_stage_seconds_sum{model="prod",stage="` + name + `"}`
		return after[k] - before[k]
	}
	stageQ := func(name string, q float64) float64 {
		return ms(histQuantile(before, after, `fairserved_request_stage_seconds_bucket{model="prod",stage="`+name+`",`, q))
	}
	counter := func(k string) float64 { return after.sumPrefix(k) - before.sumPrefix(k) }
	if client > 0 {
		v["fairserved.wire_share"] = 1 - (stage("admission")+stage("queue")+stage("score"))/client
		v["serve.score_share"] = stage("score") / client
	}
	v["fairserved.req_bytes"] = mean(stB.reqB)
	v["fairserved.resp_bytes"] = mean(stB.respB)
	other := 0
	for code, n := range stB.status {
		switch code {
		case 200, 429, 503:
			v["fairserved.status_"+strconv.Itoa(code)] = float64(n)
		default:
			other += n
		}
	}
	v["fairserved.status_other"] = float64(other)
	v["serve.admission_ms_p99"] = stageQ("admission", 0.99)
	v["serve.queue_ms_p99"] = stageQ("queue", 0.99)
	v["serve.score_ms_p50"] = stageQ("score", 0.5)
	v["serve.score_ms_p99"] = stageQ("score", 0.99)
	v["serve.shed"] = counter(`fairserved_shed_total{`)
	v["serve.deadline"] = counter(`fairserved_deadline_total{`)
	v["serve.inflight_max"] = inflightMax
	v["serve.queue_depth_max"] = queueMax
	v["serve.drift_rows"] = counter(`fairserved_drift_observed_rows{`)
	v["serve.reload_ms_p50"] = ms(median(stB.ctlLat[opReload]))
	v["telemetry.scrape_ms_p50"] = ms(median(stB.ctlLat[opMetrics]))
	v["telemetry.scrape_bytes"] = median(stB.ctlLen[opMetrics])
	v["fairserved.latency_p50_ms"] = ms(quantile(stA.lat, 0.5))
	v["fairserved.latency_p99_ms"] = ms(quantile(stA.lat, 0.99))
	v["loadgen.lag_p99_ms"] = ms(stB.lagP99)
	v["loadgen.sent"] = float64(stB.attempted)
	if p50 := quantile(stA.lat, 0.5); p50 > 0 {
		v["trace.overhead"] = quantile(stB.lat, 0.5) / p50
	}
	wrong, err := replayServe(e, w, s, tr, v)
	if err != nil {
		return nil, err
	}
	rep.fail(wrong, true)
	fmt.Printf("traced: %d spans; client service %.3fs, server stages admission %.4fs queue %.4fs score %.4fs\n",
		len(tr.spans), client, stage("admission"), stage("queue"), stage("score"))
	return rep, tr.write(e.traceOut)
}

// replayServe runs the served artifact through the serving modules in
// process, each call inside a span: model.Decode, serve.Registry.Install,
// model.Save, Assigner.AssignBatch on the payload rows, and
// stats.CentroidIndex.Nearest against NearestCentroidScan. It returns
// how many replayed answers disagreed with the oracle.
func replayServe(e *env, w *serveWorkload, s *serveSetup, tr *tracer, v map[string]float64) (int, error) {
	raw, err := os.ReadFile(s.artPaths[0])
	if err != nil {
		return 0, err
	}
	v["model.artifact_bytes"] = float64(len(raw))
	var decode, install, save []float64
	var m *model.Model
	for i := 0; i < 5; i++ {
		d, err := tr.timed("model.Decode", 0, func(int) error {
			var err error
			m, err = model.Decode(bytes.NewReader(raw))
			return err
		})
		if err != nil {
			return 0, err
		}
		decode = append(decode, d.Seconds())
		reg := serve.NewRegistry(serve.Options{MaxConcurrent: 2, MaxQueue: 64, QueueBudget: 25 * time.Millisecond})
		d, err = tr.timed("serve.Install", 0, func(int) error {
			_, err := reg.Install("prod", s.artPaths[0], m)
			return err
		})
		reg.Close()
		if err != nil {
			return 0, err
		}
		install = append(install, d.Seconds())
		d, err = tr.timed("model.Save", 0, func(int) error {
			return model.Save(filepath.Join(e.work, "replay.json"), m)
		})
		if err != nil {
			return 0, err
		}
		save = append(save, d.Seconds())
	}
	v["model.decode_ms"] = ms(median(decode))
	v["serve.install_ms"] = ms(median(install))
	v["model.save_ms"] = ms(median(save))

	// Rows exactly as the server scores them.
	var rows [][][]float64
	var sens [][]map[string]string
	nrows := 0
	for _, p := range s.payloads {
		var rs [][]float64
		var ss []map[string]string
		for ri, x := range p.rows {
			x = append([]float64(nil), x...)
			if w.raw && m.Scaling != nil {
				m.Scaling.Apply(x)
			}
			rs = append(rs, x)
			if w.raw {
				row := p.pool[ri]
				mp := map[string]string{}
				for _, a := range s.pool.Sensitive {
					mp[a.Name] = a.Values[a.Codes[row]]
				}
				ss = append(ss, mp)
			}
		}
		rows, sens = append(rows, rs), append(sens, ss)
		nrows += len(rs)
	}
	reg := serve.NewRegistry(serve.Options{MaxConcurrent: 2, MaxQueue: 64, QueueBudget: 25 * time.Millisecond})
	defer reg.Close()
	entry, err := reg.Install("prod", s.artPaths[0], m)
	if err != nil {
		return 0, err
	}
	a := entry.Assigner()
	wrong := 0
	var assignNS, scored float64
	for pass := 0; pass == 0 || assignNS < 0.2e9; pass++ {
		for pi := range rows {
			id := tr.begin("serve.AssignBatch", 0, int64(pi))
			clusters, dists, err := a.AssignBatch(rows[pi], sens[pi])
			assignNS += float64(tr.end(id))
			if err != nil {
				return 0, err
			}
			scored += float64(len(rows[pi]))
			for ri := range clusters {
				want := s.oracle.expect[0][pi][ri]
				if clusters[ri] != want.Cluster || dists[ri] != want.Distance {
					wrong++
				}
			}
		}
	}
	v["serve.assign_ns_per_row"] = assignNS / scored

	ix := stats.NewCentroidIndex(m.Centroids)
	sc := ix.NewScratch()
	var ixNS, scanNS, probed float64
	for pass := 0; pass == 0 || ixNS+scanNS < 0.2e9; pass++ {
		probed += float64(nrows)
		id := tr.begin("stats.Nearest", 0, 0)
		for _, rs := range rows {
			for _, x := range rs {
				ix.Nearest(x, sc)
			}
		}
		ixNS += float64(tr.end(id))
		id = tr.begin("stats.NearestCentroidScan", 0, 0)
		for _, rs := range rows {
			for _, x := range rs {
				stats.NearestCentroidScan(x, m.Centroids)
			}
		}
		scanNS += float64(tr.end(id))
	}
	v["stats.nearest_ns_per_row"] = ixNS / probed
	v["stats.index_speedup"] = scanNS / ixNS
	return wrong, nil
}

func scrape(base string) (promSnap, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(b), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
