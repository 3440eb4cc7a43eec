GO ?= go

.PHONY: all build test vet lint fairvet-selfcheck race bench bench-smoke bench-check

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint is the full static gate: formatting, go vet, and the repo's own
# fairvet suite (determinism / atomic-field / context-flow / CLI-exit /
# float-equality contracts — see DESIGN.md "Statically enforced
# contracts"). A finding exits nonzero; suppress only with a justified
# `//fairvet:ignore <pass> -- <reason>` marker.
lint: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/fairvet ./...

# fairvet-selfcheck proves the linter still bites: the selfcheck
# fixture seeds one known violation per pass, and each pass is run
# alone against it — a pass that accepts the fixture, or fires without
# naming itself in the finding, has gone blind.
fairvet-selfcheck:
	@$(GO) build -o .fairvet-selfcheck-bin ./cmd/fairvet
	@status=0; \
	for p in nodeterminism atomicfield ctxflow cliexit floateq lockcheck errflow hotalloc; do \
		out=$$(./.fairvet-selfcheck-bin -passes $$p ./internal/analysis/testdata/src/selfcheck 2>&1); \
		if [ $$? -eq 0 ]; then \
			echo "pass $$p accepted the seeded-violation fixture; it has gone blind"; status=1; \
		elif ! echo "$$out" | grep -q "\[$$p\]"; then \
			echo "pass $$p failed the fixture without a [$$p] finding:"; echo "$$out"; status=1; \
		fi; \
	done; \
	rm -f .fairvet-selfcheck-bin; \
	if [ $$status -eq 0 ]; then echo "fairvet self-check ok: every pass still detects its seeded violation"; fi; \
	exit $$status

# race runs every concurrency-sensitive suite under the race detector —
# the single source of truth for what CI exercises with -race. The -run
# filters keep the expensive packages scoped to their concurrent paths.
# TestMetricsP99AgreesWithLoad compares two wall-clock p99s to within
# 1/32, and race instrumentation skews the client side past that in
# about one run in seven, so it runs without -race only (tier-1).
race:
	$(GO) test -race ./internal/engine ./internal/goldencase
	$(GO) test -race ./internal/core -run 'TestParallelSweep|TestAggregateKernelParity|TestEmptyClusterRepair'
	$(GO) test -race ./internal/kmeans ./internal/zgya
	$(GO) test -race ./internal/stats
	$(GO) test -race ./internal/kmeans -run 'TestPruned|TestPrune'
	$(GO) test -race ./internal/coreset ./internal/pipeline ./internal/dataset
	$(GO) test -race ./internal/core -run 'TestWeighted|TestEvaluateObjectiveWeighted|TestRunWeighted'
	$(GO) test -race ./internal/kmeans -run 'TestRunWeighted'
	$(GO) test -race ./internal/model ./internal/serve
	$(GO) test -race ./internal/load
	$(GO) test -race ./internal/serve -run 'TestAdmission|TestDeadline|TestGatedDeterminism|TestReloadFaultInjection'
	$(GO) test -race ./internal/telemetry
	$(GO) test -race ./internal/serve -run 'TestAssignBatchTraced|TestSnapshotDoesNotBlockRecording'
	$(GO) test -race ./internal/cli ./cmd/benchguard
	$(GO) test -race ./cmd/fairserved -skip 'TestMetricsP99AgreesWithLoad'

# bench records the sweep/kernel perf trajectory for this checkout as a
# raw `go test -bench -json` event stream, so future PRs can diff
# ns/op. BENCH_sweep.json is the frozen pre-engine baseline (PR 1);
# BENCH_engine.json is re-recorded by this target and must stay within
# 5% of it on BenchmarkSweep/BenchmarkBestMove. BENCH_stream.json
# records the summarize-then-solve pipeline against full-data FairKM
# (wall-clock, summary size and objective ratio on Adult-6500 and a
# synthetic n=10^5 stream). BENCH_serve.json records batch-assign
# serving throughput (BenchmarkServe: one 4096-row Adult-shaped request
# at k=15 scored inline, the kernel k-sweep and the single query), plus
# the BenchmarkServeTelemetry off/on pair — the same workload without
# and with span tracing — which bench-check compares against each other.
# BENCH_shard.json records sharded summarize-then-solve scaling
# (BenchmarkShard, S ∈ {1,2,4,8} on Adult-6500 + synth-1e5; obj-vs-s1
# must stay ≈1 — sharding buys wall-clock, not objective).
# BENCH_load.json records the open-loop rows/s-at-SLO trajectory
# (BenchmarkLoad, offered rates {500,2000,8000} req/s against an
# in-process admission-controlled registry; rows/s, accepted p99,
# shed fraction, SLO verdict per operating point).
# BENCH_http.json records the in-process /v1/assign request split into
# layers (BenchmarkHTTP, layer={decode,assign,encode,handler} ×
# batch={1,64,1024} at k=150; ns/op, allocs/op and rows/s).
# BENCH_kernels.json is the frozen PR 7 baseline for the pruned
# nearest-centroid kernels (BenchmarkLloyd kernel={pruned,full} and
# BenchmarkServe's kernel k-sweep, single query and the since-removed
# workers×batch grid); it is NOT re-recorded by this target —
# `make bench-check` diffs fresh recordings against it.
# Guarded recordings use -count 3: benchguard compares the minimum
# ns/op across counts (the repeatable floor), which is what keeps a
# ±5% bar meaningful on a shared box where CPU steal inflates single
# runs by 10%+.
bench:
	$(GO) test ./internal/core ./internal/kmeans -run '^$$' -bench 'BenchmarkSweep|BenchmarkBestMove|BenchmarkRunAdult|BenchmarkLloyd' -benchtime 1s -count 3 -json > BENCH_engine.json
	$(GO) test . -run '^$$' -bench 'BenchmarkStream' -benchtime 1x -count 3 -json > BENCH_stream.json
	$(GO) test . -run '^$$' -bench 'BenchmarkShard' -benchtime 1x -count 3 -json > BENCH_shard.json
	$(GO) test ./internal/serve -run '^$$' -bench 'BenchmarkServe' -benchtime 1s -count 3 -json > BENCH_serve.json
	$(GO) test ./internal/load -run '^$$' -bench 'BenchmarkLoad' -benchtime 1x -json > BENCH_load.json
	$(GO) test ./cmd/fairserved -run '^$$' -bench 'BenchmarkHTTP' -benchtime 1s -count 3 -json > BENCH_http.json
	$(GO) test ./internal/stats -run '^$$' -bench 'BenchmarkDot|BenchmarkSqDist|BenchmarkZipf|BenchmarkNearest' -benchtime 1s

# bench-check guards the recorded perf trajectory: after `make bench`,
# diff the fresh recordings against the frozen baselines (exit 2 on
# regression). BENCH_sweep.json froze the pre-engine sweep kernels
# (PR 1) and holds at ±5%; BENCH_kernels.json froze the pruned Lloyd +
# serving kernels (PR 7) and gets ±15%, because on the 1-CPU shared
# reference box the min-of-3 floor of the Lloyd/serve benchmarks still
# drifts ±10% between back-to-back no-op recordings (measured while
# freezing the baseline) — a genuine pruning regression (losing the
# 1.5–2× win at k=150) blows far past 15%, noise does not. The frozen
# BenchmarkServe/workers=1/batch=64 entry took the same inline path
# every request takes now, so it is the baseline of batch=4096; the
# frozen entries of the other (deleted) workers×batch settings are not
# compared.
bench-check:
	$(GO) run ./cmd/benchguard -baseline BENCH_sweep.json -current BENCH_engine.json -match 'BenchmarkSweep/|BenchmarkBestMove/' -tol 0.05
	$(GO) run ./cmd/benchguard -baseline BENCH_kernels.json -current BENCH_engine.json -match 'BenchmarkLloyd/' -tol 0.15
	$(GO) run ./cmd/benchguard -baseline BENCH_kernels.json -current BENCH_serve.json -match 'BenchmarkServe/(kernel=|single)' -tol 0.15
	$(GO) run ./cmd/benchguard -baseline BENCH_kernels.json -current BENCH_serve.json -match 'BenchmarkServe/workers=1/batch=64$$' -rename-from 'workers=1/batch=64' -rename-to 'batch=4096' -tol 0.15
	$(GO) run ./cmd/benchguard -baseline BENCH_serve.json -current BENCH_serve.json -match 'BenchmarkServeTelemetry/telemetry=off/' -rename-from 'telemetry=off' -rename-to 'telemetry=on' -tol 0.05

# bench-smoke just proves the benchmarks still compile and run (CI).
bench-smoke:
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkSweep' -benchtime 1x
	$(GO) test . -run '^$$' -bench 'BenchmarkStream/stream' -benchtime 1x
	$(GO) test . -run '^$$' -bench 'BenchmarkShard/shards=2/adult6500' -benchtime 1x
	$(GO) test ./internal/serve -run '^$$' -bench 'BenchmarkServe/batch=4096' -benchtime 1x
	$(GO) test ./internal/serve -run '^$$' -bench 'BenchmarkServe/kernel=' -benchtime 1x
	$(GO) test ./internal/serve -run '^$$' -bench 'BenchmarkServeTelemetry' -benchtime 1x
	$(GO) test ./internal/kmeans -run '^$$' -bench 'BenchmarkLloyd' -benchtime 1x
	$(GO) test ./internal/load -run '^$$' -bench 'BenchmarkLoad/rate=500' -benchtime 1x
	$(GO) test ./cmd/fairserved -run '^$$' -bench 'BenchmarkHTTP' -benchtime 1x
	$(GO) test ./internal/stats -run '^$$' -bench 'BenchmarkDot|BenchmarkSqDist|BenchmarkZipf|BenchmarkNearest' -benchtime 1x
