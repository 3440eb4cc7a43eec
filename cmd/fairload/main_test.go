package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/model"
	"repro/internal/testfix"
)

// saveFixtureModel trains and saves a small artifact for the harness.
func saveFixtureModel(t *testing.T, dir string, seed int64) string {
	t.Helper()
	ds := testfix.Synth(seed, 200, 3, 1, 0)
	res, err := core.Run(ds, core.Config{K: 3, AutoLambda: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(ds, nil, res, model.Provenance{Tool: "test", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("m%d.json", seed))
	if err := model.Save(path, m); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestInProcessSmoke runs the whole CLI against an in-process registry:
// the CI smoke path for fairload.
func TestInProcessSmoke(t *testing.T) {
	dir := t.TempDir()
	path := saveFixtureModel(t, dir, 1)

	var buf bytes.Buffer
	err := runCtx(context.Background(), []string{
		"-artifact", "prod=" + path,
		"-rate", "2000", "-requests", "200", "-seed", "7",
		"-slo", "1s",
	}, &buf)
	if err != nil {
		t.Fatalf("fairload failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"workload:", "ok 200", "latency:", "MET"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestJSONReport checks the -json report round-trips and matches the
// human run's counts at the same seed.
func TestJSONReport(t *testing.T) {
	dir := t.TempDir()
	path := saveFixtureModel(t, dir, 2)

	var buf bytes.Buffer
	err := runCtx(context.Background(), []string{
		"-artifact", path, // bare path: name derived by the registry
		"-rate", "2000", "-requests", "100", "-seed", "9", "-json",
	}, &buf)
	if err != nil {
		t.Fatalf("fairload -json failed: %v\n%s", err, buf.String())
	}
	var rep load.Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, buf.String())
	}
	if rep.Sent != 100 || rep.OK != 100 {
		t.Errorf("report counts: %+v", rep)
	}
	if rep.Config.Seed != 9 || rep.Config.Dim != 3 {
		t.Errorf("report config: %+v (dim should be discovered from the artifact)", rep.Config)
	}
	if rep.Latency.Count != 100 {
		t.Errorf("latency histogram count %d", rep.Latency.Count)
	}
}

// TestDeterministicWorkload: the same seed produces the same workload
// fingerprint line across invocations.
func TestDeterministicWorkload(t *testing.T) {
	dir := t.TempDir()
	path := saveFixtureModel(t, dir, 3)

	fingerprint := func(seed string) string {
		var buf bytes.Buffer
		err := runCtx(context.Background(), []string{
			"-artifact", "prod=" + path, "-rate", "5000", "-requests", "50", "-seed", seed,
		}, &buf)
		if err != nil {
			t.Fatalf("fairload failed: %v\n%s", err, buf.String())
		}
		line, _, _ := strings.Cut(buf.String(), "\n")
		if !strings.Contains(line, "fingerprint") {
			t.Fatalf("no fingerprint line: %q", line)
		}
		return line
	}
	if fingerprint("42") != fingerprint("42") {
		t.Error("same seed, different fingerprints")
	}
	if fingerprint("42") == fingerprint("43") {
		t.Error("different seeds, same fingerprint")
	}
}

// TestCancelStopsPacer: canceling the context ends a long schedule
// early with unsent requests, not an error.
func TestCancelStopsPacer(t *testing.T) {
	dir := t.TempDir()
	path := saveFixtureModel(t, dir, 4)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	var buf bytes.Buffer
	err := runCtx(ctx, []string{
		"-artifact", "prod=" + path, "-rate", "50", "-requests", "10000", "-json",
	}, &buf)
	if err != nil {
		t.Fatalf("canceled run errored: %v", err)
	}
	var rep load.Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Unsent == 0 || rep.Sent+rep.Unsent != 10000 {
		t.Errorf("cancel accounting: sent %d unsent %d", rep.Sent, rep.Unsent)
	}
}

// TestValidationAudit pins the exit-code-2 contract: every bad
// invocation returns an error instead of panicking or running.
func TestValidationAudit(t *testing.T) {
	dir := t.TempDir()
	path := saveFixtureModel(t, dir, 5)
	art := "prod=" + path
	cases := map[string][]string{
		"no target":                 {},
		"both targets":              {"-url", "http://x", "-artifact", art},
		"unknown flag":              {"-artifact", art, "-zap"},
		"missing artifact":          {"-artifact", "no/such.json"},
		"zero rate":                 {"-artifact", art, "-rate", "0"},
		"negative requests":         {"-artifact", art, "-requests", "-5"},
		"bad zipf":                  {"-artifact", art, "-zipf", "0.5"},
		"negative timeout":          {"-artifact", art, "-timeout", "-1s"},
		"negative dim":              {"-artifact", art, "-dim", "-3"},
		"server flags in http mode": {"-url", "http://x", "-max-concurrent", "2"},
		"queue without concurrent":  {"-artifact", art, "-max-queue", "4"},
		"unreachable url":           {"-url", "http://127.0.0.1:1", "-requests", "1"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var buf bytes.Buffer
			if err := runCtx(ctx, args, &buf); err == nil {
				t.Errorf("fairload accepted a bad invocation: %v", args)
			}
		})
	}
}

// TestCPUProfile: -cpuprofile writes a non-empty pprof profile of the
// load run.
func TestCPUProfile(t *testing.T) {
	dir := t.TempDir()
	path := saveFixtureModel(t, dir, 2)
	profile := filepath.Join(dir, "cpu.prof")

	var buf bytes.Buffer
	err := runCtx(context.Background(), []string{
		"-artifact", "prod=" + path,
		"-rate", "2000", "-requests", "100", "-seed", "3",
		"-cpuprofile", profile,
	}, &buf)
	if err != nil {
		t.Fatalf("fairload failed: %v\n%s", err, buf.String())
	}
	if prof, err := os.ReadFile(profile); err != nil || len(prof) == 0 {
		t.Errorf("cpu profile: err=%v size=%d", err, len(prof))
	}
}
