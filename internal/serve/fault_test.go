package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/testfix"
)

// TestReloadFaultInjectionUnderTraffic extends the hot-swap hammer with
// corrupted-artifact faults: while clients hammer the registry, Reload
// is pointed at truncated, garbage, NaN-poisoned and semantically
// invalid artifact files. Every such reload must fail cleanly, leave
// the incumbent model serving with zero dropped in-flight requests, and
// leave the generation untouched; a good artifact afterwards still
// swaps in.
func TestReloadFaultInjectionUnderTraffic(t *testing.T) {
	dir := t.TempDir()
	ds := testfix.Synth(17, 300, 4, 1, 0)
	mA := trainModel(t, ds, 4, 300)
	mB := trainModel(t, ds, 4, 400)
	wantA := sequential(mA, ds.Features)
	wantB := sequential(mB, ds.Features)
	if reflect.DeepEqual(wantA, wantB) {
		t.Fatal("fixture models agree everywhere; fault test needs distinguishable models")
	}

	goodA := filepath.Join(dir, "a.json")
	goodB := filepath.Join(dir, "b.json")
	if err := model.Save(goodA, mA); err != nil {
		t.Fatal(err)
	}
	if err := model.Save(goodB, mB); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(goodA)
	if err != nil {
		t.Fatal(err)
	}

	// The fault menu: every file must fail model.Load, each through a
	// different layer (io/JSON/schema validation).
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	text := string(raw)
	if !strings.Contains(text, `"k": 4`) || !strings.Contains(text, `"lambda"`) {
		t.Fatalf("artifact shape changed; fault fixtures need updating:\n%.200s", text)
	}
	faults := map[string]string{
		"truncated": write("trunc.json", raw[:len(raw)/2]),
		"garbage":   write("garbage.json", []byte("{not json at all")),
		// NaN is not valid JSON, so a poisoned artifact dies in Decode.
		"nan-poisoned": write("nan.json", []byte(strings.Replace(text, `"lambda": `, `"lambda": NaN, "was": `, 1))),
		// Valid JSON, structurally broken: only Validate catches it.
		"semantic": write("semantic.json", []byte(strings.Replace(text, `"k": 4`, `"k": 0`, 1))),
		"empty":    write("empty.json", nil),
	}
	for name, p := range faults {
		if _, err := model.Load(p); err == nil {
			t.Fatalf("fault fixture %q unexpectedly loads", name)
		}
	}

	reg := NewRegistry(Options{})
	defer reg.Close()
	if _, err := reg.Load("prod", goodA); err != nil {
		t.Fatal(err)
	}

	// Hammer: clients must only ever see model A or model B labellings,
	// and no request may error while faulty reloads fly.
	var stop atomic.Bool
	var served, dropped, torn atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				e, err := reg.Get("prod")
				if err != nil {
					dropped.Add(1)
					continue
				}
				got, _, err := e.Assigner().AssignBatch(ds.Features, nil)
				if err != nil {
					dropped.Add(1)
					continue
				}
				switch {
				case reflect.DeepEqual(got, wantA), reflect.DeepEqual(got, wantB):
					served.Add(1)
				default:
					torn.Add(1)
				}
			}
		}()
	}

	for name, p := range faults {
		before := served.Load()
		for served.Load() < before+2 { // let traffic interleave the fault
			runtime.Gosched()
		}
		if _, err := reg.Reload("prod", p); err == nil {
			t.Errorf("reload of %s artifact succeeded", name)
		}
		e, err := reg.Get("prod")
		if err != nil {
			t.Fatalf("after %s reload: %v", name, err)
		}
		if e.Generation != 1 {
			t.Errorf("after %s reload generation = %d, want 1 (incumbent untouched)", name, e.Generation)
		}
		if got := e.Model().Provenance.Seed; got != mA.Provenance.Seed {
			t.Errorf("after %s reload serving seed %d, want incumbent %d", name, got, mA.Provenance.Seed)
		}
	}

	// A good artifact still swaps in after the fault storm.
	if _, err := reg.Reload("prod", goodB); err != nil {
		t.Fatalf("good reload after faults: %v", err)
	}
	for served.Load() < 16 {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()

	if d := dropped.Load(); d != 0 {
		t.Errorf("%d in-flight requests dropped during faulty reloads, want 0", d)
	}
	if tn := torn.Load(); tn != 0 {
		t.Errorf("%d torn responses during faulty reloads, want 0", tn)
	}
	e, err := reg.Get("prod")
	if err != nil {
		t.Fatal(err)
	}
	if e.Generation != 2 || e.Model().Provenance.Seed != mB.Provenance.Seed {
		t.Errorf("final entry gen=%d seed=%d, want gen 2 serving model B", e.Generation, e.Model().Provenance.Seed)
	}
	got, _, err := e.Assigner().AssignBatch(ds.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantB) {
		t.Error("post-swap labelling is not model B")
	}
}

// TestReloadRejectsMassMismatch: an artifact whose populated cluster
// carries a categorical distribution that no longer sums to the
// training mass must fail Reload with an error (it used to panic in
// the drift tracker's Wasserstein1), and the incumbent keeps serving.
func TestReloadRejectsMassMismatch(t *testing.T) {
	dir := t.TempDir()
	ds := testfix.Synth(19, 300, 4, 1, 0)
	m := trainModel(t, ds, 4, 500)
	good := filepath.Join(dir, "good.json")
	if err := model.Save(good, m); err != nil {
		t.Fatal(err)
	}
	bad, err := model.Load(good)
	if err != nil {
		t.Fatal(err)
	}
	// Take 0.005 off one entry of a populated cluster's distribution.
	ai := bad.CategoricalAttrs()[0]
	c := 0
	for bad.Clusters[c].Mass == 0 {
		c++
	}
	dist := bad.Clusters[c].Distributions[ai]
	v := 0
	for dist[v] < 0.005 {
		v++
	}
	dist[v] -= 0.005
	raw, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(Options{})
	defer reg.Close()
	if _, err := reg.Load("prod", good); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Reload("prod", badPath); err == nil {
		t.Fatal("reload of a mass-mismatched artifact succeeded")
	}
	e, err := reg.Get("prod")
	if err != nil {
		t.Fatal(err)
	}
	if e.Generation != 1 {
		t.Errorf("generation = %d after a failed reload, want 1", e.Generation)
	}
	got, _, err := e.Assigner().AssignBatch(ds.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sequential(m, ds.Features)) {
		t.Error("incumbent labels differently after the failed reload")
	}
}
