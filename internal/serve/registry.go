package serve

//fairvet:deterministic snapshot/listing code: /v1/models and /metrics output order must not depend on map iteration (List sorts after collecting)

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/telemetry"
)

// Entry is one registered model: an immutable Assigner plus load
// metadata. Entries are themselves immutable — a reload installs a new
// Entry rather than mutating the old one, so a request that resolved an
// Entry keeps a consistent (model, stats) pair for its whole lifetime.
type Entry struct {
	// Name is the registry key.
	Name string
	// Path is where the artifact was loaded from ("" for in-memory
	// registrations); Reload re-reads it.
	Path string
	// LoadedAt is when this Entry was installed.
	LoadedAt time.Time
	// Generation increments on every swap of this name, starting at 1.
	Generation int

	assigner *Assigner
}

// Assigner returns the entry's immutable assigner.
func (e *Entry) Assigner() *Assigner { return e.assigner }

// Model returns the entry's immutable model.
func (e *Entry) Model() *model.Model { return e.assigner.Model() }

// Registry is a named set of served models with atomic hot-swap.
//
// The swap contract: Get returns a fully-constructed immutable Entry or
// nothing — never a partially-loaded model. Install loads and validates
// the incoming artifact completely before publishing it, then swaps the
// map binding under the write lock; requests already holding the old
// Entry finish on the old model, requests resolving the name afterwards
// get the new one. A failed load leaves the old Entry serving
// untouched.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	defName string
	opts    Options
}

// NewRegistry returns an empty registry; opts configure every Assigner
// it constructs.
func NewRegistry(opts Options) *Registry {
	return &Registry{entries: map[string]*Entry{}, opts: opts}
}

// Install registers (or hot-swaps) a model under name. The first
// installed model becomes the default. path records where Reload should
// re-read the artifact from; it may be empty for in-memory models.
func (r *Registry) Install(name, path string, m *model.Model) (*Entry, error) {
	if name == "" {
		name = m.Name
	}
	if name == "" {
		return nil, fmt.Errorf("serve: model has no name")
	}
	opts := r.opts
	if opts.TracerFor != nil {
		// Bind the tracer factory to the SERVING name (the registry
		// key), not the artifact's internal name: that is the identity
		// every other metric labels with, and it is stable across hot
		// reloads that swap in artifacts with different internal names.
		factory, served := opts.TracerFor, name
		opts.TracerFor = func(string) *telemetry.RequestTracer { return factory(served) }
	}
	a, err := NewAssigner(m, opts)
	if err != nil {
		return nil, err
	}
	//fairvet:ignore nodeterminism -- LoadedAt is operational provenance shown in /v1/models, never an input to scoring
	e := &Entry{Name: name, Path: path, LoadedAt: time.Now(), Generation: 1, assigner: a}

	r.mu.Lock()
	old := r.entries[name]
	if old != nil {
		e.Generation = old.Generation + 1
	}
	r.entries[name] = e
	if r.defName == "" {
		r.defName = name
	}
	r.mu.Unlock()
	return e, nil
}

// Load reads the artifact at path and installs it. An empty name keys
// the model by its artifact name (file base name as a fallback).
func (r *Registry) Load(name, path string) (*Entry, error) {
	m, err := model.Load(path)
	if err != nil {
		return nil, err
	}
	return r.Install(name, path, m)
}

// Reload re-reads an installed model's artifact from its recorded path
// (or a new path, when given) and hot-swaps it. The old model keeps
// serving until the new one is fully loaded and validated; on error the
// registry is unchanged.
func (r *Registry) Reload(name, path string) (*Entry, error) {
	r.mu.RLock()
	old := r.entries[name]
	r.mu.RUnlock()
	if old == nil {
		return nil, fmt.Errorf("serve: no model %q", name)
	}
	if path == "" {
		path = old.Path
	}
	if path == "" {
		return nil, fmt.Errorf("serve: model %q has no artifact path to reload from", name)
	}
	return r.Load(name, path)
}

// Get resolves a model name; the empty string means the default model.
func (r *Registry) Get(name string) (*Entry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		name = r.defName
	}
	e := r.entries[name]
	if e == nil {
		if len(r.entries) == 0 {
			return nil, fmt.Errorf("serve: no models registered")
		}
		return nil, fmt.Errorf("serve: no model %q", name)
	}
	return e, nil
}

// Default returns the default model's name ("" when empty).
func (r *Registry) Default() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.defName
}

// List snapshots all entries, sorted by name.
func (r *Registry) List() []*Entry {
	r.mu.RLock()
	out := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close drops every entry. Requests already holding an Entry finish
// on it; the registry itself resolves nothing afterwards.
func (r *Registry) Close() {
	r.mu.Lock()
	r.entries = map[string]*Entry{}
	r.defName = ""
	r.mu.Unlock()
}
