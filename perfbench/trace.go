package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a module. Spans of
// one request share Req; Parent is the enclosing span's ID (0 = root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// add records a span whose times were measured elsewhere, such as a
// solver iteration reported by an engine.Observer.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int, f func(id int) error) (time.Duration, error) {
	id := t.begin(name, parent, 0)
	err := f(id)
	return t.end(id), err
}

// selfByName sums each span name's self time: its duration minus the
// part of it that its child spans cover.
func (t *tracer) selfByName() map[string]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(children[s.ID], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo,hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var tot, cur int64 = 0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			tot += b - a
			cur = b
		}
	}
	return tot
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// promSnap is one /metrics scrape: series (name plus labels, as
// exposed) to value.
type promSnap map[string]float64

func parseProm(b []byte) promSnap {
	s := promSnap{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s[line[:i]] = v
		}
	}
	return s
}

// sumPrefix totals every series whose name and labels start with prefix.
func (s promSnap) sumPrefix(prefix string) float64 {
	t := 0.0
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// histQuantile estimates the q-quantile of the observations a
// histogram gained between two scrapes, as the upper bound of the
// bucket holding it. series is the bucket series up to its le label,
// e.g. `x_bucket{model="m",stage="score",`.
func histQuantile(before, after promSnap, series string, q float64) float64 {
	type bucket struct{ le, n float64 }
	read := func(s promSnap) []bucket {
		var bs []bucket
		for k, v := range s {
			if !strings.HasPrefix(k, series+`le="`) {
				continue
			}
			le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(series)+4:], `"}`), 64)
			if err == nil {
				bs = append(bs, bucket{le, v})
			}
		}
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		return bs
	}
	cum := func(bs []bucket, le float64) float64 { // cumulative count at le
		n := 0.0
		for _, b := range bs {
			if b.le > le {
				break
			}
			n = b.n
		}
		return n
	}
	b0, b1 := read(before), read(after)
	if len(b1) == 0 {
		return 0
	}
	total := cum(b1, math.Inf(1)) - cum(b0, math.Inf(1))
	if total <= 0 {
		return 0
	}
	lastFinite := 0.0
	for _, b := range b1 {
		if math.IsInf(b.le, 1) {
			return lastFinite
		}
		lastFinite = b.le
		if cum(b1, b.le)-cum(b0, b.le) >= q*total {
			return b.le
		}
	}
	return lastFinite
}
