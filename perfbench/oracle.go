package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/model"
	"repro/internal/stats"
)

// payload is one pre-encoded /v1/assign body and what it carries.
type payload struct {
	body []byte
	// rows are the feature vectors exactly as sent (raw or pre-scaled).
	rows [][]float64
	// pool indexes each row in the workload's row pool.
	pool []int
}

// oracle checks fairserved's answers against a reference
// nearest-centroid scan of the served artifacts (referenceNearest). Artifact i serves
// generations i+1, i+1+len(arts), …: the serve workloads alternate
// reloads between their artifacts in that order.
type oracle struct {
	arts   []*model.Model
	raw    bool
	expect [][][]answer // [artifact][payload][row]

	mu       []sync.Mutex // per payload
	verified [][][]byte   // per payload: response bodies already checked
	// nearTies counts rows whose reference winner differs from the
	// subtract-and-square scan's: centroids equidistant to within
	// rounding, where the two formulas may legitimately disagree.
	nearTies int
}

type answer struct {
	Cluster  int     `json:"cluster"`
	Distance float64 `json:"distance"`
}

type assignResponse struct {
	Model       string   `json:"model"`
	Generation  int      `json:"generation"`
	Assignments []answer `json:"assignments"`
}

// newOracle precomputes every payload's reference answers under every
// artifact. raw payloads are scaled with the artifact's scaling first,
// as the server does.
func newOracle(arts []*model.Model, payloads []*payload, raw bool) *oracle {
	o := &oracle{arts: arts, raw: raw, mu: make([]sync.Mutex, len(payloads)), verified: make([][][]byte, len(payloads))}
	x := make([]float64, 0, 16)
	for _, m := range arts {
		norms := stats.CentroidNorms(m.Centroids)
		per := make([][]answer, len(payloads))
		for pi, p := range payloads {
			ans := make([]answer, len(p.rows))
			for ri, row := range p.rows {
				x = append(x[:0], row...)
				if raw && m.Scaling != nil {
					m.Scaling.Apply(x)
				}
				c, d := referenceNearest(x, m.Centroids, norms)
				ans[ri] = answer{c, d}
				if sc, _ := stats.NearestCentroidScan(x, m.Centroids); sc != c {
					o.nearTies++
				}
			}
			per[pi] = ans
		}
		o.expect = append(o.expect, per)
	}
	return o
}

// referenceNearest is an unpruned scan in index order scoring each
// centroid in the fused form ‖x‖² − 2·x·c + ‖c‖², keeping the lowest
// index on ties and clamping the winning distance at zero. It is the
// scan serving's pruned CentroidIndex is specified to match bit for
// bit (see internal/stats/nearest.go); the subtract-and-square form
// differs from it by a few ulps.
func referenceNearest(x []float64, cents [][]float64, norms []float64) (int, float64) {
	xn := stats.Dot(x, x)
	best, bestD := 0, xn-2*stats.Dot(x, cents[0])+norms[0]
	for j := 1; j < len(cents); j++ {
		if d := xn - 2*stats.Dot(x, cents[j]) + norms[j]; d < bestD {
			best, bestD = j, d
		}
	}
	if bestD < 0 {
		bestD = 0
	}
	return best, bestD
}

// check verifies one 200 body for payload pi: the model name, a
// generation no later than maxGen, and every cluster id and distance
// bit against the reference for that generation's artifact. A body
// identical to one already verified passes without re-decoding.
func (o *oracle) check(pi int, body []byte, name string, maxGen int) error {
	o.mu[pi].Lock()
	defer o.mu[pi].Unlock()
	for _, v := range o.verified[pi] {
		if bytes.Equal(v, body) {
			return nil
		}
	}
	var resp assignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("payload %d: undecodable response: %v", pi, err)
	}
	if resp.Model != name {
		return fmt.Errorf("payload %d: answered by model %q, want %q", pi, resp.Model, name)
	}
	if resp.Generation < 1 || resp.Generation > maxGen {
		return fmt.Errorf("payload %d: generation %d outside [1,%d]", pi, resp.Generation, maxGen)
	}
	a := (resp.Generation - 1) % len(o.arts)
	if len(resp.Assignments) != len(o.expect[a][pi]) {
		return fmt.Errorf("payload %d: %d assignments for %d rows", pi, len(resp.Assignments), len(o.expect[a][pi]))
	}
	if i := o.mismatch(a, pi, resp.Assignments); i >= 0 {
		got, w := resp.Assignments[i], o.expect[a][pi][i]
		other := "no served artifact"
		for b := range o.arts {
			if b != a && o.mismatch(b, pi, resp.Assignments) < 0 {
				other = fmt.Sprintf("artifact %d", b)
			}
		}
		return fmt.Errorf("payload %d row %d (generation %d, artifact %d): got cluster %d distance %v, reference %d %v; the response matches %s",
			pi, i, resp.Generation, a, got.Cluster, got.Distance, w.Cluster, w.Distance, other)
	}
	o.verified[pi] = append(o.verified[pi], append([]byte(nil), body...))
	return nil
}

// mismatch is the first row where got differs from artifact a's
// reference answers for payload pi, or -1 when every row matches.
func (o *oracle) mismatch(a, pi int, got []answer) int {
	want := o.expect[a][pi]
	if len(got) != len(want) {
		return 0
	}
	for i, g := range got {
		if g.Cluster != want[i].Cluster || math.Float64bits(g.Distance) != math.Float64bits(want[i].Distance) {
			return i
		}
	}
	return -1
}

// poolAssign is artifact a's reference assignment of every pool row
// (what every verified response for it carried), for the quality
// metrics.
func (o *oracle) poolAssign(a int, payloads []*payload, poolRows int) []int {
	assign := make([]int, poolRows)
	for pi, p := range payloads {
		for ri, row := range p.pool {
			assign[row] = o.expect[a][pi][ri].Cluster
		}
	}
	return assign
}
