// Package kmeans implements classical K-Means clustering (Lloyd's
// algorithm) with k-means++ and random initialization.
//
// In this repository it plays two roles: it is the S-blind baseline
// "K-Means(N)" from the paper's evaluation (Section 5.3), and its
// initialization routines seed FairKM and ZGYA so all methods start from
// comparable configurations.
//
// Since the descent-engine refactor the package is a thin objective
// over internal/engine: Lloyd iteration is the engine's frozen sweep
// with one batch spanning the whole dataset (score every point against
// centroids frozen at the iteration start, apply all reassignments,
// recompute). Initialization, convergence policies (zero-moves, Tol,
// MaxIter, wall-clock budget), parallel scoring and the per-iteration
// observer hook all come from the engine and behave identically across
// FairKM, K-Means and ZGYA; see DESIGN.md.
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/stats"
)

// InitMethod selects how initial clusters are chosen. It is the
// engine's shared initializer selector; the constants re-export
// engine's so existing call sites keep working.
type InitMethod = engine.InitMethod

const (
	// KMeansPlusPlus picks initial centroids with the k-means++
	// D²-weighting scheme (Arthur & Vassilvitskii 2007). Zero value:
	// the default for every solver in this repository.
	KMeansPlusPlus = engine.KMeansPlusPlus
	// RandomPartition assigns every point to a uniformly random cluster
	// (with empty-cluster repair), matching "Initialize k clusters
	// randomly" in FairKM's Algorithm 1.
	RandomPartition = engine.RandomPartition
	// RandomPoints picks k distinct data points as initial centroids.
	RandomPoints = engine.RandomPoints
)

// Config parameterizes a K-Means run.
type Config struct {
	// K is the number of clusters; required, 1 <= K <= n.
	K int
	// MaxIter bounds Lloyd iterations. Zero means the default of 100.
	MaxIter int
	// Seed drives initialization.
	Seed int64
	// Init selects the initialization method.
	Init InitMethod
	// InitCentroids, when non-nil, overrides Init with explicit initial
	// centroids (length K); the Seed is then not consumed. Used for
	// warm starts (e.g. refining a streaming solve) and by the
	// weighted/duplicated parity tests, which need both runs to start
	// from the same configuration.
	InitCentroids [][]float64
	// Tol stops iteration when the objective improves by less than Tol
	// between iterations. Zero — the default — means exact convergence
	// (no change in assignments), the same policy FairKM and ZGYA
	// default to.
	Tol float64
	// Budget, when positive, stops the run at the first iteration
	// boundary after the wall-clock budget is spent.
	Budget time.Duration
	// Parallelism is the number of scoring workers per Lloyd
	// iteration: 0 or 1 scores sequentially, n > 1 uses n goroutines,
	// any negative value uses GOMAXPROCS. Because Lloyd scoring
	// against frozen centroids is pure, results are bit-identical for
	// every setting.
	Parallelism int
	// FullScan disables Hamerly triangle-inequality pruning: every row
	// is scored with the naive k-way centroid scan each iteration. The
	// pruned default is bit-identical to this path (assignments,
	// iteration counts and objective bits — pinned by prune_test.go);
	// the switch exists as the test/benchmark reference, not as a
	// correctness knob.
	FullScan bool
	// Observer, when non-nil, receives per-iteration statistics
	// (moves, objective, elapsed wall-clock).
	Observer engine.Observer
}

// DefaultMaxIter is used when Config.MaxIter is zero.
const DefaultMaxIter = 100

// Result is a completed clustering.
type Result struct {
	// Assign maps each row to its cluster in [0, K).
	Assign []int
	// Centroids holds the K cluster means over the feature space.
	// Empty clusters have zero-vector centroids.
	Centroids [][]float64
	// Sizes holds per-cluster cardinalities.
	Sizes []int
	// Objective is the final K-Means SSE (Eq. 24 in the paper).
	Objective float64
	// Iterations is the number of Lloyd iterations executed.
	Iterations int
	// Converged reports whether assignments stabilized (or the Tol
	// policy fired) before MaxIter.
	Converged bool
}

// K returns the number of clusters in the result.
func (r *Result) K() int { return len(r.Centroids) }

// lloyd is the K-Means objective for the descent engine: assignments
// plus centroids frozen at the iteration start, over rows of unit mass
// (weights nil, Run) or weighted rows (RunWeighted). Scoring is the
// classic nearest-frozen-centroid rule, which is mass-independent — a
// weighted row goes wherever its w duplicates would all go. Move only
// updates the assignment; centroids are re-derived from scratch on
// every Freeze, exactly like the textbook recompute step. Delta and
// Value carry each row's mass; with unit mass every w·x is an
// IEEE-754 no-op, so the two entry points share every bit of
// arithmetic.
type lloyd struct {
	features [][]float64
	weights  []float64 // nil → unit mass
	k        int
	assign   []int
	frozen   [][]float64
	prune    *pruner // nil → naive full scan every row
}

func (l *lloyd) N() int                   { return len(l.features) }
func (l *lloyd) K() int                   { return l.k }
func (l *lloyd) Current(i int) int        { return l.assign[i] }
func (l *lloyd) Move(i, from, to int)     { l.assign[i] = to }
func (l *lloyd) BestMove(i, from int) int { return l.nearest(i) }
func (l *lloyd) Delta(i, from, to int) float64 {
	x := l.features[i]
	d := stats.SqDist(x, l.frozen[to]) - stats.SqDist(x, l.frozen[from])
	if l.weights != nil {
		d *= l.weights[i]
	}
	return d
}

// Value is the (weighted) SSE against the frozen centroids — the
// quantity the Tol policy compares between iterations.
func (l *lloyd) Value() float64 { return WeightedSSE(l.features, l.weights, l.assign, l.frozen) }

// nearest applies the shared nearestCentroid rule against the frozen
// centroids, through the Hamerly pruner when one is attached (the
// pruned result is bit-identical; see prune.go; bounds are plain
// Euclidean distances, so weights never enter the decision).
func (l *lloyd) nearest(i int) int {
	if l.prune != nil {
		return l.prune.bestMove(i, l.assign[i], l.frozen)
	}
	return nearestCentroid(l.features[i], l.frozen)
}

// NewSnapshot: the frozen-centroid view IS the snapshot; Freeze
// recomputes it from the live assignment.
func (l *lloyd) NewSnapshot() engine.Snapshot { return (*lloydSnap)(l) }

type lloydSnap lloyd

func (s *lloydSnap) Freeze() {
	s.frozen = centroids(s.features, s.weights, s.assign, s.k)
	if s.prune != nil {
		s.prune.refresh(s.frozen, s.assign)
	}
}

func (s *lloydSnap) BestMove(i, from int) int { return (*lloyd)(s).nearest(i) }

// Run clusters the given feature rows. It returns an error for invalid
// configurations (K out of range, ragged or empty input).
func Run(features [][]float64, cfg Config) (*Result, error) {
	if err := validate(features, cfg); err != nil {
		return nil, err
	}
	return run(features, nil, cfg), nil
}

// validate checks the input shape and configuration shared by Run and
// RunWeighted.
func validate(features [][]float64, cfg Config) error {
	n := len(features)
	if n == 0 {
		return errors.New("kmeans: empty dataset")
	}
	dim := len(features[0])
	for i, row := range features {
		if len(row) != dim {
			return fmt.Errorf("kmeans: row %d has %d features, want %d", i, len(row), dim)
		}
	}
	if cfg.K < 1 || cfg.K > n {
		return fmt.Errorf("kmeans: K=%d out of range [1,%d]", cfg.K, n)
	}
	if cfg.InitCentroids == nil {
		return nil
	}
	if len(cfg.InitCentroids) != cfg.K {
		return fmt.Errorf("kmeans: %d initial centroids for K=%d", len(cfg.InitCentroids), cfg.K)
	}
	for c, cen := range cfg.InitCentroids {
		if len(cen) != dim {
			return fmt.Errorf("kmeans: initial centroid %d has %d features, want %d", c, len(cen), dim)
		}
	}
	return nil
}

// run is the engine-driven Lloyd iteration behind Run (weights nil)
// and RunWeighted, on validated input.
func run(features [][]float64, weights []float64, cfg Config) *Result {
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	workers := cfg.Parallelism
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	obj := &lloyd{
		features: features,
		weights:  weights,
		k:        cfg.K,
		assign:   initialAssign(features, weights, &cfg),
	}
	if !cfg.FullScan {
		obj.prune = newPruner(features)
	}

	er := engine.Solve(obj, engine.NewLloydSweep(obj, workers), engine.Config{
		MaxIter:  maxIter,
		Tol:      cfg.Tol,
		Budget:   cfg.Budget,
		Observer: cfg.Observer,
	})

	res := &Result{
		Assign:     obj.assign,
		Iterations: er.Iterations,
		Converged:  er.Converged,
	}
	res.Centroids = centroids(features, weights, obj.assign, cfg.K)
	res.Sizes = Sizes(obj.assign, cfg.K)
	res.Objective = WeightedSSE(features, weights, obj.assign, res.Centroids)
	return res
}

// PlusPlusCentroids returns k centroids chosen by the k-means++
// D²-sampling procedure (shared engine implementation).
func PlusPlusCentroids(features [][]float64, k int, rng *stats.RNG) [][]float64 {
	return engine.PlusPlusCentroids(features, k, rng)
}

// initialAssign produces the starting partition: nearest-centroid
// against the InitCentroids override when present, otherwise the
// engine's (mass-weighted) initializer.
func initialAssign(features [][]float64, weights []float64, cfg *Config) []int {
	if cfg.InitCentroids != nil {
		assign := make([]int, len(features))
		for i, x := range features {
			assign[i] = nearestCentroid(x, cfg.InitCentroids)
		}
		return assign
	}
	return engine.InitAssignmentWeighted(features, weights, cfg.K, cfg.Init, stats.NewRNG(cfg.Seed))
}

// nearestCentroid is the assignment rule of every Lloyd step: all K
// centroids are candidates (including zero-vector centroids of empty
// clusters), ties keep the lowest cluster index.
func nearestCentroid(x []float64, centroids [][]float64) int {
	best, bestD := 0, math.Inf(1)
	for c, cen := range centroids {
		if d := stats.SqDist(x, cen); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// centroids returns the per-cluster (weighted) feature means; weights
// nil means unit mass. Empty clusters get zero vectors. Unit mass is
// bit-identical to a plain sum and count: 1·v is exact, and the mass
// accumulates the same integer the row count would.
func centroids(features [][]float64, weights []float64, assign []int, k int) [][]float64 {
	dim := len(features[0])
	sums := make([][]float64, k)
	for c := range sums {
		sums[c] = make([]float64, dim)
	}
	mass := make([]float64, k)
	for i, x := range features {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		stats.AddScaledTo(sums[assign[i]], x, w)
		mass[assign[i]] += w
	}
	for c := range sums {
		if mass[c] > 0 {
			stats.Scale(sums[c], 1/mass[c])
		}
	}
	return sums
}

// Centroids exposes centroid computation for other packages (metrics,
// FairKM tests).
func Centroids(features [][]float64, assign []int, k int) [][]float64 {
	return centroids(features, nil, assign, k)
}

// SSE returns the K-Means objective: the summed squared distance of each
// point to its cluster centroid (Eq. 24).
func SSE(features [][]float64, assign []int, centroids [][]float64) float64 {
	return WeightedSSE(features, nil, assign, centroids)
}

// WeightedSSE returns the weighted K-Means objective
// Σ_i w_i·‖x_i − μ_{assign(i)}‖²; weights nil means unit mass (SSE).
func WeightedSSE(features [][]float64, weights []float64, assign []int, centroids [][]float64) float64 {
	s := 0.0
	for i, x := range features {
		d := stats.SqDist(x, centroids[assign[i]])
		if weights != nil {
			d *= weights[i]
		}
		s += d
	}
	return s
}

// Sizes returns per-cluster cardinalities for an assignment.
func Sizes(assign []int, k int) []int {
	sizes := make([]int, k)
	for _, c := range assign {
		sizes[c]++
	}
	return sizes
}
