package kmeans

import (
	"fmt"
	"math"
)

// RunWeighted clusters weighted points: the objective is
// Σ_i w_i·‖x_i − μ_{assign(i)}‖² and centroids are weighted means.
// It is the substrate for coreset-based clustering (internal/coreset),
// where each retained point stands for w_i original points. Weights
// must be positive and finite.
//
// RunWeighted is the same engine-driven Lloyd iteration as Run (one
// objective, lloyd, with the weights attached) — same initializers
// (k-means++ D² sampling scaled by mass), same convergence policies,
// same frozen-sweep parallelism — with weighted centroid updates. Two
// parity contracts pin the semantics:
//
//   - unit weights reproduce Run bit-for-bit (assignments, iteration
//     count and objective bits), because every w·x with w = 1 is an
//     IEEE-754 no-op and the RNG stream is consumed identically;
//   - integer weights with Config.InitCentroids fixed match running
//     Run on the explicitly duplicated dataset from the same centroids
//     (Lloyd's assign and update steps are oblivious to whether mass
//     arrives as one weighted row or w duplicate rows).
//
// Both are enforced by weighted_test.go.
func RunWeighted(features [][]float64, weights []float64, cfg Config) (*Result, error) {
	if err := validate(features, cfg); err != nil {
		return nil, err
	}
	if len(weights) != len(features) {
		return nil, fmt.Errorf("kmeans: %d weights for %d points", len(weights), len(features))
	}
	for i, w := range weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("kmeans: weight[%d] = %v must be positive and finite", i, w)
		}
	}
	return run(features, weights, cfg), nil
}
