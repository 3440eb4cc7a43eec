package metrics

import (
	"fmt"
	"math"
)

// MassTol bounds how far Σp and Σq may drift apart before Wasserstein1
// rejects the pair as comparing different masses. model.Validate
// applies the same bound to artifacts, so a valid artifact never
// reaches the panic.
const MassTol = 1e-9

// Wasserstein1 returns the 1-Wasserstein (earth mover's) distance
// between two measures over the same ordered finite domain, with unit
// ground distance between adjacent values:
//
//	W1(p, q) = Σ_i |CDF_p(i) − CDF_q(i)|
//
// This is the distance the AW/MW fairness measures use (Section 5.2.2,
// following Wang & Davidson's usage for multi-state protected
// variables). For binary attributes it reduces to |p_0 − q_0|.
//
// The transport formulation only makes sense when both inputs carry the
// same total mass: the summation stops at the second-to-last CDF term,
// whose omitted final value |Σp − Σq| vanishes exactly when the masses
// agree. The historical implementation skipped that check and silently
// underreported for mismatched masses; now inputs whose totals differ
// by more than 1e-9 panic. Equal-mass inputs need not be normalized —
// W1 then scales linearly with the common total, as for any measure.
// It panics on length mismatch, empty input, or a mass mismatch.
func Wasserstein1(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("metrics: Wasserstein1 length mismatch %d vs %d", len(p), len(q)))
	}
	if len(p) == 0 {
		panic("metrics: Wasserstein1 of empty distributions")
	}
	sp, sq := 0.0, 0.0
	for i := range p {
		sp += p[i]
		sq += q[i]
	}
	if math.Abs(sp-sq) > MassTol {
		panic(fmt.Sprintf("metrics: Wasserstein1 mass mismatch: Σp=%v vs Σq=%v", sp, sq))
	}
	cum := 0.0
	total := 0.0
	for i := 0; i < len(p)-1; i++ {
		cum += p[i] - q[i]
		if cum >= 0 {
			total += cum
		} else {
			total -= cum
		}
	}
	return total
}

// Euclidean returns the Euclidean distance between two probability
// vectors, the distance used by the AE/ME fairness measures.
func Euclidean(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("metrics: Euclidean length mismatch %d vs %d", len(p), len(q)))
	}
	s := 0.0
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return sqrt(s)
}
