package stats

import (
	"math"
	"testing"
)

// Regression: NaN scores must not poison rank aggregation. A NaN score
// historically received an arbitrary input-order-dependent rank, which
// then flowed NaN-free but wrong into MeanRanks; now NaN always takes
// the worst ranks.
func TestScoresToRanksNaNWorst(t *testing.T) {
	scores := []float64{0.9, math.NaN(), 0.5, math.NaN(), 0.7}
	ranks := ScoresToRanks(scores)
	for i, r := range ranks {
		if r != r {
			t.Fatalf("rank[%d] is NaN; ranks must always be defined", i)
		}
	}
	// Finite scores rank by importance: 0.9 → 1, 0.7 → 2, 0.5 → 3.
	if ranks[0] != 1 || ranks[4] != 2 || ranks[2] != 3 {
		t.Errorf("finite ranks = %v, want [1 _ 3 _ 2]", ranks)
	}
	// The two NaNs tie for the worst ranks (4 and 5 → 4.5 each).
	if ranks[1] != 4.5 || ranks[3] != 4.5 {
		t.Errorf("NaN ranks = %v, %v, want 4.5, 4.5", ranks[1], ranks[3])
	}
}

func TestRanksNaNOrdering(t *testing.T) {
	xs := []float64{math.NaN(), 2, math.Inf(1), 1, math.NaN()}
	ranks := Ranks(xs)
	want := []float64{4.5, 2, 3, 1, 4.5}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("Ranks(%v) = %v, want %v", xs, ranks, want)
		}
	}
}

func TestPearsonNonFiniteInput(t *testing.T) {
	xs := []float64{1, math.NaN(), 3, 4}
	ys := []float64{0, 1, 0, 1}
	if _, err := Pearson(xs, ys); err != ErrZeroVariance {
		t.Errorf("Pearson with NaN input: err = %v, want ErrZeroVariance", err)
	}
	if _, err := Pearson([]float64{math.Inf(1), 1, 2}, []float64{0, 1, 0}); err != ErrZeroVariance {
		t.Errorf("Pearson with Inf input: err = %v, want ErrZeroVariance", err)
	}
}
