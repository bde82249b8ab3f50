package forest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hist"
)

// histBlobs adds NaN holes and a low-cardinality counter column to the
// blobs data, so the binned path's missing bin and tied values are
// exercised.
func histBlobs(n int, seed int64) (cols [][]float64, y []int) {
	cols, y = blobs(n, 3, seed)
	rng := rand.New(rand.NewSource(seed + 100))
	counter := make([]float64, n)
	for i := range counter {
		counter[i] = float64(rng.Intn(5))
		if rng.Float64() < 0.05 {
			cols[1][i] = math.NaN()
		}
	}
	cols = append(cols, counter)
	return cols, y
}

// TestHistWorkerCountInvariance asserts the binned path is bit-identical
// at any worker count, exactly like the exact path: bootstraps and tree
// seeds are pre-drawn, and each worker only reads the shared binned
// matrix.
func TestHistWorkerCountInvariance(t *testing.T) {
	cols, y := histBlobs(300, 6)
	var ref []float64
	var refImp []float64
	for _, workers := range []int{1, 4, 8} {
		f, err := Fit(cols, y, Config{
			NumTrees: 12, MaxDepth: 6, Seed: 11, Workers: workers,
			SplitMethod: hist.SplitHist,
		})
		if err != nil {
			t.Fatal(err)
		}
		probs := predictAll(t, f, cols)
		imp, err := f.ImpurityImportance()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refImp = probs, imp
			continue
		}
		for i := range probs {
			if probs[i] != ref[i] {
				t.Fatalf("workers=%d: prob[%d] = %v, want %v", workers, i, probs[i], ref[i])
			}
		}
		for j := range imp {
			if imp[j] != refImp[j] {
				t.Fatalf("workers=%d: importance[%d] = %v, want %v", workers, j, imp[j], refImp[j])
			}
		}
	}
}

// TestHistLearnsSignal asserts the binned forest still separates the
// clusters — the split-search change must not cost accuracy on clean
// separable data.
func TestHistLearnsSignal(t *testing.T) {
	cols, y := histBlobs(400, 1)
	f, err := Fit(cols, y, Config{NumTrees: 20, MaxDepth: 6, Seed: 1, SplitMethod: hist.SplitHist})
	if err != nil {
		t.Fatal(err)
	}
	if p := f.PredictProba([]float64{3, 0, 0, 0, 2}); p < 0.8 {
		t.Errorf("PredictProba(positive cluster) = %v, want > 0.8", p)
	}
	if p := f.PredictProba([]float64{-3, 0, 0, 0, 2}); p > 0.2 {
		t.Errorf("PredictProba(negative cluster) = %v, want < 0.2", p)
	}
}

// TestHistExactDefault asserts the zero-value config still runs the
// exact path: a hist-path regression must never silently change the
// default's bit-exact behavior.
func TestHistExactDefault(t *testing.T) {
	cols, y := blobs(200, 2, 3)
	cfg := Config{NumTrees: 8, MaxDepth: 5, Seed: 7}
	if cfg.SplitMethod != hist.SplitExact {
		t.Fatalf("zero-value SplitMethod = %v, want exact", cfg.SplitMethod)
	}
	a, err := Fit(cols, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(cols, y, Config{NumTrees: 8, MaxDepth: 5, Seed: 7, SplitMethod: hist.SplitExact})
	if err != nil {
		t.Fatal(err)
	}
	pa := predictAll(t, a, cols)
	pb := predictAll(t, b, cols)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("prob[%d]: %v != %v", i, pa[i], pb[i])
		}
	}
}
