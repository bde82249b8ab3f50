package forest

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/hist"
)

// blobs builds a linearly separable two-cluster dataset with one
// informative feature and optional noise features.
func blobs(n, noiseFeatures int, seed int64) (cols [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	signal := make([]float64, n)
	y = make([]int, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.5 {
			y[i] = 1
			signal[i] = 2 + rng.NormFloat64()
		} else {
			signal[i] = -2 + rng.NormFloat64()
		}
	}
	cols = [][]float64{signal}
	for f := 0; f < noiseFeatures; f++ {
		noise := make([]float64, n)
		for i := range noise {
			noise[i] = rng.NormFloat64()
		}
		cols = append(cols, noise)
	}
	return cols, y
}

func TestFitAndPredict(t *testing.T) {
	cols, y := blobs(400, 2, 1)
	f, err := Fit(cols, y, Config{NumTrees: 20, MaxDepth: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 20 || f.NumFeatures() != 3 {
		t.Fatalf("shape = (%d trees, %d features)", f.NumTrees(), f.NumFeatures())
	}
	if p := f.PredictProba([]float64{3, 0, 0}); p < 0.8 {
		t.Errorf("PredictProba(positive cluster) = %v, want > 0.8", p)
	}
	if p := f.PredictProba([]float64{-3, 0, 0}); p > 0.2 {
		t.Errorf("PredictProba(negative cluster) = %v, want < 0.2", p)
	}
	if f.Predict([]float64{3, 0, 0}, 0.5) != 1 {
		t.Error("Predict should be 1 in positive cluster")
	}
	if f.Predict([]float64{-3, 0, 0}, 0.5) != 0 {
		t.Error("Predict should be 0 in negative cluster")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, Config{NumTrees: 5}); !errors.Is(err, ErrNoData) {
		t.Errorf("empty fit error = %v", err)
	}
	if _, err := Fit([][]float64{{1, 2}}, []int{0}, Config{NumTrees: 5}); err == nil {
		t.Error("shape mismatch should fail")
	}
	if _, err := Fit([][]float64{{1}}, []int{0}, Config{NumTrees: 0}); err == nil {
		t.Error("NumTrees=0 should fail")
	}
}

func TestDeterminism(t *testing.T) {
	cols, y := blobs(300, 3, 2)
	cfg := Config{NumTrees: 10, MaxDepth: 5, Seed: 99, Workers: 4}
	a, err := Fit(cols, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(cols, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 4)
	for trial := 0; trial < 50; trial++ {
		for j := range x {
			x[j] = rng.NormFloat64() * 3
		}
		if a.PredictProba(x) != b.PredictProba(x) {
			t.Fatal("same seed should give identical forests regardless of worker count")
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	// Serial and parallel fits must be bit-identical: bootstraps and
	// tree seeds are drawn up front from one RNG, and scoring chunks
	// accumulate in tree order regardless of which worker owns a row.
	cols, y := blobs(300, 3, 6)
	serial, err := Fit(cols, y, Config{NumTrees: 12, MaxDepth: 6, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fit(cols, y, Config{NumTrees: 12, MaxDepth: 6, Seed: 11, Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	impS, err := serial.ImpurityImportance()
	if err != nil {
		t.Fatal(err)
	}
	impP, err := parallel.ImpurityImportance()
	if err != nil {
		t.Fatal(err)
	}
	for f := range impS {
		if impS[f] != impP[f] {
			t.Fatalf("importance[%d]: serial %v != parallel %v", f, impS[f], impP[f])
		}
	}
	probS := predictAll(t, serial, cols)
	probP := predictAll(t, parallel, cols)
	for i := range probS {
		if probS[i] != probP[i] {
			t.Fatalf("prob[%d]: serial %v != parallel %v", i, probS[i], probP[i])
		}
	}
}

// predictAll scores every row of cols through PredictProbaBatch.
func predictAll(t *testing.T, f *Forest, cols [][]float64) []float64 {
	t.Helper()
	out := make([]float64, len(cols[0]))
	if err := f.PredictProbaBatch(cols, out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPredictProbaBatch(t *testing.T) {
	cols, y := blobs(200, 1, 4)
	f, err := Fit(cols, y, Config{NumTrees: 10, MaxDepth: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	probs := predictAll(t, f, cols)
	// Batch prediction must match per-row prediction.
	x := make([]float64, 2)
	for i := 0; i < 20; i++ {
		x[0], x[1] = cols[0][i], cols[1][i]
		if probs[i] != f.PredictProba(x) {
			t.Fatalf("batch prob[%d] = %v, row prob = %v", i, probs[i], f.PredictProba(x))
		}
	}
	if err := f.PredictProbaBatch([][]float64{{1}}, make([]float64, 1)); err == nil {
		t.Error("wrong column count should fail")
	}
	if err := f.PredictProbaBatch([][]float64{cols[0][:10], cols[1][:10]}, make([]float64, 11)); err == nil {
		t.Error("columns shorter than out should fail")
	}
}

func TestImpurityImportanceFindsSignal(t *testing.T) {
	cols, y := blobs(500, 4, 5)
	f, err := Fit(cols, y, Config{NumTrees: 30, MaxDepth: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	imp, err := f.ImpurityImportance()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range imp {
		if v < 0 {
			t.Errorf("negative impurity importance %v", v)
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("importance sum = %v, want 1", sum)
	}
	for j := 1; j < len(imp); j++ {
		if imp[0] <= imp[j] {
			t.Errorf("signal importance %v should exceed noise[%d] %v", imp[0], j, imp[j])
		}
	}
}

func TestPermutationImportanceFindsSignal(t *testing.T) {
	cols, y := blobs(500, 3, 6)
	f, err := Fit(cols, y, Config{NumTrees: 25, MaxDepth: 6, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	imp, err := f.PermutationImportance(7)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < len(imp); j++ {
		if imp[0] <= imp[j] {
			t.Errorf("signal perm importance %v should exceed noise[%d] %v", imp[0], j, imp[j])
		}
	}
	if imp[0] < 0.1 {
		t.Errorf("signal perm importance = %v, want substantial", imp[0])
	}
}

func TestOOBAccuracy(t *testing.T) {
	cols, y := blobs(400, 2, 7)
	f, err := Fit(cols, y, Config{NumTrees: 30, MaxDepth: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := f.OOBAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("OOB accuracy on separable blobs = %v, want >= 0.9", acc)
	}
}

func TestNotFitted(t *testing.T) {
	var f Forest
	if _, err := f.ImpurityImportance(); !errors.Is(err, ErrNotFitted) {
		t.Errorf("ImpurityImportance error = %v", err)
	}
	if _, err := f.PermutationImportance(1); !errors.Is(err, ErrNotFitted) {
		t.Errorf("PermutationImportance error = %v", err)
	}
	if _, err := f.OOBAccuracy(); !errors.Is(err, ErrNotFitted) {
		t.Errorf("OOBAccuracy error = %v", err)
	}
}

func TestSingleClassData(t *testing.T) {
	// All-negative labels: forest must fit and predict ~0 everywhere.
	cols := [][]float64{{1, 2, 3, 4, 5, 6}}
	y := []int{0, 0, 0, 0, 0, 0}
	f, err := Fit(cols, y, Config{NumTrees: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if p := f.PredictProba([]float64{3}); p != 0 {
		t.Errorf("all-negative forest prob = %v, want 0", p)
	}
}

// BenchmarkFit100Trees fits the paper's 100-tree, depth-13 forest on a
// frame-shaped 4000×60 sample with each split search on the same data;
// the exact/hist ratio is the histogram path's training speedup.
func BenchmarkFit100Trees(b *testing.B) {
	cols, y := frameLike(4000, 60, 1)
	for _, method := range []hist.SplitMethod{hist.SplitExact, hist.SplitHist} {
		b.Run(method.String(), func(b *testing.B) {
			cfg := Config{NumTrees: 100, MaxDepth: 13, Seed: 10, SplitMethod: method}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Fit(cols, y, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// frameLike builds a deterministic expanded-training-frame-shaped
// dataset: one signal feature at a 12% positive rate, plus noise
// columns of which every third is a low-cardinality counter with heavy
// value ties, as SMART counters are.
func frameLike(n, features int, seed int64) (cols [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	y = make([]int, n)
	signal := make([]float64, n)
	for i := range signal {
		if rng.Float64() < 0.12 {
			y[i] = 1
			signal[i] = 1.5 + rng.NormFloat64()
		} else {
			signal[i] = rng.NormFloat64()
		}
	}
	cols = make([][]float64, features)
	cols[0] = signal
	for f := 1; f < features; f++ {
		c := make([]float64, n)
		for i := range c {
			if f%3 == 0 {
				c[i] = float64(rng.Intn(6))
			} else {
				c[i] = rng.NormFloat64() + 0.2*signal[i]
			}
		}
		cols[f] = c
	}
	return cols, y
}
