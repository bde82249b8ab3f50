package flat

import (
	"testing"

	"repro/internal/forest"
	"repro/internal/hist"
)

// benchSetup fits the batch-scoring reference forest: 30 trees, depth
// 12, trained on 4000 rows. Feature count and bins parameterize the
// fleet-deployment shape.
func benchSetup(b *testing.B, features, rows, maxBins int) (*forest.Forest, *Forest, [][]float64) {
	return benchSetupDepth(b, features, rows, maxBins, 12, 1)
}

func benchSetupDepth(b *testing.B, features, rows, maxBins, depth, minLeaf int) (*forest.Forest, *Forest, [][]float64) {
	b.Helper()
	cols, y := synth(4000, features, 7)
	cfg := forest.Config{NumTrees: 30, MaxDepth: depth, MinLeafSamples: minLeaf, Seed: 7, Workers: 1}
	if maxBins > 0 {
		cfg.SplitMethod = hist.SplitHist
		cfg.MaxBins = maxBins
	}
	f, err := forest.Fit(cols, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	fl, err := CompileForest(f)
	if err != nil {
		b.Fatal(err)
	}
	fl.Workers = 1
	in := scoreInputs(cols, rows, 99)
	return f, fl, in
}

func BenchmarkPointerForest12f(b *testing.B) {
	f, _, in := benchSetup(b, 12, 20000, 64)
	out := make([]float64, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.PredictProbaBatch(in, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlatForest12f(b *testing.B) {
	_, fl, in := benchSetup(b, 12, 20000, 64)
	out := make([]float64, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fl.PredictProbaBatch(in, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlatForestFleet12f uses the deployment-regularized model
// shape of store's BenchmarkFleetScore (depth 8, 64-sample leaves).
func BenchmarkFlatForestFleet12f(b *testing.B) {
	_, fl, in := benchSetupDepth(b, 12, 20000, 64, 8, 64)
	out := make([]float64, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fl.PredictProbaBatch(in, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlatForest60f(b *testing.B) {
	_, fl, in := benchSetup(b, 60, 20000, 0)
	out := make([]float64, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fl.PredictProbaBatch(in, out); err != nil {
			b.Fatal(err)
		}
	}
}
