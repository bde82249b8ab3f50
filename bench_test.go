package repro

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each
// bench regenerates its artifact at reduced scale through the same
// code path cmd/experiments uses; run the CLI for full-scale output.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkTable6Exp1 -benchtime=1x

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/changepoint"
	"repro/internal/complexity"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/forest"
	"repro/internal/frame"
	"repro/internal/gbdt"
	"repro/internal/pipeline"
	"repro/internal/selection"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/survival"
)

// benchHarness is shared across benchmarks: the fleet is immutable and
// building it per-bench would dominate every measurement.
var (
	benchOnce sync.Once
	benchH    *experiments.Harness
	benchErr  error
)

func harness(b *testing.B) *experiments.Harness {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiments.TestConfig()
		cfg.PhaseCount = 1
		benchH, benchErr = experiments.New(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchH
}

// BenchmarkTable1Catalog regenerates Table I (attribute availability).
func BenchmarkTable1Catalog(b *testing.B) {
	h := harness(b)
	for i := 0; i < b.N; i++ {
		if out := h.Table1().Render(); out == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2FleetStats regenerates Table II (fleet statistics and
// AFR per model).
func BenchmarkTable2FleetStats(b *testing.B) {
	h := harness(b)
	for i := 0; i < b.N; i++ {
		if len(h.Table2().Rows) != 6 {
			b.Fatal("bad table2")
		}
	}
}

// BenchmarkTable3Importance regenerates Table III (top/last features
// by Random Forest importance, all models).
func BenchmarkTable3Importance(b *testing.B) {
	h := harness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Rankers regenerates Table IV (top-5 per approach on
// MC1).
func BenchmarkTable4Rankers(b *testing.B) {
	h := harness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Survival regenerates Figure 1 (survival curves and
// change points, all models).
func BenchmarkFig1Survival(b *testing.B) {
	h := harness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5WearGroups regenerates Table V (per-wear-group
// rankings).
func BenchmarkTable5WearGroups(b *testing.B) {
	h := harness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Table5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6Exp1 regenerates Table VI (Exp#1: WEFR vs
// no-selection vs the five approaches). The heaviest bench; run with
// -benchtime=1x.
func BenchmarkTable6Exp1(b *testing.B) {
	h := harness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Exp1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Exp2 regenerates Figure 2 (Exp#2: automated vs fixed
// percentage).
func BenchmarkFig2Exp2(b *testing.B) {
	h := harness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Exp2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable7Exp3 regenerates Table VII (Exp#3: wear-out updating).
func BenchmarkTable7Exp3(b *testing.B) {
	h := harness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Exp3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8Exp4 regenerates Table VIII (Exp#4: ranker and WEFR
// runtimes).
func BenchmarkTable8Exp4(b *testing.B) {
	h := harness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Exp4(1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md "Key design decisions") ---

// benchFrame builds one MC1 selection frame for the ablations.
func benchFrame(b *testing.B) *benchData {
	b.Helper()
	h := harness(b)
	fr, err := dataset.Frame(h.Source(), dataset.FrameOpts{Model: smart.MC1, NegEvery: 40})
	if err != nil {
		b.Fatal(err)
	}
	curve, err := survival.Compute(h.Source(), smart.MC1, 0)
	if err != nil {
		b.Fatal(err)
	}
	return &benchData{fr: fr, curve: curve}
}

type benchData struct {
	fr    *frame.Frame
	curve survival.Curve
}

// BenchmarkAblationOutlierRemoval compares WEFR with and without the
// Kendall-tau outlier-removal step (OutlierZ pushed beyond reach).
func BenchmarkAblationOutlierRemoval(b *testing.B) {
	d := benchFrame(b)
	b.Run("with-removal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SelectFeatures(d.fr, core.Config{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("no-removal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SelectFeatures(d.fr, core.Config{Seed: 1, OutlierZ: 1e9}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationComplexity compares the alpha=0.75 complexity
// ensemble cutoff against single-measure variants.
func BenchmarkAblationComplexity(b *testing.B) {
	d := benchFrame(b)
	for _, alpha := range []float64{0.25, 0.5, 0.75, 1.0} {
		alpha := alpha
		b.Run(fmt.Sprintf("alpha-%.2f", alpha), func(b *testing.B) {
			cfg := core.Config{Seed: 1}
			cfg.Cutoff = complexity.CutoffConfig{Alpha: alpha}
			for i := 0; i < b.N; i++ {
				if _, err := core.SelectFeatures(d.fr, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationChangepoint compares the Bayesian change-point
// split against fixed MWI thresholds.
func BenchmarkAblationChangepoint(b *testing.B) {
	d := benchFrame(b)
	b.Run("bayesian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Select(d.fr, d.curve, core.Config{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("probabilities-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := changepoint.ChangeProbabilities(d.curve.Rates, changepoint.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationParallelRanking isolates the Exp#4 claim: parallel
// ensemble ranking versus serial.
func BenchmarkAblationParallelRanking(b *testing.B) {
	d := benchFrame(b)
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SelectFeatures(d.fr, core.Config{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SelectFeatures(d.fr, core.Config{Seed: 1, Serial: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSubstrates measures the individual learners on the MC1
// frame, contextualizing Table VIII.
func BenchmarkSubstrates(b *testing.B) {
	d := benchFrame(b)
	cols := make([][]float64, d.fr.NumFeatures())
	for i := range cols {
		cols[i] = d.fr.Col(i)
	}
	y := d.fr.Labels()
	b.Run("forest-fit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := forest.Fit(cols, y, forest.Config{NumTrees: 20, MaxDepth: 8, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rankers", func(b *testing.B) {
		for _, r := range selection.DefaultRankers(1) {
			r := r
			b.Run(r.Name(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := r.Rank(d.fr); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}

// BenchmarkFleetGeneration measures the simulator itself: fleet
// construction plus one series per drive.
func BenchmarkFleetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fleet, err := simulate.New(simulate.Config{TotalDrives: 500, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range smart.AllModels() {
			for _, d := range fleet.DrivesOf(m) {
				if s := fleet.Series(d); s.LastDay < 0 {
					b.Fatal("bad series")
				}
			}
		}
	}
}

// BenchmarkAblationAggregation compares the paper's mean-rank
// aggregation against median and best-rank alternatives.
func BenchmarkAblationAggregation(b *testing.B) {
	d := benchFrame(b)
	for _, agg := range []core.Aggregation{core.AggregateMean, core.AggregateMedian, core.AggregateBest} {
		agg := agg
		b.Run(agg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SelectFeatures(d.fr, core.Config{Seed: 1, Aggregate: agg}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPredictor compares the Random Forest prediction
// model against the gradient-boosted alternative on one phase.
func BenchmarkAblationPredictor(b *testing.B) {
	h := harness(b)
	ph := engine.StandardPhases(730)[2]
	for _, pred := range []engine.Predictor{engine.PredictorForest, engine.PredictorGBDT} {
		pred := pred
		b.Run(pred.String(), func(b *testing.B) {
			cfg := engine.Config{
				Forest:    forest.Config{NumTrees: 15, MaxDepth: 8, Seed: 1},
				GBDT:      gbdt.Config{NumRounds: 15, MaxDepth: 3, Eta: 0.3, Lambda: 1},
				NegEvery:  40,
				Predictor: pred,
				Seed:      1,
			}
			for i := 0; i < b.N; i++ {
				if _, err := engine.RunPhase(h.Source(), smart.MC1, pipeline.WEFR{NoUpdate: true}, ph, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
