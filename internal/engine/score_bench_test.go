package engine

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/forest"
	"repro/internal/frame"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/store"
	"repro/internal/survival"
)

// splitSel is a fixed two-wear-group selection for scoring fixtures:
// low-wear drives use Low, the rest High, split at ThresholdMWI.
type splitSel GroupFeatures

func (splitSel) Name() string { return "split" }

func (s splitSel) Select(*frame.Frame, survival.Curve) (SelectorResult, error) {
	g := GroupFeatures(s)
	return SelectorResult{All: g.Low, Split: &g}, nil
}

// benchScorer is a compiled two-group scorer trained once per test
// binary on a small MC1 fleet, with WEFR-sized feature sets.
var benchScorer = sync.OnceValues(func() (*ModelSnapshot, error) {
	f, err := simulate.New(simulate.Config{TotalDrives: 400, Days: 150, Seed: 5, Models: []smart.ModelID{smart.MC1}, AFRScale: 6})
	if err != nil {
		return nil, err
	}
	src := dataset.FleetSource{Fleet: f}
	sel := splitSel{
		ThresholdMWI: 60,
		Low:          []string{"UCE_R", "MWI_N", "RSC_R", "POH_R", "PCC_R", "RER_N"},
		High:         []string{"MWI_N", "UCE_R", "PFC_R", "EFC_R", "CEC_R", "PSC_R", "ARS_N"},
	}
	cfg := Config{Forest: forest.Config{NumTrees: 30, MaxDepth: 8, Seed: 1}, NegEvery: 10, Seed: 1}
	res, err := RunPhase(src, smart.MC1, sel, StandardPhases(src.Days())[2], cfg)
	if err != nil {
		return nil, err
	}
	return res.Snapshot()
})

// BenchmarkScoreInto measures one day of whole-fleet scoring the way
// the serving daemon's fleet endpoint and the controller run it:
// Scorer.ScoreInto over an in-memory store snapshot with a warm
// ScoreBuf — store reads, wear routing, window statistics and the
// compiled kernel for every drive. It reports drives/sec and, with
// -benchmem, allocs/op.
func BenchmarkScoreInto(b *testing.B) {
	snap, err := benchScorer()
	if err != nil {
		b.Fatal(err)
	}
	f, err := simulate.New(simulate.Config{TotalDrives: 4000, Days: 90, Seed: 11, Models: []smart.ModelID{smart.MC1}, AFRScale: 4})
	if err != nil {
		b.Fatal(err)
	}
	st := store.Open(dataset.FleetSource{Fleet: f}, store.Options{})
	defer st.Close()
	if err := st.Track(smart.MC1); err != nil {
		b.Fatal(err)
	}
	day := f.Days() - 1
	if err := st.AppendThrough(day); err != nil {
		b.Fatal(err)
	}
	sc, err := NewScorer(snap, 0)
	if err != nil {
		b.Fatal(err)
	}
	src := st.Snapshot()
	var buf ScoreBuf
	out, err := sc.ScoreInto(src, day, day, &buf)
	if err != nil {
		b.Fatal(err)
	}
	drives := len(out)
	if drives == 0 {
		b.Fatal("no drive alive on the scored day")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.ScoreInto(src, day, day, &buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(drives)*float64(b.N)/b.Elapsed().Seconds(), "drives/sec")
}
