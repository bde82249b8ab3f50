package store

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/flat"
	"repro/internal/forest"
	"repro/internal/hist"
	"repro/internal/smart"
)

// benchFleetDrives sizes the fleet-score benchmark: large enough that
// the day's columns dwarf the model, small enough to spill and score in
// a second or two on one core.
const benchFleetDrives = 50_000

// benchFleetFeats is the fleet benchmark's scoring feature set: wear
// and workload context plus the error counters that drive the paper's
// failure signal. Sorted by name so training columns line up with the
// spill file's column order (DayColumns returns features sorted).
var benchFleetFeats = func() []smart.Feature {
	fs := []smart.Feature{
		{Attr: smart.MWI, Kind: smart.Normalized},
		{Attr: smart.ARS, Kind: smart.Normalized},
		{Attr: smart.RER, Kind: smart.Normalized},
		{Attr: smart.POH, Kind: smart.Raw},
		{Attr: smart.PCC, Kind: smart.Raw},
		{Attr: smart.TLW, Kind: smart.Raw},
		{Attr: smart.RSC, Kind: smart.Raw},
		{Attr: smart.UCE, Kind: smart.Raw},
		{Attr: smart.PFC, Kind: smart.Raw},
		{Attr: smart.EFC, Kind: smart.Raw},
		{Attr: smart.PSC, Kind: smart.Raw},
		{Attr: smart.CEC, Kind: smart.Raw},
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].String() < fs[j].String() })
	return fs
}()

// benchFleetRow fills one drive's daily SMART reading. Healthy drives
// report exact-zero error counters almost always — the fleet's real
// sparsity, which lets tree traversal exit early for most of the
// fleet — while at-risk drives show elevated counters and degraded
// normalized health values.
func benchFleetRow(rng *rand.Rand, atRisk bool, dst []float64) {
	for i, ft := range benchFleetFeats {
		var v float64
		switch ft.Attr {
		case smart.MWI:
			v = 97 - 40*rng.Float64()
			if atRisk {
				v = 60 - 35*rng.Float64()
			}
		case smart.ARS:
			v = 100
			if atRisk || rng.Float64() < 0.03 {
				v = 100 - float64(rng.Intn(40))
			}
		case smart.RER:
			v = 100 - 12*rng.Float64()
			if atRisk {
				v -= 30 * rng.Float64()
			}
		case smart.POH:
			v = float64(2000 + rng.Intn(30000))
		case smart.PCC:
			v = float64(rng.Intn(120))
		case smart.TLW:
			v = 1e6 * (1 + 50*rng.Float64())
		default: // error counters: RSC, UCE, PFC, EFC, PSC, CEC
			if atRisk {
				v = float64(1 + rng.Intn(400))
			} else if rng.Float64() < 0.015 {
				v = float64(1 + rng.Intn(4))
			}
		}
		dst[i] = v
	}
}

// benchFleetSource is a deterministic generate-on-demand single-day
// fleet: drive i's reading is a pure function of its ID, so the fleet
// costs no resident memory and spills in O(workers) space.
type benchFleetSource struct{ n int }

func (s benchFleetSource) Days() int { return 1 }

func (s benchFleetSource) DrivesOf(m smart.ModelID) []dataset.DriveRef {
	if m != smart.MC1 {
		return nil
	}
	refs := make([]dataset.DriveRef, s.n)
	for i := range refs {
		refs[i] = dataset.DriveRef{ID: i, Model: smart.MC1, FailDay: -1}
	}
	return refs
}

func (s benchFleetSource) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	rng := rand.New(rand.NewSource(0x5EED + int64(ref.ID)*1_664_525))
	atRisk := rng.Float64() < 0.02
	row := make([]float64, len(benchFleetFeats))
	benchFleetRow(rng, atRisk, row)
	cols := make(map[smart.Feature][]float64, len(benchFleetFeats))
	for i, ft := range benchFleetFeats {
		cols[ft] = row[i : i+1 : i+1]
	}
	return cols, 0, nil
}

// benchFleetModel trains the deployment-shaped forest (30 trees, depth
// 8, 64-sample leaves, 64 hist bins) on a labeled sample from the same
// generator, oversampling the at-risk profile to a 1:8 class mix, and
// compiles it to the flat kernel.
func benchFleetModel(b *testing.B) *flat.Forest {
	b.Helper()
	const n = 6000
	cols := make([][]float64, len(benchFleetFeats))
	for i := range cols {
		cols[i] = make([]float64, n)
	}
	y := make([]int, n)
	row := make([]float64, len(benchFleetFeats))
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(7_700_000_001 + int64(i)*22_695_477))
		atRisk := i%8 == 0
		if atRisk {
			y[i] = 1
		}
		benchFleetRow(rng, atRisk, row)
		for f := range cols {
			cols[f][i] = row[f]
		}
	}
	f, err := forest.Fit(cols, y, forest.Config{
		NumTrees: 30, MaxDepth: 8, MinLeafSamples: 64,
		Seed: 11, SplitMethod: hist.SplitHist, MaxBins: 64,
	})
	if err != nil {
		b.Fatal(err)
	}
	fl, err := flat.CompileForest(f)
	if err != nil {
		b.Fatal(err)
	}
	return fl
}

// BenchmarkFleetScore measures the daily fleet-scoring loop over a
// disk-spilled fleet: take today's columns zero-copy from the mapped
// spill file, score every drive through the compiled flat forest, and
// count alarms. It reports drives/sec and fails if the alarm count is
// implausible for a fleet with 2% at-risk drives.
func BenchmarkFleetScore(b *testing.B) {
	fl := benchFleetModel(b)
	src := benchFleetSource{n: benchFleetDrives}
	dir := b.TempDir()
	if _, err := WriteSpill(dir, src, smart.MC1, 0); err != nil {
		b.Fatal(err)
	}
	st := Open(src, Options{SpillDir: dir})
	defer st.Close()
	if err := st.Track(smart.MC1); err != nil {
		b.Fatal(err)
	}
	if err := st.AppendThrough(0); err != nil {
		b.Fatal(err)
	}
	snap := st.Snapshot()
	out := make([]float64, benchFleetDrives)
	alarms := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feats, cols, refs, err := snap.DayColumns(smart.MC1, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(feats) != len(benchFleetFeats) || len(refs) != benchFleetDrives {
			b.Fatalf("day columns: %d features, %d drives; want %d, %d",
				len(feats), len(refs), len(benchFleetFeats), benchFleetDrives)
		}
		if err := fl.PredictProbaBatch(cols, out); err != nil {
			b.Fatal(err)
		}
		alarms = 0
		for _, p := range out {
			if p >= 0.5 {
				alarms++
			}
		}
	}
	b.StopTimer()
	if alarms == 0 || alarms > benchFleetDrives/4 {
		b.Fatalf("implausible alarm count %d of %d drives", alarms, benchFleetDrives)
	}
	b.ReportMetric(float64(benchFleetDrives)*float64(b.N)/b.Elapsed().Seconds(), "drives/sec")
}
