package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/forest"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/store"
)

// frameScores is the oracle for the scoring pass: the per-group
// labeled-frame path the pass replaced. Each wear group's drive-days
// are materialized by dataset.Frame and scored by the group's model,
// and the rows are merged per drive and ordered by day. Drives come
// back in inventory order.
func frameScores(src dataset.Source, model smart.ModelID, groups []group, lo, hi int, cfg Config) ([]*driveScore, int, error) {
	if hi == 0 {
		// FrameOpts reads DayHi 0 as "dataset end".
		src = endAt{src, hi}
	}
	refs := src.DrivesOf(model)
	byID := make(map[int]*driveScore)
	refOf := make(map[int]dataset.DriveRef, len(refs))
	for _, r := range refs {
		refOf[r.ID] = r
	}
	rows := 0
	for gi, g := range groups {
		fr, err := dataset.Frame(src, dataset.FrameOpts{
			Model: model, DayLo: lo, DayHi: hi, NegEvery: 1,
			Features: g.feats, Expand: true, Windows: cfg.Windows,
			MWIBelow: g.mwiBelow, MWIAtLeast: g.mwiAtLeast,
			Workers: cfg.Workers, Sanitize: cfg.sanitizeOpts(true),
		})
		if errors.Is(err, dataset.ErrNoSamples) {
			continue
		}
		if err != nil {
			return nil, rows, err
		}
		cols := make([][]float64, fr.NumFeatures())
		for i := range cols {
			cols[i] = fr.Col(i)
		}
		probs := make([]float64, fr.NumRows())
		if err := g.model.PredictProbaBatch(cols, probs); err != nil {
			return nil, rows, err
		}
		for i := 0; i < fr.NumRows(); i++ {
			m := fr.Meta(i)
			rows++
			ds, ok := byID[m.DriveID]
			if !ok {
				ds = &driveScore{ref: refOf[m.DriveID], lastDay: -1}
				byID[m.DriveID] = ds
			}
			ds.days = append(ds.days, m.Day)
			ds.probs = append(ds.probs, probs[i])
			ds.mwis = append(ds.mwis, m.MWI)
			ds.group = append(ds.group, gi)
			if m.Day > ds.lastDay {
				ds.lastDay, ds.lastMWI = m.Day, m.MWI
			}
		}
	}
	var out []*driveScore
	for _, r := range refs {
		ds, ok := byID[r.ID]
		if !ok {
			continue
		}
		// Stable insertion sort by day: within a day, group order.
		for i := 1; i < len(ds.days); i++ {
			for j := i; j > 0 && ds.days[j] < ds.days[j-1]; j-- {
				ds.days[j], ds.days[j-1] = ds.days[j-1], ds.days[j]
				ds.probs[j], ds.probs[j-1] = ds.probs[j-1], ds.probs[j]
				ds.mwis[j], ds.mwis[j-1] = ds.mwis[j-1], ds.mwis[j]
				ds.group[j], ds.group[j-1] = ds.group[j-1], ds.group[j]
			}
		}
		out = append(out, ds)
	}
	return out, rows, nil
}

// endAt is a source whose span ends at day hi, for frames of windows
// ending at day 0. Columns pass through whole, so sanitization still
// sees each drive's full series, as the pass does.
type endAt struct {
	dataset.Source
	hi int
}

func (s endAt) Days() int { return s.hi + 1 }

func (s endAt) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	cols, last, err := s.Source.Series(ref)
	return cols, min(last, s.hi), err
}

// sameBits compares floats bit for bit (so NaN equals NaN).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffScores describes the first difference between two scored-drive
// lists, or returns "" when they are identical.
func diffScores(got, want []*driveScore) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d scored drives, oracle %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.ref != w.ref {
			return fmt.Sprintf("drive %d: ref %+v, oracle %+v", i, g.ref, w.ref)
		}
		if len(g.days) != len(w.days) {
			return fmt.Sprintf("drive %d: %d days, oracle %d", g.ref.ID, len(g.days), len(w.days))
		}
		for k := range g.days {
			if g.days[k] != w.days[k] || g.group[k] != w.group[k] ||
				!sameBits(g.probs[k], w.probs[k]) || !sameBits(g.mwis[k], w.mwis[k]) {
				return fmt.Sprintf("drive %d row %d: (day %d group %d prob %v mwi %v), oracle (%d %d %v %v)",
					g.ref.ID, k, g.days[k], g.group[k], g.probs[k], g.mwis[k], w.days[k], w.group[k], w.probs[k], w.mwis[k])
			}
		}
		if g.lastDay != w.lastDay || !sameBits(g.lastMWI, w.lastMWI) {
			return fmt.Sprintf("drive %d: last (%d, %v), oracle (%d, %v)", g.ref.ID, g.lastDay, g.lastMWI, w.lastDay, w.lastMWI)
		}
	}
	return ""
}

// checkPass runs the oracle once and the pass at each worker count on
// one window, and fails the test on any difference in scores, row
// counts or error text.
func checkPass(t *testing.T, label string, src dataset.Source, groups []group, lo, hi int, cfg Config, workers ...int) {
	t.Helper()
	want, wantRows, wantErr := frameScores(src, smart.MC1, groups, lo, hi, cfg)
	for _, w := range workers {
		cfg.Workers = w
		got, gotRows, gotErr := scorePhase(src, smart.MC1, groups, lo, hi, cfg)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s/workers=%d [%d, %d]: error %v, oracle %v", label, w, lo, hi, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if gotRows != wantRows {
			t.Fatalf("%s/workers=%d [%d, %d]: %d rows, oracle %d", label, w, lo, hi, gotRows, wantRows)
		}
		if d := diffScores(got, want); d != "" {
			t.Fatalf("%s/workers=%d [%d, %d]: %s", label, w, lo, hi, d)
		}
	}
}

// nanMWI blanks the wear index on every sixth day of each drive
// (staggered by drive), so routing meets NaN wear readings.
type nanMWI struct{ dataset.Source }

func (s nanMWI) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	cols, last, err := s.Source.Series(ref)
	if err != nil {
		return nil, 0, err
	}
	out := make(map[smart.Feature][]float64, len(cols))
	for ft, col := range cols {
		out[ft] = col
	}
	if col, ok := cols[MWIFeature]; ok {
		c := append([]float64(nil), col...)
		for d := range c {
			if (d+ref.ID)%6 == 0 {
				c[d] = math.NaN()
			}
		}
		out[MWIFeature] = c
	}
	return out, last, nil
}

// dropFeature removes one feature from the series of drives whose ID
// is rem modulo mod.
type dropFeature struct {
	dataset.Source
	ft       smart.Feature
	mod, rem int
}

func (s dropFeature) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	cols, last, err := s.Source.Series(ref)
	if err != nil || ref.ID%s.mod != s.rem {
		return cols, last, err
	}
	out := make(map[smart.Feature][]float64, len(cols))
	for ft, col := range cols {
		if ft != s.ft {
			out[ft] = col
		}
	}
	return out, last, nil
}

// passSplitMWI is the fixture's wear split: a value the fleet's wear
// index takes exactly, so some days sit on the boundary.
const passSplitMWI = 90

// passFixture is a small MC1 fleet with NaN wear days and four trained
// model sets — one and two wear groups, each plain and robust (the
// robust models read missingness-mask columns too).
type passFixture struct {
	base   dataset.Source // the simulated fleet, NaN wear days included
	days   int
	failed dataset.DriveRef // a drive failing mid-span
	models []passModels
	robust *RobustOpts
}

// passModels is one trained group layout of the fixture.
type passModels struct {
	name   string
	groups []group
	robust bool // trained on (and scored with) fixture.robust
}

// layout returns the fixture's model set by name.
func (fx *passFixture) layout(name string, robust bool) []group {
	for _, m := range fx.models {
		if m.name == name && m.robust == robust {
			return m.groups
		}
	}
	panic("no fixture layout " + name)
}

var passFix = sync.OnceValues(func() (*passFixture, error) {
	f, err := simulate.New(simulate.Config{TotalDrives: 150, Days: 100, Seed: 3, Models: []smart.ModelID{smart.MC1}, AFRScale: 10})
	if err != nil {
		return nil, err
	}
	fx := &passFixture{base: nanMWI{dataset.FleetSource{Fleet: f}}, days: f.Days()}
	for _, r := range fx.base.DrivesOf(smart.MC1) {
		if r.Failed() && r.FailDay > 20 && r.FailDay < fx.days-15 {
			fx.failed = r
			break
		}
	}
	if !fx.failed.Failed() {
		return nil, errors.New("fixture fleet has no mid-span failure")
	}
	fx.robust = &RobustOpts{Sanitize: dataset.SanitizeOpts{MissMask: true, Sentinels: []float64{-1, 65535}}}
	ft := func(names ...string) []smart.Feature {
		out := make([]smart.Feature, len(names))
		for i, n := range names {
			out[i] = mustFeature(n)
		}
		return out
	}
	low := ft("UCE_R", "MWI_N", "POH_R")
	high := ft("RSC_R", "UCE_R", "PFC_R", "MWI_N")
	layouts := []passModels{
		{name: "1group", groups: []group{{feats: low}}},
		{name: "2groups", groups: []group{{feats: low, mwiBelow: passSplitMWI}, {feats: high, mwiAtLeast: passSplitMWI}}},
	}
	for _, l := range layouts {
		for _, robust := range []bool{false, true} {
			cfg := Config{Forest: forest.Config{NumTrees: 5, MaxDepth: 5, Seed: 1}, Workers: 1}
			if robust {
				cfg.Robust = fx.robust
			}
			gs := l.groups
			trained := make([]group, len(gs))
			for i, g := range gs {
				fr, err := dataset.Frame(fx.base, dataset.FrameOpts{
					Model: smart.MC1, DayLo: 0, DayHi: 80, NegEvery: 3,
					Features: g.feats, Expand: true, Sanitize: cfg.sanitizeOpts(true),
				})
				if err != nil {
					return nil, err
				}
				g.model, err = fitModel(fr, cfg.withDefaults())
				if err != nil {
					return nil, err
				}
				trained[i] = g
			}
			fx.models = append(fx.models, passModels{name: l.name, groups: trained, robust: robust})
		}
	}
	return fx, nil
})

func passFixtureT(t testing.TB) *passFixture {
	t.Helper()
	fx, err := passFix()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// storeOf ingests src through the last day into a fresh store,
// spilled to disk when spill is set, and returns its snapshot.
func storeOf(t *testing.T, src dataset.Source, spill bool) *store.Snapshot {
	t.Helper()
	opts := store.Options{}
	if spill {
		opts.SpillDir = t.TempDir()
	}
	st := store.Open(src, opts)
	t.Cleanup(func() { st.Close() })
	if err := st.Track(smart.MC1); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendThrough(src.Days() - 1); err != nil {
		t.Fatal(err)
	}
	if spill {
		if err := st.Spill(); err != nil {
			t.Fatal(err)
		}
	}
	return st.Snapshot()
}

// TestScorePassMatchesFrames pins the single scoring pass to the
// per-group labeled-frame path it replaced: identical drives, days,
// groups and bit-identical probabilities and wear readings, for every
// source kind, one and two wear groups (with NaN and exactly-on-split
// wear days), windows running past failed drives' last days, worker
// counts that do and do not divide the fleet, and robust scoring with
// missingness masks. A selected feature missing from some drives fails
// both with the same error.
func TestScorePassMatchesFrames(t *testing.T) {
	fx := passFixtureT(t)
	// Some drives lack a low-wear feature, others a high-wear-only one:
	// the error reported must be the lowest group's first failing drive.
	dropped := dropFeature{Source: fx.base, ft: mustFeature("POH_R"), mod: 7, rem: 3}
	dropped2 := dropFeature{Source: dropped, ft: mustFeature("PFC_R"), mod: 5, rem: 1}
	injector := faults.New(fx.base, faults.Config{
		Seed:         9,
		Dropout:      []faults.Dropout{{Model: smart.MC1, Attr: smart.UCE, Rate: 0.5}},
		NaNRate:      0.02,
		SentinelRate: 0.01,
	})
	sources := []struct {
		name string
		src  dataset.Source
	}{
		{"store", storeOf(t, fx.base, false)},
		{"spilled", storeOf(t, fx.base, true)},
		{"fleet", fx.base},
		{"faults", injector},
		{"store-faults", storeOf(t, injector, false)},
		{"missing-feature", dropped},
		{"missing-features", dropped2},
		{"store-missing-features", storeOf(t, dropped2, false)},
	}
	fail := fx.failed.FailDay
	windows := [][2]int{
		{0, 0},
		{fx.days - 1, fx.days - 1},
		{fx.days - 8, fx.days - 1},
		{fail - 3, fail + 6},   // past the failed drive's last day
		{fail + 1, fail + 1},   // the failed drive is gone
		{fx.days - 2, fx.days}, // past the dataset end: an error
	}
	for _, sc := range sources {
		for _, m := range fx.models {
			var cfg Config
			if m.robust {
				cfg.Robust = fx.robust
			}
			label := fmt.Sprintf("%s/%s/robust=%v", sc.name, m.name, m.robust)
			for _, w := range windows {
				checkPass(t, label, sc.src, m.groups, w[0], w[1], cfg, 1, 2, 5)
			}
		}
	}
	// The matrix must reach what it claims: both wear groups, NaN and
	// exactly-on-split wear days, and a drive that fails mid-window.
	scores, _, err := scorePhase(fx.base, smart.MC1, fx.layout("2groups", false), fail-3, fail+6, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var perGroup [2]int
	nan, onSplit, failedLast := 0, 0, -1
	for _, ds := range scores {
		for k, g := range ds.group {
			perGroup[g]++
			if m := ds.mwis[k]; m != m {
				nan++
			} else if m == passSplitMWI {
				onSplit++
			}
		}
		if ds.ref == fx.failed {
			failedLast = ds.lastDay
		}
	}
	if perGroup[0] == 0 || perGroup[1] == 0 || nan == 0 || onSplit == 0 || failedLast != fail {
		t.Fatalf("matrix coverage: rows per group %v, NaN-wear rows %d, on-split rows %d, failed drive's last scored day %d (fails day %d)",
			perGroup, nan, onSplit, failedLast, fail)
	}
	// The missing-feature sources must actually exercise the error.
	if _, _, err := scorePhase(dropped, smart.MC1, fx.layout("1group", false), 10, 12, Config{}); !errors.As(err, new(*dataset.MissingFeatureError)) {
		t.Fatalf("missing selected feature: error %v, want a MissingFeatureError", err)
	}
}

// TestScorePassDayZero is the regression test for scoring day 0: the
// window [0, 0] scores exactly one row per drive alive on day 0 —
// never the whole span, which labeled frames read DayHi 0 as.
func TestScorePassDayZero(t *testing.T) {
	fx := passFixtureT(t)
	snap := storeOf(t, fx.base, false)
	for _, key := range []string{"1group", "2groups"} {
		scores, rows, err := scorePhase(snap, smart.MC1, fx.layout(key, false), 0, 0, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(snap.DrivesOf(smart.MC1)); len(scores) != n || rows != n {
			t.Fatalf("%s: day 0 scored %d drives in %d rows, want %d and %d", key, len(scores), rows, n, n)
		}
		for _, ds := range scores {
			if len(ds.days) != 1 || ds.days[0] != 0 {
				t.Fatalf("%s: drive %d scored days %v, want [0]", key, ds.ref.ID, ds.days)
			}
		}
	}
}

// TestRobustPassCountsDefectsOncePerDrive pins the pass's sanitizer
// accounting: each drive's columns — the groups' feature union plus
// the wear index — are cleaned and counted once per pass, however many
// wear groups score it.
func TestRobustPassCountsDefectsOncePerDrive(t *testing.T) {
	fx := passFixtureT(t)
	src := faults.New(fx.base, faults.Config{Seed: 4, NaNRate: 0.05, SentinelRate: 0.02})
	groups := fx.layout("2groups", true)
	var union []smart.Feature
	for _, g := range groups {
		for _, ft := range g.feats {
			if !containsFeature(union, ft) {
				union = append(union, ft)
			}
		}
	}
	lo, hi := fx.days-10, fx.days-1
	got := &RunReport{}
	cfg := Config{Robust: &RobustOpts{Sanitize: fx.robust.Sanitize, Report: got}}
	if _, _, err := scorePhase(src, smart.MC1, groups, lo, hi, cfg); err != nil {
		t.Fatal(err)
	}
	// One frame over the union sanitizes each drive's union columns and
	// wear index exactly once.
	want := &RunReport{}
	once := Config{Robust: &RobustOpts{Sanitize: fx.robust.Sanitize, Report: want}}
	if _, err := dataset.Frame(src, dataset.FrameOpts{
		Model: smart.MC1, DayLo: lo, DayHi: hi, Features: union, Sanitize: once.sanitizeOpts(false),
	}); err != nil {
		t.Fatal(err)
	}
	g, w := got.Snapshot(nil).Detected, want.Snapshot(nil).Detected
	if g != w || g.SentinelCells == 0 || g.ImputedCells == 0 {
		t.Fatalf("pass counted %+v, want %+v (non-zero)", g, w)
	}
}

func mustFeature(name string) smart.Feature {
	ft, err := smart.ParseFeature(name)
	if err != nil {
		panic(err)
	}
	return ft
}

func containsFeature(fs []smart.Feature, ft smart.Feature) bool {
	for _, f := range fs {
		if f == ft {
			return true
		}
	}
	return false
}

// TestScoreIntoAllocsFlat pins ScoreBuf's claim: once the buffer has
// grown, a whole-fleet ScoreInto over a store snapshot allocates the
// same at N and 4N drives — nothing proportional to the fleet.
func TestScoreIntoAllocsFlat(t *testing.T) {
	fx := passFixtureT(t)
	allocs := func(drives int) float64 {
		f, err := simulate.New(simulate.Config{TotalDrives: drives, Days: 90, Seed: 8, Models: []smart.ModelID{smart.MC1}})
		if err != nil {
			t.Fatal(err)
		}
		snap := storeOf(t, dataset.FleetSource{Fleet: f}, false)
		sc := &Scorer{snap: &ModelSnapshot{Model: smart.MC1, Thresholds: []float64{0.5, 0.5}},
			groups: fx.layout("2groups", false), cfg: Config{Workers: 2}}
		day := f.Days() - 1
		var buf ScoreBuf
		for i := 0; i < 2; i++ { // grow the buffer
			if _, err := sc.ScoreInto(snap, day, day, &buf); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := sc.ScoreInto(snap, day, day, &buf); err != nil {
				t.Fatal(err)
			}
		})
	}
	n, n4 := allocs(150), allocs(600)
	if n != n4 {
		t.Fatalf("ScoreInto allocates %v at N drives, %v at 4N", n, n4)
	}
}

// memSource is a small in-memory Source of MC1 drives.
type memSource struct {
	days   int
	refs   []dataset.DriveRef
	series []map[smart.Feature][]float64 // by inventory position
}

func (s *memSource) Days() int { return s.days }

func (s *memSource) DrivesOf(m smart.ModelID) []dataset.DriveRef {
	if m != smart.MC1 {
		return nil
	}
	return s.refs
}

func (s *memSource) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	for i, r := range s.refs {
		if r.ID == ref.ID {
			return s.series[i], len(s.series[i][MWIFeature]) - 1, nil
		}
	}
	return nil, 0, fmt.Errorf("no drive %d", ref.ID)
}

// fuzzFleet builds a dirty random fleet over the fixture's features:
// drives failing at random days, NaN and sentinel cells, and wear
// readings that often sit exactly on the fixture's split.
func fuzzFleet(seed int64, nanRate, sentinelRate float64) *memSource {
	rng := rand.New(rand.NewSource(seed))
	const days, drives = 30, 9
	feats := []smart.Feature{mustFeature("UCE_R"), mustFeature("MWI_N"), mustFeature("POH_R"), mustFeature("RSC_R"), mustFeature("PFC_R")}
	src := &memSource{days: days}
	for i := 0; i < drives; i++ {
		ref := dataset.DriveRef{ID: 100 + 7*i, Model: smart.MC1, FailDay: -1}
		if rng.Intn(3) == 0 {
			ref.FailDay = rng.Intn(days)
		}
		n := days
		if ref.Failed() {
			n = ref.FailDay + 1
		}
		cols := make(map[smart.Feature][]float64, len(feats))
		for _, ft := range feats {
			col := make([]float64, n)
			for d := range col {
				switch r := rng.Float64(); {
				case r < nanRate:
					col[d] = math.NaN()
				case r < nanRate+sentinelRate:
					col[d] = 65535
				case ft == MWIFeature:
					col[d] = []float64{passSplitMWI, passSplitMWI - 1, passSplitMWI + 1, 70, 99}[rng.Intn(5)]
				default:
					col[d] = float64(rng.Intn(50))
				}
			}
			cols[ft] = col
		}
		src.refs = append(src.refs, ref)
		src.series = append(src.series, cols)
	}
	return src
}

// FuzzScorePass checks the scoring pass against the labeled-frame
// oracle on random dirty fleets: any window (day 0, past a failed
// drive's last day, past the dataset end), any worker count, one or
// two wear groups, plain or robust scoring, read through a store or
// straight from the source.
func FuzzScorePass(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(12), uint8(5), uint8(1), uint8(3), uint8(20))
	f.Add(int64(3), uint8(25), uint8(9), uint8(4), uint8(1), uint8(60))
	f.Add(int64(4), uint8(29), uint8(3), uint8(2), uint8(2), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, lo, span, workers, mode, dirt uint8) {
		fx := passFixtureT(t)
		src := fuzzFleet(seed, float64(dirt%128)/256, float64(dirt/128)*0.05)
		start := int(lo) % (src.days + 2)
		end := start + int(span)%12
		robust := mode&1 != 0
		layout := "1group"
		if mode&2 != 0 {
			layout = "2groups"
		}
		var cfg Config
		if robust {
			cfg.Robust = fx.robust
		}
		var read dataset.Source = src
		if mode&4 != 0 {
			read = storeOf(t, src, false)
		}
		checkPass(t, fmt.Sprintf("mode %d", mode), read, fx.layout(layout, robust), start, end, cfg, 1+int(workers)%6)
	})
}
