package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/featgen"
	"repro/internal/flat"
	"repro/internal/forest"
	"repro/internal/frame"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/survival"
)

// allFeats is a minimal no-selection strategy for engine tests (the
// real selectors live in internal/pipeline, which imports this
// package).
type allFeats struct{}

func (allFeats) Name() string { return "all" }

func (allFeats) Select(fr *frame.Frame, _ survival.Curve) (SelectorResult, error) {
	names := make([]string, fr.NumFeatures())
	copy(names, fr.Names())
	return SelectorResult{All: names}, nil
}

func testSource(t *testing.T) dataset.Source {
	t.Helper()
	f, err := simulate.New(simulate.Config{TotalDrives: 700, Seed: 5, AFRScale: 4})
	if err != nil {
		t.Fatal(err)
	}
	return dataset.FleetSource{Fleet: f}
}

func testCfg() Config {
	return Config{
		Forest:   forest.Config{NumTrees: 10, MaxDepth: 6, Seed: 1},
		NegEvery: 20,
		Seed:     1,
	}
}

// TestSnapshotRoundTrip is the held-out-window bit-identity check:
// train a phase, capture its ModelSnapshot, persist it through the
// registry, reload it (as a fresh process would), and score the test
// window — the outcomes must equal the in-memory run's exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	src := testSource(t)
	ph := StandardPhases(src.Days())[2]
	res, err := RunPhase(src, smart.MC1, allFeats{}, ph, testCfg())
	if err != nil {
		t.Fatal(err)
	}

	snap, err := res.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.TrainedThrough != ph.TrainHi || snap.Model != smart.MC1 || snap.Selector != "all" {
		t.Fatalf("snapshot header: %+v", snap)
	}
	if snap.ConfigHash != testCfg().Hash() {
		t.Errorf("config hash %q != %q", snap.ConfigHash, testCfg().Hash())
	}

	reg := &core.Registry{Dir: t.TempDir()}
	version, err := SaveSnapshot(reg, "mc1-all", snap)
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 {
		t.Errorf("first save version = %d", version)
	}

	// Reload from disk — nothing shared with the in-memory snapshot —
	// and score the same held-out window from a fresh source.
	loaded, err := LoadSnapshot(reg, "mc1-all", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Thresholds, res.Thresholds) {
		t.Errorf("thresholds: loaded %v != trained %v", loaded.Thresholds, res.Thresholds)
	}
	outcomes, err := ScoreSnapshot(testSource(t), loaded, ph.TestLo, ph.TestHi, ScoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outcomes, res.Outcomes) {
		t.Fatal("snapshot-scored outcomes differ from the in-memory run")
	}

	// Scoring with a different worker count stays bit-identical.
	parallel, err := ScoreSnapshot(testSource(t), loaded, ph.TestLo, ph.TestHi, ScoreOpts{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parallel, outcomes) {
		t.Fatal("snapshot scoring differs between worker counts")
	}

	// ScoreInto reuses its buffer's outcome slice: a second pass over
	// the same window returns the same results in the first pass's
	// backing array.
	t.Run("ScoreIntoReusesOutcomes", func(t *testing.T) {
		sc, err := NewScorer(loaded, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf ScoreBuf
		first, err := sc.ScoreInto(testSource(t), ph.TestLo, ph.TestHi, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, outcomes) {
			t.Fatal("ScoreInto outcomes differ from ScoreSnapshot")
		}
		second, err := sc.ScoreInto(testSource(t), ph.TestLo, ph.TestHi, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(second) == 0 || &second[0] != &first[0] {
			t.Fatal("second ScoreInto call did not reuse the first call's outcome array")
		}
		if !reflect.DeepEqual(second, outcomes) {
			t.Fatal("second ScoreInto outcomes differ from ScoreSnapshot")
		}
	})
}

func TestSnapshotRejectsRobust(t *testing.T) {
	src := testSource(t)
	ph := StandardPhases(src.Days())[2]
	cfg := testCfg()
	cfg.Robust = &RobustOpts{}
	res, err := RunPhase(src, smart.MC1, allFeats{}, ph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Snapshot(); !errors.Is(err, ErrNotSnapshotable) {
		t.Errorf("robust snapshot error = %v, want ErrNotSnapshotable", err)
	}
	// A zero result is not snapshotable either.
	var zero PhaseResult
	if _, err := zero.Snapshot(); !errors.Is(err, ErrNotSnapshotable) {
		t.Errorf("zero-result snapshot error = %v, want ErrNotSnapshotable", err)
	}
}

func TestLoadSnapshotRejectsBadFormat(t *testing.T) {
	reg := &core.Registry{Dir: t.TempDir()}
	if _, err := reg.Save("bad", []byte(`{"format": 99}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(reg, "bad", 0); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("error = %v, want ErrSnapshotFormat", err)
	}
}

// TestLoadSnapshotRejectsFormat1 pins the format-2 cut-over: a
// format-1 artifact (which carried a gob pointer model beside the flat
// one) is rejected as an incompatible format, not decoded or misread
// as corrupt, and the error names both formats.
func TestLoadSnapshotRejectsFormat1(t *testing.T) {
	old := []byte(`{"format": 1, "model": 1, "selector": "wefr",` +
		` "groups": [{"features": ["MWI_N"], "predictor": 1, "model_data": "AAEC", "flat_data": "AAEC"}],` +
		` "thresholds": [0.5], "trained_through": 600, "config_hash": "abcd"}`)
	_, err := DecodeSnapshot(old)
	if !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("decode error = %v, want ErrSnapshotFormat", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "format 1") || !strings.Contains(msg, fmt.Sprint(SnapshotFormat)) {
		t.Errorf("error %q does not name both formats", msg)
	}
	reg := &core.Registry{Dir: t.TempDir()}
	if _, err := reg.Save("old", old); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(reg, "old", 0); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("load error = %v, want ErrSnapshotFormat", err)
	}
}

// TestWideCutSnapshotParity carries a forest that splits one input
// column on more than 254 distinct thresholds through a snapshot's
// JSON encode/decode round trip, and checks the loaded scorer is
// bit-identical to the pointer forest at several worker counts.
func TestWideCutSnapshotParity(t *testing.T) {
	feat := MWIFeature
	width := 1 + featgen.NumGenerated(featgen.DefaultWindows)
	const rows = 3000
	rng := rand.New(rand.NewSource(9))
	cols := make([][]float64, width)
	for c := range cols {
		cols[c] = make([]float64, rows)
	}
	y := make([]int, rows)
	for i := 0; i < rows; i++ {
		// Column 0 carries the (noisy) signal over thousands of
		// distinct values; the rest are low-cardinality noise.
		cols[0][i] = rng.NormFloat64() * 100
		for c := 1; c < width; c++ {
			cols[c][i] = float64(rng.Intn(3))
		}
		if rng.Float64() < 0.5+0.4*math.Sin(cols[0][i]/7) {
			y[i] = 1
		}
	}
	ptr, err := forest.Fit(cols, y, forest.Config{NumTrees: 4, MaxFeatures: width, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cuts := map[float64]bool{}
	for _, tr := range ptr.Trees() {
		e := tr.Export()
		for i, f := range e.Feature {
			if f == 0 {
				cuts[e.Threshold[i]] = true
			}
		}
	}
	if len(cuts) <= 254 {
		t.Fatalf("column 0 has %d distinct cuts, want > 254", len(cuts))
	}
	fl, err := flat.CompileForest(ptr)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := fl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(&ModelSnapshot{
		Format: SnapshotFormat, Model: smart.MC1, Selector: "wide",
		Groups:     []GroupSnapshot{{Features: []string{feat.String()}, Predictor: PredictorForest, FlatData: payload}},
		Thresholds: []float64{0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}

	in := make([][]float64, width)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for c := range in {
		in[c] = make([]float64, rows)
		for i := range in[c] {
			switch r := rng.Float64(); {
			case r < 0.1:
				in[c][i] = specials[rng.Intn(len(specials))]
			case r < 0.4:
				in[c][i] = cols[c][rng.Intn(rows)]
			default:
				in[c][i] = rng.NormFloat64() * 120
			}
		}
	}
	want := make([]float64, rows)
	if err := ptr.PredictProbaBatch(in, want); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, rows)
	for _, workers := range []int{1, 2, 3} {
		sc, err := NewScorer(snap, workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.ScoreBatch(0, in, got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("workers %d row %d: snapshot %v != pointer %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestPhaseAdvanceReusesIngestedDays is the append-only acceptance
// check: running successive phases on one engine must not re-extract
// already-ingested days — upstream series fetches stay flat after the
// first phase, and later phases ingest only their new days.
func TestPhaseAdvanceReusesIngestedDays(t *testing.T) {
	src := testSource(t)
	phases := StandardPhases(src.Days())
	e := New(src, testCfg())

	pd0, err := e.PreparePhase(smart.MC1, phases[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pd0.RunSelector(allFeats{}); err != nil {
		t.Fatal(err)
	}
	c0 := e.Store().Counters()
	if c0.SeriesFetches == 0 || c0.DaysIngested == 0 {
		t.Fatalf("phase 0 ingested nothing: %+v", c0)
	}

	pd1, err := e.PreparePhase(smart.MC1, phases[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pd1.RunSelector(allFeats{}); err != nil {
		t.Fatal(err)
	}
	c1 := e.Store().Counters()
	if c1.SeriesFetches != c0.SeriesFetches {
		t.Errorf("phase advance re-fetched upstream series: %d -> %d", c0.SeriesFetches, c1.SeriesFetches)
	}
	if got, want := c1.DaysIngested-c0.DaysIngested, int64(0); got <= want {
		t.Errorf("phase advance ingested %d new days, want > 0", got)
	}
	// The advance ingests at most the horizon delta per drive (drives
	// that died earlier contribute fewer days).
	drives := int64(len(src.DrivesOf(smart.MC1)))
	maxNew := drives * int64(phases[1].TestHi-phases[0].TestHi)
	if got := c1.DaysIngested - c0.DaysIngested; got > maxNew {
		t.Errorf("phase advance ingested %d days, more than the %d-day horizon delta allows", got, maxNew)
	}

	// The ingest stage of each result reports the store's delta.
	var ingest0 int
	for _, st := range pd0.prep {
		if st.Stage == StageIngest {
			ingest0 = st.Rows
		}
	}
	if int64(ingest0) != c0.DaysIngested {
		t.Errorf("phase 0 ingest stage rows = %d, store ingested %d", ingest0, c0.DaysIngested)
	}
}

// TestStageStatsOnResult verifies a phase result carries the full
// stage sequence with plausible row counts.
func TestStageStatsOnResult(t *testing.T) {
	src := testSource(t)
	ph := StandardPhases(src.Days())[2]
	rep := &StageReport{}
	cfg := testCfg()
	cfg.Stages = rep
	res, err := RunPhase(src, smart.MC1, allFeats{}, ph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{StageIngest, StageFeaturize, StageSelect, StageTrain, StageCalibrate, StageScore, StageEvaluate}
	if len(res.StageStats) != len(want) {
		t.Fatalf("stage stats = %+v", res.StageStats)
	}
	for i, st := range res.StageStats {
		if st.Stage != want[i] {
			t.Errorf("stage %d = %s, want %s", i, st.Stage, want[i])
		}
	}
	// Evaluate's rows are the scored drives; Score's are drive-days.
	last := res.StageStats[len(res.StageStats)-1]
	if last.Rows != len(res.Outcomes) {
		t.Errorf("evaluate rows = %d, outcomes = %d", last.Rows, len(res.Outcomes))
	}
	totals := rep.Totals()
	if len(totals) != len(want) {
		t.Errorf("shared report totals = %+v", totals)
	}
}

// TestFlatScoringParity pins the engine-level guarantee behind the
// compiled scoring path: a phase scored through the snapshot's flat
// models is bit-identical, probability by probability, to a pointer
// forest the test fits itself on the engine's training frame.
func TestFlatScoringParity(t *testing.T) {
	src := testSource(t)
	ph := StandardPhases(src.Days())[2]
	pd, err := PreparePhase(src, smart.MC1, ph, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := pd.RunSelector(allFeats{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := res.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range snap.Groups {
		if len(g.FlatData) == 0 {
			t.Fatalf("group %d snapshot carries no compiled flat payload", i)
		}
	}
	flatGroups, err := snap.buildGroups(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(flatGroups) != 1 {
		t.Fatalf("%d groups, want 1", len(flatGroups))
	}
	g := flatGroups[0]
	trainFr, err := dataset.Frame(src, dataset.FrameOpts{
		Model: smart.MC1, DayLo: ph.TrainLo, DayHi: pd.fitHi,
		NegEvery: pd.cfg.NegEvery, Features: g.feats, Expand: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][]float64, trainFr.NumFeatures())
	for i := range cols {
		cols[i] = trainFr.Col(i)
	}
	ptr, err := forest.Fit(cols, trainFr.Labels(), pd.cfg.Forest)
	if err != nil {
		t.Fatal(err)
	}
	g.model = ptr
	ptrGroups := []group{g}
	cfg := Config{Windows: append([]int(nil), snap.Windows...)}
	flatScores, _, err := scorePhase(src, snap.Model, flatGroups, ph.TestLo, ph.TestHi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ptrScores, _, err := scorePhase(src, snap.Model, ptrGroups, ph.TestLo, ph.TestHi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(flatScores) == 0 || len(flatScores) != len(ptrScores) {
		t.Fatalf("scored %d drives flat, %d pointer", len(flatScores), len(ptrScores))
	}
	for i, fd := range flatScores {
		pd := ptrScores[i]
		id := fd.ref.ID
		if pd.ref.ID != id {
			t.Fatalf("drive %d missing from pointer scores", id)
		}
		if !reflect.DeepEqual(fd.days, pd.days) {
			t.Fatalf("drive %d scored days differ", id)
		}
		for k := range fd.probs {
			if math.Float64bits(fd.probs[k]) != math.Float64bits(pd.probs[k]) {
				t.Fatalf("drive %d day %d: flat %v != pointer %v", id, fd.days[k], fd.probs[k], pd.probs[k])
			}
		}
	}
}
