package engine

import (
	"errors"
	"maps"
	"testing"

	"repro/internal/dataset"
	"repro/internal/featgen"
	"repro/internal/smart"
)

// fixtureSnapshot serializes the pass fixture's plain two-group models
// into a snapshot with the given windows.
func fixtureSnapshot(t *testing.T, windows []int) *ModelSnapshot {
	t.Helper()
	snap := &ModelSnapshot{Format: SnapshotFormat, Model: smart.MC1, Windows: windows}
	for _, g := range passFixtureT(t).layout("2groups", false) {
		family, data, err := marshalModel(g.model)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(g.feats))
		for i, ft := range g.feats {
			names[i] = ft.String()
		}
		snap.Groups = append(snap.Groups, GroupSnapshot{
			Features: names, MWIBelow: g.mwiBelow, MWIAtLeast: g.mwiAtLeast,
			Predictor: family, FlatData: data,
		})
		snap.Thresholds = append(snap.Thresholds, 0.5)
	}
	return snap
}

// TestNonPositiveWindowsRejectedAtLoad pins window validation to the
// boundaries: a snapshot or engine config with a non-positive window
// fails when it is loaded, with *featgen.WindowError, instead of
// building a scorer whose every row then fails.
func TestNonPositiveWindowsRejectedAtLoad(t *testing.T) {
	if _, err := NewScorer(fixtureSnapshot(t, nil), 1); err != nil {
		t.Fatalf("default windows: %v", err)
	}
	for _, windows := range [][]int{{0}, {3, -7}} {
		var we *featgen.WindowError
		if _, err := NewScorer(fixtureSnapshot(t, windows), 1); !errors.As(err, &we) {
			t.Errorf("snapshot windows %v: NewScorer error = %v, want *featgen.WindowError", windows, err)
		}
		fx := passFixtureT(t)
		ph := StandardPhases(fx.days)[0]
		if _, err := New(fx.base, Config{Windows: windows}).PreparePhase(smart.MC1, ph); !errors.As(err, &we) {
			t.Errorf("config windows %v: PreparePhase error = %v, want *featgen.WindowError", windows, err)
		}
	}
}

// TestFeaturizeAllocs pins Scorer.Featurize's doc claim: with a warm
// RowScratch, assembling a row allocates nothing.
func TestFeaturizeAllocs(t *testing.T) {
	sc, err := NewScorer(fixtureSnapshot(t, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	fx := passFixtureT(t)
	series, _, err := fx.base.Series(fx.base.DrivesOf(smart.MC1)[0])
	if err != nil {
		t.Fatal(err)
	}
	day := fx.days - 1
	var rs RowScratch
	for g := 0; g < sc.NumGroups(); g++ {
		row := make([]float64, sc.GroupInputWidth(g))
		if err := sc.Featurize(g, series, day, row, &rs); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := sc.Featurize(g, series, day, row, &rs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("group %d: warm Featurize allocates %v per row, want 0", g, allocs)
		}
	}
	partial := maps.Clone(series)
	delete(partial, sc.GroupFeatures(0)[0])
	var missing *dataset.MissingFeatureError
	if err := sc.Featurize(0, partial, day, make([]float64, sc.GroupInputWidth(0)), &rs); !errors.As(err, &missing) {
		t.Errorf("missing feature error = %v, want *dataset.MissingFeatureError", err)
	}
}
