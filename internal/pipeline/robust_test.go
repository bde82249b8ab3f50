package pipeline

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/selection"
	"repro/internal/smart"
)

// robustCfg is smallCfg plus robust mode with masks and a report.
func robustCfg(rep *engine.RunReport) engine.Config {
	cfg := smallCfg()
	cfg.Robust = &engine.RobustOpts{
		Sanitize: dataset.SanitizeOpts{MissMask: true},
		Report:   rep,
	}
	return cfg
}

// cheapWEFR is a WEFR selector with the three statistical rankers,
// keeping the fault matrix fast while exercising the full ensemble
// (outlier removal, aggregation, cutoff, wear split).
func cheapWEFR(robust bool) WEFR {
	cfg := core.Config{
		Rankers: []selection.Ranker{selection.Pearson{}, selection.Spearman{}, selection.JIndex{}},
	}
	if robust {
		cfg.Robust = &core.RobustConfig{}
	}
	return WEFR{Config: cfg}
}

// overlap is |a ∩ b| / |a|.
func overlap(a, b []string) float64 {
	if len(a) == 0 {
		return 0
	}
	set := make(map[string]bool, len(b))
	for _, n := range b {
		set[n] = true
	}
	hit := 0
	for _, n := range a {
		if set[n] {
			hit++
		}
	}
	return float64(hit) / float64(len(a))
}

// TestPipelineFaultMatrix is the degradation matrix: the pipeline must
// complete under every fault configuration, the run report must
// account for each injected defect class, and quality must degrade
// gracefully — mild (paper-realistic) corruption keeps the selection
// close to clean while pathological corruption still terminates.
func TestPipelineFaultMatrix(t *testing.T) {
	base := smallSource(t)
	phases := engine.StandardPhases(base.Days())[2:]
	model := smart.MC1

	type caseResult struct {
		selAll []string
		auc    float64
		snap   engine.ReportSnapshot
	}
	run := func(t *testing.T, fc faults.Config) caseResult {
		t.Helper()
		inj := faults.New(base, fc)
		src := dataset.NewCachedSource(inj)
		rep := &engine.RunReport{}
		results, _, err := engine.Run(src, model, cheapWEFR(true), phases, robustCfg(rep))
		if err != nil {
			t.Fatalf("pipeline did not complete: %v", err)
		}
		if len(results) != 1 {
			t.Fatalf("got %d phase results, want 1", len(results))
		}
		auc, err := engine.AUC(results[0].Outcomes)
		if err != nil {
			auc = 0.5 // constant scores: no ranking power
		}
		return caseResult{
			selAll: results[0].Selection.All,
			auc:    auc,
			snap:   rep.Snapshot(inj.Stats().Classes()),
		}
	}

	clean := run(t, faults.Config{})
	if len(clean.snap.Injected) != 0 {
		t.Errorf("clean run reports injected defects: %v", clean.snap.Injected)
	}
	if clean.snap.PhasesRun != 1 || clean.snap.PhasesSkipped != 0 {
		t.Errorf("clean run phases: %+v", clean.snap)
	}
	if clean.auc < 0.7 {
		t.Errorf("clean AUC = %v, want >= 0.7", clean.auc)
	}

	t.Run("gaps-only", func(t *testing.T) {
		res := run(t, faults.Config{Seed: 5, GapRate: 0.02})
		if res.snap.Injected["gap_days"] == 0 {
			t.Errorf("injected gap days not reported: %v", res.snap.Injected)
		}
		if res.snap.Detected.ImputedCells == 0 {
			t.Errorf("sanitizer imputed nothing despite gaps: %+v", res.snap.Detected)
		}
	})

	t.Run("dropout-only", func(t *testing.T) {
		res := run(t, faults.Config{
			Seed:    5,
			Dropout: []faults.Dropout{{Model: model, Attr: smart.RER, Rate: 0.5}},
		})
		if res.snap.Injected["dropout_columns"] == 0 {
			t.Errorf("injected dropout not reported: %v", res.snap.Injected)
		}
		// Whole-column dropout exceeds any imputation horizon.
		if res.snap.Detected.ResidualCells == 0 {
			t.Errorf("dropout left no residual missing cells: %+v", res.snap.Detected)
		}
	})

	var combined caseResult
	t.Run("combined-paper-realistic", func(t *testing.T) {
		fc, err := faults.ParseSpec("seed=5,gaps=0.02,dropout=MC1:RER:0.5,nan=0.01,tickets-delay=3d")
		if err != nil {
			t.Fatal(err)
		}
		combined = run(t, fc)
		for _, class := range []string{"gap_days", "dropout_columns", "nan_cells", "tickets_delayed"} {
			if combined.snap.Injected[class] == 0 {
				t.Errorf("injected class %s not accounted: %v", class, combined.snap.Injected)
			}
		}
		if combined.snap.Detected.ImputedCells == 0 || combined.snap.Detected.ResidualCells == 0 {
			t.Errorf("detection incomplete: %+v", combined.snap.Detected)
		}
		// Acceptance: paper-realistic faults keep the selection close
		// to the clean one.
		if ov := overlap(clean.selAll, combined.selAll); ov < 0.8 {
			t.Errorf("selection overlap vs clean = %.2f (%v vs %v), want >= 0.8",
				ov, clean.selAll, combined.selAll)
		}
	})

	t.Run("pathological-all-nan", func(t *testing.T) {
		res := run(t, faults.Config{Seed: 5, NaNRate: 1})
		if res.snap.Injected["nan_cells"] == 0 {
			t.Errorf("injected NaN cells not reported: %v", res.snap.Injected)
		}
		if res.snap.Detected.ResidualCells == 0 {
			t.Errorf("all-NaN input left no residual cells: %+v", res.snap.Detected)
		}
		// Quality degrades monotonically: clean >= mild combined >=
		// pathological, with pathological at chance level.
		if clean.auc+1e-9 < combined.auc-0.15 {
			t.Errorf("mild faults improved AUC implausibly: clean %v vs combined %v", clean.auc, combined.auc)
		}
		if combined.auc < res.auc-1e-9 {
			t.Errorf("AUC not monotone: combined %v < pathological %v", combined.auc, res.auc)
		}
		if res.auc > 0.6 {
			t.Errorf("pathological AUC = %v, want chance level", res.auc)
		}
	})
}

// TestRobustCleanSelectionMatchesLegacy: on clean data, robust mode's
// sanitization must not move the selection — the selection frame has
// no mask columns and imputation never fires.
func TestRobustCleanSelectionMatchesLegacy(t *testing.T) {
	src := smallSource(t)
	ph := engine.StandardPhases(src.Days())[2]

	legacy, err := engine.PreparePhase(src, smart.MC1, ph, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	legacySel, err := cheapWEFR(false).Select(legacy.SelFrame, legacy.Curve)
	if err != nil {
		t.Fatal(err)
	}

	rep := &engine.RunReport{}
	robust, err := engine.PreparePhase(src, smart.MC1, ph, robustCfg(rep))
	if err != nil {
		t.Fatal(err)
	}
	robustSel, err := cheapWEFR(true).Select(robust.SelFrame, robust.Curve)
	if err != nil {
		t.Fatal(err)
	}
	if len(legacySel.All) != len(robustSel.All) {
		t.Fatalf("selection sizes differ: %d vs %d", len(legacySel.All), len(robustSel.All))
	}
	for i := range legacySel.All {
		if legacySel.All[i] != robustSel.All[i] {
			t.Errorf("selection diverged at %d: %q vs %q", i, legacySel.All[i], robustSel.All[i])
		}
	}
	if len(robustSel.Dropped) != 0 {
		t.Errorf("clean data dropped rankers: %v", robustSel.Dropped)
	}
	if st := rep.Counter().Snapshot(); st.ImputedCells != 0 || st.SentinelCells != 0 || st.ResidualCells != 0 {
		t.Errorf("sanitizer claims defects on clean data: %+v", st)
	}
}

// panicRanker always panics, standing in for a ranker brought down by
// pathological input.
type panicRanker struct{}

func (panicRanker) Name() string { return "Panicky" }
func (panicRanker) Rank(fr *frame.Frame) (selection.Result, error) {
	panic("synthetic ranker crash")
}

// TestRunReportRankerDrop: a panicking ranker must be dropped from the
// ensemble like an outlier and surface in the run report, not crash
// the run.
func TestRunReportRankerDrop(t *testing.T) {
	src := smallSource(t)
	phases := engine.StandardPhases(src.Days())[2:]
	sel := WEFR{Config: core.Config{
		Rankers: []selection.Ranker{
			selection.Pearson{}, selection.Spearman{}, selection.JIndex{}, panicRanker{},
		},
		Robust: &core.RobustConfig{},
	}}
	rep := &engine.RunReport{}
	results, _, err := engine.Run(src, smart.MC1, sel, phases, robustCfg(rep))
	if err != nil {
		t.Fatalf("run failed despite robust mode: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	snap := rep.Snapshot(nil)
	if len(snap.RankersDropped) == 0 {
		t.Fatal("report does not record the dropped ranker")
	}
	found := false
	for _, d := range snap.RankersDropped {
		if strings.Contains(d, "Panicky") && strings.Contains(d, "synthetic ranker crash") {
			found = true
		}
	}
	if !found {
		t.Errorf("dropped entries lack the panicking ranker: %v", snap.RankersDropped)
	}
	// Without robust mode the same panic propagates. (Serial keeps the
	// panic on this goroutine so the test can observe it.)
	defer func() {
		if recover() == nil {
			t.Error("strict mode swallowed the ranker panic")
		}
	}()
	strict := WEFR{Config: core.Config{
		Rankers: []selection.Ranker{selection.Pearson{}, panicRanker{}},
		Serial:  true,
	}}
	_, _, _ = engine.Run(src, smart.MC1, strict, phases, smallCfg())
}
