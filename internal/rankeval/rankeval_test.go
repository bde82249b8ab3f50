package rankeval

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/forest"
	"repro/internal/selection"
	"repro/internal/simulate"
	"repro/internal/smart"
)

func testSource(t testing.TB) dataset.Source {
	t.Helper()
	f, err := simulate.New(simulate.Config{
		TotalDrives: 600, Seed: 5, AFRScale: 4,
		Models: []smart.ModelID{smart.MC1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dataset.FleetSource{Fleet: f}
}

func testCfg() engine.Config {
	return engine.Config{
		Forest:   forest.Config{NumTrees: 8, MaxDepth: 6, Seed: 1},
		NegEvery: 40,
		Seed:     1,
	}
}

// quickOpts keeps the harness cheap enough for CI smoke runs under
// -race while still exercising every metric.
func quickOpts() Options {
	return Options{Seed: 3, Bootstraps: 3, Seeds: 2, TopK: []int{3, 6}}
}

// TestRankEvalSmoke is the CI rank-eval-smoke entry point: every
// registered ranker plus the WEFR ensemble must evaluate on a small
// fleet without a single ranker error, and every metric must land in
// its defined range.
func TestRankEvalSmoke(t *testing.T) {
	src := testSource(t)
	ph := engine.StandardPhases(src.Days())[2]
	res, err := Run(src, smart.MC1, ph, testCfg(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(selection.Registered()) + 1
	if len(res.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d (every registered ranker + WEFR)", len(res.Rows), wantRows)
	}
	if res.Rows[len(res.Rows)-1].Spec != WEFRSpec {
		t.Errorf("last row spec = %q, want %q", res.Rows[len(res.Rows)-1].Spec, WEFRSpec)
	}
	for _, row := range res.Rows {
		if len(row.Errors) > 0 {
			t.Errorf("%s: ranker errors: %v", row.Name, row.Errors)
		}
		if row.Stability < -1 || row.Stability > 1.0000001 {
			t.Errorf("%s: stability %v out of range", row.Name, row.Stability)
		}
		if row.SeedSimilarity < -1 || row.SeedSimilarity > 1.0000001 {
			t.Errorf("%s: seed similarity %v out of range", row.Name, row.SeedSimilarity)
		}
		if len(row.AUC) != 2 {
			t.Fatalf("%s: %d AUC points, want 2", row.Name, len(row.AUC))
		}
		for _, p := range row.AUC {
			if p.AUC != -1 && (p.AUC < 0 || p.AUC > 1) {
				t.Errorf("%s: AUC@%d = %v out of range", row.Name, p.K, p.AUC)
			}
		}
	}
	// Deterministic rankers must be perfectly seed-stable.
	for _, row := range res.Rows {
		switch row.Spec {
		case "pearson", "spearman", "j-index", "mutual-info":
			if row.SeedSimilarity < 0.9999999 {
				t.Errorf("%s: deterministic ranker seed similarity = %v, want 1", row.Name, row.SeedSimilarity)
			}
		}
	}
}

// TestRankEvalDeterminism pins that a fixed seed reproduces the whole
// report bit for bit, and that it serializes to JSON (no NaNs — the -1
// sentinel convention).
func TestRankEvalDeterminism(t *testing.T) {
	src := testSource(t)
	ph := engine.StandardPhases(src.Days())[2]
	opts := quickOpts()
	opts.Specs = []string{"pearson", "random-forest", "svm-margin"}
	a, err := Run(src, smart.MC1, ph, testCfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testSource(t), smart.MC1, ph, testCfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("reports differ across identical runs:\n%+v\n%+v", a, b)
	}
	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("report not JSON-serializable: %v", err)
	}
	if strings.Contains(string(blob), "NaN") {
		t.Errorf("JSON report contains NaN: %s", blob)
	}
	if got := len(a.Rows); got != 4 {
		t.Errorf("rows = %d, want 3 specs + WEFR", got)
	}
}

func TestRankEvalUnknownSpec(t *testing.T) {
	src := testSource(t)
	ph := engine.StandardPhases(src.Days())[2]
	opts := quickOpts()
	opts.Specs = []string{"no-such-ranker"}
	if _, err := Run(src, smart.MC1, ph, testCfg(), opts); err == nil {
		t.Fatal("unknown spec did not error")
	}
}

func TestRenderTable(t *testing.T) {
	res := Result{
		Model: "MC1", Samples: 10, Features: 4,
		Bootstraps: 2, Seeds: 2, TopK: []int{2}, Seed: 3,
		Rows: []Row{
			{Spec: "pearson", Name: "Pearson", Stability: 0.91234, SeedSimilarity: 1, AUC: []AUCPoint{{K: 2, AUC: 0.75}}},
			{Spec: WEFRSpec, Name: "WEFR ensemble", Stability: -1, SeedSimilarity: -1, AUC: []AUCPoint{{K: 2, AUC: -1}}, Errors: []string{"x"}},
		},
	}
	out := res.Render()
	for _, want := range []string{"Pearson", "WEFR ensemble", "0.912", "AUC@2", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkRun measures one full harness pass: bootstrap stability,
// cross-seed similarity and AUC-vs-k for every registered ranker plus
// the WEFR ensemble, the per-model cost of `experiments -rank-eval`.
// The source is cached and warmed so iterations time the harness, not
// the simulator.
func BenchmarkRun(b *testing.B) {
	src := dataset.NewCachedSource(testSource(b))
	for _, ref := range src.DrivesOf(smart.MC1) {
		if _, _, err := src.Series(ref); err != nil {
			b.Fatal(err)
		}
	}
	ph := engine.StandardPhases(src.Days())[2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(src, smart.MC1, ph, testCfg(), quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if len(row.Errors) > 0 {
				b.Fatalf("%s: %v", row.Name, row.Errors)
			}
		}
	}
}
