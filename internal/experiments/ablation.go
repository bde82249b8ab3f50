package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/smart"
	"repro/internal/textplot"
)

// AblationVariant is one WEFR configuration variant under ablation.
type AblationVariant struct {
	// Name describes the variant.
	Name string
	// Config is the WEFR configuration.
	Config core.Config
}

// AblationResult compares WEFR design choices — rank aggregation and
// Kendall-tau outlier removal — on prediction accuracy for one model.
// This is the quality-side companion of the runtime ablation
// benchmarks in bench_test.go.
type AblationResult struct {
	Model    smart.ModelID
	Variants []AblationVariant
	Scores   []MethodScore
	Selected []int // features selected by each variant (last phase)
}

// Ablation evaluates the design-choice variants on MC1 over the
// configured phases: the paper's mean aggregation with outlier removal
// (the default), median and best-rank aggregation, and mean
// aggregation with outlier removal disabled.
func (h *Harness) Ablation() (AblationResult, error) {
	model := smart.MC1
	variants := []AblationVariant{
		{Name: "mean + outlier removal (paper)", Config: core.Config{Seed: h.cfg.Seed}},
		{Name: "median aggregation", Config: core.Config{Seed: h.cfg.Seed, Aggregate: core.AggregateMedian}},
		{Name: "best-rank aggregation", Config: core.Config{Seed: h.cfg.Seed, Aggregate: core.AggregateBest}},
		{Name: "no outlier removal", Config: core.Config{Seed: h.cfg.Seed, OutlierZ: 1e9}},
	}
	res := AblationResult{Model: model, Variants: variants}
	cfg := h.pipelineConfig()
	for _, v := range variants {
		var total metrics.Confusion
		selected := 0
		for _, ph := range h.phases() {
			pr, err := engine.RunPhase(h.src, model, pipeline.WEFR{Config: v.Config}, ph, cfg)
			if err != nil {
				return AblationResult{}, fmt.Errorf("experiments: ablation %q: %w", v.Name, err)
			}
			total.Merge(pr.Confusion)
			selected = len(pr.Selection.All)
		}
		res.Scores = append(res.Scores, scoreOf(total))
		res.Selected = append(res.Selected, selected)
	}
	return res, nil
}

// Render formats the ablation comparison.
func (r AblationResult) Render() string {
	header := []string{"Variant", "Feats", "P", "R", "F0.5"}
	var rows [][]string
	for i, v := range r.Variants {
		s := r.Scores[i]
		rows = append(rows, []string{
			v.Name,
			fmt.Sprintf("%d", r.Selected[i]),
			textplot.Percent(s.Precision),
			textplot.Percent(s.Recall),
			textplot.Percent(s.F05),
		})
	}
	return fmt.Sprintf("Design-choice ablation on %s (WEFR variants)\n", r.Model) +
		textplot.Table(header, rows)
}
