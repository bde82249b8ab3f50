package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/smart"
	"repro/internal/textplot"
)

// Exp3Row compares WEFR with and without the wear-out update on one
// model, over all drives and over the low-MWI_N group only.
type Exp3Row struct {
	Model smart.ModelID
	// ThresholdMWI is the wear split used for the Low columns.
	ThresholdMWI float64
	NoUpdateAll  MethodScore
	NoUpdateLow  MethodScore
	WEFRAll      MethodScore
	WEFRLow      MethodScore
}

// Exp3Result is the updating-feature-selection evaluation (Table VII),
// run on the models whose survival curve has a change point.
type Exp3Result struct {
	Rows []Exp3Row
	// Skipped lists models with no change point.
	Skipped []smart.ModelID
}

// Exp3 runs Table VII: WEFR versus WEFR (No update) on the wear-split
// models, reporting both all-drive and low-MWI-group accuracy.
func (h *Harness) Exp3() (Exp3Result, error) {
	cfg := h.pipelineConfig()
	phases := h.phases()
	var res Exp3Result
	for _, m := range h.cfg.Models {
		full, err := engine.RunPhase(h.src, m, pipeline.WEFR{Config: h.wefrConfig()}, phases[len(phases)-1], cfg)
		if err != nil {
			return Exp3Result{}, fmt.Errorf("experiments: exp3 probe %v: %w", m, err)
		}
		if full.Selection.Split == nil {
			res.Skipped = append(res.Skipped, m)
			continue
		}
		threshold := full.Selection.Split.ThresholdMWI

		row := Exp3Row{Model: m, ThresholdMWI: threshold}
		var allUp, lowUp, allNo, lowNo metrics.Confusion
		for _, ph := range phases {
			up, err := engine.RunPhase(h.src, m, pipeline.WEFR{Config: h.wefrConfig()}, ph, cfg)
			if err != nil {
				return Exp3Result{}, fmt.Errorf("experiments: exp3 %v: %w", m, err)
			}
			no, err := engine.RunPhase(h.src, m, pipeline.WEFR{Config: h.wefrConfig(), NoUpdate: true}, ph, cfg)
			if err != nil {
				return Exp3Result{}, fmt.Errorf("experiments: exp3 %v no-update: %w", m, err)
			}
			allUp.Merge(up.Confusion)
			allNo.Merge(no.Confusion)
			thr := threshold
			if up.Selection.Split != nil {
				thr = up.Selection.Split.ThresholdMWI
			}
			lowUp.Merge(engine.EvaluateLowMWI(up.Outcomes, thr))
			lowNo.Merge(engine.EvaluateLowMWI(no.Outcomes, thr))
		}
		row.WEFRAll = scoreOf(allUp)
		row.WEFRLow = scoreOf(lowUp)
		row.NoUpdateAll = scoreOf(allNo)
		row.NoUpdateLow = scoreOf(lowNo)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats Table VII.
func (r Exp3Result) Render() string {
	header := []string{"Model", "Metric", "No update All", "No update Low", "WEFR All", "WEFR Low"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows,
			[]string{row.Model.String(), "Precision",
				textplot.Percent(row.NoUpdateAll.Precision), textplot.Percent(row.NoUpdateLow.Precision),
				textplot.Percent(row.WEFRAll.Precision), textplot.Percent(row.WEFRLow.Precision)},
			[]string{"", "Recall",
				textplot.Percent(row.NoUpdateAll.Recall), textplot.Percent(row.NoUpdateLow.Recall),
				textplot.Percent(row.WEFRAll.Recall), textplot.Percent(row.WEFRLow.Recall)},
			[]string{"", "F0.5",
				textplot.Percent(row.NoUpdateAll.F05), textplot.Percent(row.NoUpdateLow.F05),
				textplot.Percent(row.WEFRAll.F05), textplot.Percent(row.WEFRLow.F05)},
		)
	}
	out := "Table VII (Exp#3): WEFR vs WEFR (No update)\n" + textplot.Table(header, rows)
	if len(r.Skipped) > 0 {
		out += "No change point (skipped):"
		for _, m := range r.Skipped {
			out += " " + m.String()
		}
		out += "\n"
	}
	return out
}
