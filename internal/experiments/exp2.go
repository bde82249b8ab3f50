package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/selection"
	"repro/internal/smart"
	"repro/internal/textplot"
)

// Exp2Model is one model's automated-selection evaluation: the F0.5 of
// each fixed percentage (using the ensemble final ranking truncated at
// that percentage would require bespoke plumbing, so — like the paper's
// comparison — the sweep uses the best-performing single approach
// truncated at each percentage), against WEFR's automatic choice.
type Exp2Model struct {
	Model smart.ModelID
	// Percents and F05 trace the fixed-percentage curve.
	Percents []float64
	F05      []float64
	// WEFRPercent is the fraction of features WEFR selected
	// automatically; WEFRF05 is its accuracy.
	WEFRPercent float64
	WEFRF05     float64
}

// Exp2Result is the automated feature selection evaluation (Fig 2).
type Exp2Result struct {
	Models []Exp2Model
}

// Exp2 runs Figure 2: for each model, the F0.5-score when fixing the
// selected-feature percentage across the sweep grid (Random Forest
// ranking, the approach the paper's prediction model uses) versus
// WEFR's automatically determined count.
func (h *Harness) Exp2() (Exp2Result, error) {
	cfg := h.pipelineConfig()
	phases := h.phases()
	var res Exp2Result
	for _, m := range h.cfg.Models {
		em := Exp2Model{Model: m}
		for _, pct := range h.cfg.SweepPercents {
			sel := pipeline.SingleRanker{
				Ranker:  selection.RandomForest{Seed: h.cfg.Seed},
				Percent: pct,
			}
			_, total, err := engine.Run(h.src, m, sel, phases, cfg)
			if err != nil {
				return Exp2Result{}, fmt.Errorf("experiments: exp2 %v at %.0f%%: %w", m, pct*100, err)
			}
			em.Percents = append(em.Percents, pct)
			em.F05 = append(em.F05, total.F05())
		}
		// NoUpdate isolates the automated feature count, which is what
		// Fig 2 evaluates; the wear-out split is Exp#3's subject.
		results, total, err := engine.Run(h.src, m, pipeline.WEFR{Config: h.wefrConfig(), NoUpdate: true}, phases, cfg)
		if err != nil {
			return Exp2Result{}, fmt.Errorf("experiments: exp2 %v wefr: %w", m, err)
		}
		em.WEFRF05 = total.F05()
		// Selected percentage: features WEFR kept over all available,
		// averaged across phases.
		spec := smart.MustSpec(m)
		all := float64(2 * len(spec.Attrs))
		var sum float64
		for _, pr := range results {
			sum += float64(len(pr.Selection.All)) / all
		}
		em.WEFRPercent = sum / float64(len(results))
		res.Models = append(res.Models, em)
	}
	return res, nil
}

// Render draws one plot per model: the fixed-percentage curve with
// WEFR's automatic point marked.
func (r Exp2Result) Render() string {
	out := "Figure 2 (Exp#2): F0.5 vs fixed selected-feature percentage; o = WEFR's automatic choice\n"
	for _, em := range r.Models {
		pcts := make([]float64, len(em.Percents))
		for i, p := range em.Percents {
			pcts[i] = p * 100
		}
		series := []textplot.Series{
			{Name: "fixed percentage", X: pcts, Y: em.F05, Marker: '*'},
			{Name: fmt.Sprintf("WEFR (%.0f%%, F0.5=%.2f)", em.WEFRPercent*100, em.WEFRF05),
				X: []float64{em.WEFRPercent * 100}, Y: []float64{em.WEFRF05}, Marker: 'o'},
		}
		plot, err := textplot.Plot(em.Model.String(), series, 64, 10)
		if err != nil {
			plot = fmt.Sprintf("%v: %v\n", em.Model, err)
		}
		out += plot + "\n"
	}
	return out
}

// BestFixedF05 returns the best F0.5 along the fixed-percentage sweep.
func (em Exp2Model) BestFixedF05() float64 {
	best := 0.0
	for _, f := range em.F05 {
		if f > best {
			best = f
		}
	}
	return best
}
