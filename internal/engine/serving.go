package engine

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/featgen"
	"repro/internal/smart"
)

// This file is the Scorer surface the serving daemon builds on: a
// pooled-scratch scoring pass (ScoreInto) plus read-only accessors for
// the snapshot's group structure, so a server can route a drive to its
// wear group, assemble that group's model-input columns itself, and
// push micro-batches straight through the group's compiled model.

// ScoreInto scores days [lo, hi] exactly like Score but reuses buf's
// per-drive score accumulators, frame column storage and outcome slice
// across calls, so repeated passes (a serving daemon's fleet endpoint,
// the controller's daily summaries) do not re-allocate them.
// Featurization still allocates per drive on every call (its series
// views and window statistics are built fresh). The returned outcomes
// alias buf and are valid only until its next use; results are
// bit-identical to Score.
func (s *Scorer) ScoreInto(src dataset.Source, lo, hi int, buf *ScoreBuf) ([]DriveOutcome, error) {
	if buf == nil {
		return s.Score(src, lo, hi)
	}
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("engine: bad scoring window [%d, %d]", lo, hi)
	}
	scores, _, err := scorePhaseInto(src, s.snap.Model, s.groups, lo, hi, s.cfg, buf)
	if err != nil {
		return nil, fmt.Errorf("engine: snapshot scoring: %w", err)
	}
	return finalizeOutcomesInto(scores, s.snap.Thresholds, hi, buf), nil
}

// NumGroups returns the number of trained wear groups.
func (s *Scorer) NumGroups() int { return len(s.groups) }

// GroupFeatures returns a copy of group g's selected original features
// in model-input order. The model's input columns are these features
// followed by each feature's generated window statistics (featgen
// order): [f0..fk, f0.stats(w0)..f0.stats(wn), f1.stats(w0)..].
func (s *Scorer) GroupFeatures(g int) []smart.Feature {
	return append([]smart.Feature(nil), s.groups[g].feats...)
}

// GroupMWIBounds returns group g's wear filter (0 = unbounded on that
// side), with the same semantics the engine applies when routing
// drive-days: a day belongs to the group when (below == 0 or
// mwi < below) and (atLeast == 0 or mwi >= atLeast). A NaN wear index
// fails every >= comparison, so it lands in the low-wear group only.
func (s *Scorer) GroupMWIBounds(g int) (below, atLeast float64) {
	return s.groups[g].mwiBelow, s.groups[g].mwiAtLeast
}

// GroupThreshold returns group g's calibrated alarm threshold.
func (s *Scorer) GroupThreshold(g int) float64 { return s.snap.Thresholds[g] }

// PickGroup returns the index of the wear group that scores a day with
// the given wear index, or -1 when no group admits it. The comparison
// logic mirrors the engine's frame-extraction routing bit for bit,
// including the NaN behavior documented on GroupMWIBounds.
func (s *Scorer) PickGroup(mwi float64) int {
	for g := range s.groups {
		gr := &s.groups[g]
		if gr.mwiBelow > 0 && mwi >= gr.mwiBelow {
			continue
		}
		if gr.mwiAtLeast > 0 && !(mwi >= gr.mwiAtLeast) {
			continue
		}
		return g
	}
	return -1
}

// GroupInputWidth returns the number of model-input columns group g
// expects: the selected features plus their generated window
// statistics.
func (s *Scorer) GroupInputWidth(g int) int {
	n := len(s.groups[g].feats)
	return n + n*featgen.NumGenerated(s.Windows())
}

// ScoreBatch scores a pre-assembled batch through group g's trained
// model: cols must hold GroupInputWidth(g) equal-length model-input
// columns, and out must have that common length. Probabilities are
// row-local — batch composition does not affect them — so a
// micro-batched server produces bit-identical probabilities to
// one-at-a-time scoring.
func (s *Scorer) ScoreBatch(g int, cols [][]float64, out []float64) error {
	if g < 0 || g >= len(s.groups) {
		return fmt.Errorf("engine: group %d out of range [0, %d)", g, len(s.groups))
	}
	if want := s.GroupInputWidth(g); len(cols) != want {
		return fmt.Errorf("engine: group %d expects %d input columns, got %d", g, want, len(cols))
	}
	for i := range cols {
		if len(cols[i]) != len(out) {
			return fmt.Errorf("engine: column %d has %d rows, want %d", i, len(cols[i]), len(out))
		}
	}
	return s.groups[g].model.PredictProbaBatch(cols, out)
}

// Windows returns the feature-generation windows scoring must use,
// with the dataset defaults applied when the snapshot recorded none.
func (s *Scorer) Windows() []int {
	if len(s.cfg.Windows) > 0 {
		return s.cfg.Windows
	}
	return featgen.DefaultWindows
}

// MaxWindow returns the largest feature-generation window — the
// series history a caller must supply before the scored day for
// generated statistics to match the engine's bit for bit.
func (s *Scorer) MaxWindow() int {
	max := 0
	for _, w := range s.Windows() {
		if w > max {
			max = w
		}
	}
	return max
}

// MWIFeature is the normalized media-wearout-indicator column the
// engine reads the routing wear index from.
var MWIFeature = smart.Feature{Attr: smart.MWI, Kind: smart.Normalized}
