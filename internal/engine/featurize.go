package engine

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/featgen"
	"repro/internal/smart"
)

// featurize.go is the one model-input row assembly shared by fleet
// scoring (the scoring pass) and the serving daemon (Scorer.Featurize):
// a group's selected features at the scored day, then — per feature —
// featgen's window statistics, whose trailing windows look back through
// the drive's series. The statistics come from featgen.WindowStats,
// the kernel dataset.Frame's expansion also reaches (through
// featgen.GenerateRangeInto), so the two are bit-identical.

// featurizeRow writes one drive-day's model inputs into cell r of dst,
// the group's input columns: dst[k] holds feature k's value on day, and
// dst[n+k*nGen+j] its j-th generated statistic, for n features and nGen
// statistics per feature. series[k] is the drive's column for feats[k],
// nil when the drive does not report it, which fails with
// *dataset.MissingFeatureError naming the first such feature. windows
// must have passed featgen.CheckWindows.
func featurizeRow(dst [][]float64, r int, feats []smart.Feature, series [][]float64, day int, windows []int) error {
	n := len(feats)
	nGen := featgen.NumGenerated(windows)
	for k, ft := range feats {
		col := series[k]
		if col == nil {
			return &dataset.MissingFeatureError{Feature: ft}
		}
		if day >= len(col) {
			return fmt.Errorf("engine: expand %v: day %d outside series of %d days", ft, day, len(col))
		}
		dst[k][r] = col[day]
		base := n + k*nGen
		featgen.WindowStats(dst[base:base+nGen], r, col, day, windows)
	}
	return nil
}

// RowScratch is reusable working state for Scorer.Featurize. The zero
// value is ready to use; a RowScratch must not be used concurrently.
type RowScratch struct {
	cells  [][]float64 // single-cell views into the row being written
	series [][]float64
}

// Featurize writes group g's model-input row for one day of a drive's
// series into row, which must hold GroupInputWidth(g) values. It is the
// assembly the fleet scoring pass applies to every drive-day, so given
// at least MaxWindow days of history before day, a row scored through
// ScoreBatch matches the offline score bit for bit. Every series column
// must extend past day. A selected feature absent from the series
// fails with *dataset.MissingFeatureError. Once sc has served a row of
// this width, it allocates nothing.
func (s *Scorer) Featurize(g int, series map[smart.Feature][]float64, day int, row []float64, sc *RowScratch) error {
	if g < 0 || g >= len(s.groups) {
		return fmt.Errorf("engine: group %d out of range [0, %d)", g, len(s.groups))
	}
	if want := s.GroupInputWidth(g); len(row) != want {
		return fmt.Errorf("engine: group %d expects %d input columns, got a row of %d", g, want, len(row))
	}
	feats := s.groups[g].feats
	sc.series = sc.series[:0]
	for _, ft := range feats {
		sc.series = append(sc.series, series[ft])
	}
	if cap(sc.cells) < len(row) {
		sc.cells = make([][]float64, len(row))
	}
	cells := sc.cells[:len(row)]
	for c := range cells {
		cells[c] = row[c : c+1]
	}
	return featurizeRow(cells, 0, feats, sc.series, day, s.Windows())
}
