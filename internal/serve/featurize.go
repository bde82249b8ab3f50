package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/smart"
)

// featurize.go turns a resolved series into one model-input row
// through the engine's row assembly — the same code the offline
// scoring pass runs for every drive-day — so with at least maxWindow
// days of history before the scored day, online scores match offline
// ones bit for bit.

// featScratch is the pooled working state of one single-drive row.
type featScratch struct {
	row []float64
	rs  engine.RowScratch
}

var featPool sync.Pool

// getScratch returns scratch whose row holds width columns.
func getScratch(width int) *featScratch {
	fs, _ := featPool.Get().(*featScratch)
	if fs == nil {
		fs = &featScratch{}
	}
	if cap(fs.row) < width {
		fs.row = make([]float64, width)
	}
	fs.row = fs.row[:width]
	return fs
}

func putScratch(fs *featScratch) { featPool.Put(fs) }

// featurize fills row with group g's model inputs for the given day of
// the series. Series columns must all have length > day; a selected
// feature the series lacks is the client's error.
func (sv *serving) featurize(g *groupRT, series map[smart.Feature][]float64, day int, row []float64, rs *engine.RowScratch) error {
	err := sv.scorer.Featurize(g.index, series, day, row, rs)
	var missing *dataset.MissingFeatureError
	if errors.As(err, &missing) {
		return &reqError{code: 400, msg: fmt.Sprintf("series is missing selected feature %v", missing.Feature)}
	}
	return err
}

// routeMWI extracts the wear index the engine would route the day by:
// the normalized MWI column at the scored day when present, else 0 —
// the same default the engine's extraction applies to series without
// a wear column. An explicit override wins.
func routeMWI(series map[smart.Feature][]float64, day int, override *float64) float64 {
	if override != nil {
		return *override
	}
	if col, ok := series[engine.MWIFeature]; ok && day < len(col) {
		return col[day]
	}
	return 0
}

// checkSeries validates an inline series upload against the serving
// snapshot: parseable feature names, equal column lengths, and a
// bounded span. It returns the parsed columns and the common length.
func (sv *serving) checkSeries(raw map[string][]float64, maxDays int) (map[smart.Feature][]float64, int, error) {
	if len(raw) == 0 {
		return nil, 0, &reqError{code: 400, msg: "series is empty"}
	}
	cols := make(map[smart.Feature][]float64, len(raw))
	n := -1
	for name, vals := range raw {
		ft, err := smart.ParseFeature(name)
		if err != nil {
			return nil, 0, &reqError{code: 400, msg: fmt.Sprintf("unknown feature %q", name)}
		}
		if len(vals) == 0 {
			return nil, 0, &reqError{code: 400, msg: fmt.Sprintf("feature %q has an empty series", name)}
		}
		if len(vals) > maxDays {
			return nil, 0, &reqError{code: 413, msg: fmt.Sprintf("feature %q has %d days, limit %d", name, len(vals), maxDays)}
		}
		if n < 0 {
			n = len(vals)
		} else if len(vals) != n {
			return nil, 0, &reqError{code: 400, msg: fmt.Sprintf("feature %q has %d days, other columns have %d", name, len(vals), n)}
		}
		for _, v := range vals {
			if math.IsInf(v, 0) {
				return nil, 0, &reqError{code: 400, msg: fmt.Sprintf("feature %q contains an infinite value", name)}
			}
		}
		cols[ft] = vals
	}
	return cols, n, nil
}
