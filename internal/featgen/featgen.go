// Package featgen implements the statistical feature generation of
// Section V-A of the WEFR paper: for each original (selected) SMART
// feature, the maximum, minimum, mean, standard deviation, range
// (difference between maximum and minimum), and recency-weighted moving
// average over trailing 3-day and 7-day windows, producing 12 generated
// features per original feature.
//
// One kernel, WindowStats, computes every statistic: for one series and
// one day it walks the widest window once and feeds each finite sample
// to every window that covers it. Training and selection frames reach
// it through GenerateRangeInto (one call per day), and the engine's
// scoring and serving row assembly calls it per feature, so train,
// score and serve share one statistics implementation.
package featgen

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// DefaultWindows are the paper's window lengths in days.
var DefaultWindows = []int{3, 7}

// statNames are the per-window statistic suffixes, in output order.
var statNames = [...]string{"max", "min", "mean", "std", "range", "wma"}

// StatsPerWindow is the number of statistics generated per window.
const StatsPerWindow = len(statNames)

// ErrNoWindows indicates an empty window list.
var ErrNoWindows = errors.New("featgen: no windows")

// WindowError reports a non-positive window length in a window list.
type WindowError struct {
	Window int
}

func (e *WindowError) Error() string {
	return fmt.Sprintf("featgen: window %d is not positive", e.Window)
}

// CheckWindows returns a *WindowError for the first non-positive window
// in windows. Callers validate a window list once, where it enters the
// system, so the kernel's per-row loop needs no check.
func CheckWindows(windows []int) error {
	for _, w := range windows {
		if w <= 0 {
			return &WindowError{Window: w}
		}
	}
	return nil
}

// Names returns the generated feature names for one base feature, in
// the same order WindowStats writes columns: for each window, the six
// statistics suffixed ".<stat><window>" (e.g. "UCE_R.max3").
func Names(base string, windows []int) []string {
	out := make([]string, 0, len(windows)*StatsPerWindow)
	for _, w := range windows {
		for _, s := range statNames {
			out = append(out, fmt.Sprintf("%s.%s%d", base, s, w))
		}
	}
	return out
}

// GenerateRangeInto writes the generated feature columns of series for
// days from through to (inclusive) into dst: dst must hold
// NumGenerated(windows) columns of length at least to-from+1, and index
// t of each holds day from+t (trailing windows still look back past
// from into the full series). It is one WindowStats call per day and
// allocates nothing. scratch is unused and returned as given: the
// parameter remains only because the benchmark module's featgen replay
// passes one.
func GenerateRangeInto(dst [][]float64, series []float64, windows []int, from, to int, scratch []stats.RollingStats) ([]stats.RollingStats, error) {
	if len(windows) == 0 {
		return scratch, ErrNoWindows
	}
	if err := CheckWindows(windows); err != nil {
		return scratch, err
	}
	if len(dst) != NumGenerated(windows) {
		return scratch, fmt.Errorf("featgen: %d destination columns, need %d", len(dst), NumGenerated(windows))
	}
	if from < 0 || to >= len(series) || from > to {
		return scratch, fmt.Errorf("featgen: day range [%d, %d] outside series of %d days", from, to, len(series))
	}
	for day := from; day <= to; day++ {
		WindowStats(dst, day-from, series, day, windows)
	}
	return scratch, nil
}

// fusedWindows is the number of windows one walk of the series feeds;
// longer window lists take one walk per group of this many.
const fusedWindows = 4

// windowAcc accumulates one window's statistics: Welford's running
// mean and M2, the extremes, and the recency-weighted sum.
type windowAcc struct {
	lo       int // first day of the window
	n        int
	mean, m2 float64
	min, max float64
	num, den float64
}

// WindowStats writes the statistics of series over each trailing
// window ending at day into row r of dst: dst[wi*StatsPerWindow+s][r]
// is statistic s (max, min, mean, std, range, wma) of windows[wi],
// whose days are [max(0, day-w+1), day]. Non-finite samples are
// skipped; the WMA weights a sample by its position in the window
// (1 for the window's first day), and a window with no finite sample
// yields NaN for all six. Windows must be positive (see CheckWindows)
// and day < len(series). It allocates nothing.
func WindowStats(dst [][]float64, r int, series []float64, day int, windows []int) {
	for len(windows) > fusedWindows {
		windowStats(dst, r, series, day, windows[:fusedWindows])
		dst, windows = dst[fusedWindows*StatsPerWindow:], windows[fusedWindows:]
	}
	windowStats(dst, r, series, day, windows)
}

// windowStats is WindowStats for at most fusedWindows windows: one walk
// over the widest window's days, each sample read and checked once and
// added, in day order, to every window covering it.
func windowStats(dst [][]float64, r int, series []float64, day int, windows []int) {
	var accs [fusedWindows]windowAcc
	acc := accs[:len(windows)]
	start := day
	for i, w := range windows {
		lo := max(0, day-w+1)
		acc[i] = windowAcc{lo: lo, min: math.Inf(1), max: math.Inf(-1)}
		start = min(start, lo)
	}
	for k, x := range series[start : day+1] {
		if x-x != 0 { // non-finite
			continue
		}
		j := start + k
		for i := range acc {
			a := &acc[i]
			if j < a.lo {
				continue
			}
			a.n++
			delta := x - a.mean
			a.mean += delta / float64(a.n)
			a.m2 += delta * (x - a.mean)
			if x < a.min {
				a.min = x
			}
			if x > a.max {
				a.max = x
			}
			wt := float64(j - a.lo + 1)
			a.num += x * wt
			a.den += wt
		}
	}
	for i := range acc {
		a := &acc[i]
		cols := dst[i*StatsPerWindow : (i+1)*StatsPerWindow : (i+1)*StatsPerWindow]
		if a.n == 0 {
			nan := math.NaN()
			for _, c := range cols {
				c[r] = nan
			}
			continue
		}
		cols[0][r] = a.max
		cols[1][r] = a.min
		cols[2][r] = a.mean
		cols[3][r] = math.Sqrt(a.m2 / float64(a.n))
		cols[4][r] = a.max - a.min
		cols[5][r] = a.num / a.den
	}
}

// NumGenerated returns the number of generated features per original
// feature for the given windows.
func NumGenerated(windows []int) int { return len(windows) * StatsPerWindow }
