package featgen

import (
	"math"
	"testing"
)

// fuzzPalette holds the values a fuzz byte below its length decodes
// to: non-finite samples, signed zeros, and magnitudes whose sums and
// squares overflow.
var fuzzPalette = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1e300, -1e300, 3e300, math.MaxFloat64, 5e-324, 1, -1,
}

// fuzzWindowSets are the window lists every fuzz input is checked
// under: the defaults in both orders, a single day, a duplicate, and
// lists as long as one fused walk and longer.
var fuzzWindowSets = [][]int{{3, 7}, {7, 3}, {1}, {3, 3}, {2, 5, 9, 30}, {30, 1, 7, 3, 2, 9}}

// unwritten marks a destination cell no statistic has been written to.
const unwritten = -1.2345e-200

// decodeSeries turns fuzz bytes into a series of at most 64 days.
func decodeSeries(data []byte) []float64 {
	if len(data) > 64 {
		data = data[:64]
	}
	xs := make([]float64, len(data))
	for i, b := range data {
		if int(b) < len(fuzzPalette) {
			xs[i] = fuzzPalette[b]
		} else {
			xs[i] = float64(int8(b)) * 0.75
		}
	}
	return xs
}

// sameStat reports whether two statistics are bit-identical, with any
// NaN equal to any NaN.
func sameStat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// FuzzWindowStats checks the fused kernel, called day by day and
// through multi-day GenerateRangeInto, against the per-window
// reference bit for bit, on every day of the series (partial windows
// included) under each window list of fuzzWindowSets.
func FuzzWindowStats(f *testing.F) {
	f.Add([]byte{20, 40, 60, 80, 100, 120, 140, 160}, uint8(0), uint8(255))
	f.Add([]byte{0, 20, 1, 40, 2, 60, 0, 0, 3, 4, 80}, uint8(3), uint8(4))
	f.Add([]byte{5, 5, 6, 7, 8, 5, 9, 10, 11, 4, 3, 0, 200, 5}, uint8(1), uint8(9))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 30}, uint8(6), uint8(2))
	f.Add([]byte{3, 4, 4, 3, 0, 4, 3, 250, 1, 2, 20, 21, 22, 23, 24, 25, 26, 27,
		28, 29, 30, 31, 32, 33, 34, 35, 0, 36, 37, 38, 39, 40, 41, 5, 6, 42}, uint8(20), uint8(15))
	f.Fuzz(func(t *testing.T, data []byte, lo, span uint8) {
		xs := decodeSeries(data)
		n := len(xs)
		if n == 0 {
			return
		}
		from := int(lo) % n
		to := from + int(span)%(n-from)
		for _, windows := range fuzzWindowSets {
			want := make([][]refStats, len(windows))
			for wi, w := range windows {
				want[wi] = refRolling(xs, w)
			}
			check := func(how string, cols [][]float64, r, day int) {
				for wi, w := range windows {
					ref := want[wi][day]
					exp := [StatsPerWindow]float64{ref.Max, ref.Min, ref.Mean, ref.Std, ref.Range, ref.WMA}
					for s, e := range exp {
						if got := cols[wi*StatsPerWindow+s][r]; !sameStat(got, e) {
							t.Fatalf("%s, windows %v, day %d: %s%d = %v (%#x), reference %v (%#x)",
								how, windows, day, statNames[s], w, got, math.Float64bits(got), e, math.Float64bits(e))
						}
					}
				}
			}
			cols := make([][]float64, NumGenerated(windows))
			for c := range cols {
				cols[c] = make([]float64, n)
			}
			for day := range xs {
				WindowStats(cols, day, xs, day, windows)
				check("WindowStats", cols, day, day)
			}
			// Fresh cells holding a value no window yields, so a day
			// GenerateRangeInto leaves unwritten fails the check.
			for c := range cols {
				cols[c] = cols[c][:to-from+1]
				for r := range cols[c] {
					cols[c][r] = unwritten
				}
			}
			if _, err := GenerateRangeInto(cols, xs, windows, from, to, nil); err != nil {
				t.Fatal(err)
			}
			for day := from; day <= to; day++ {
				check("GenerateRangeInto", cols, day-from, day)
			}
		}
	})
}
