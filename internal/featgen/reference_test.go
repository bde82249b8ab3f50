package featgen

import (
	"math"

	"repro/internal/stats"
)

// refStats is one window's statistics as refRollingInto computes them.
type refStats struct {
	Max, Min, Mean, Std, Range, WMA float64
}

// refRollingInto is the per-window reference WindowStats must match bit
// for bit: for each day i of [from, to] (out[i-from]), a fresh
// stats.Welford, extremes and weighted sum over that day's trailing
// window [max(0, i-window+1), i] alone, skipping non-finite samples.
func refRollingInto(out []refStats, xs []float64, window, from, to int) {
	for i := from; i <= to; i++ {
		lo := max(0, i-window+1)
		var w stats.Welford
		minV, maxV := math.Inf(1), math.Inf(-1)
		var num, den float64
		for j := lo; j <= i; j++ {
			x := xs[j]
			if x-x != 0 { // non-finite
				continue
			}
			w.Add(x)
			if x < minV {
				minV = x
			}
			if x > maxV {
				maxV = x
			}
			wt := float64(j - lo + 1)
			num += x * wt
			den += wt
		}
		if w.Count() == 0 {
			nan := math.NaN()
			out[i-from] = refStats{Max: nan, Min: nan, Mean: nan, Std: nan, Range: nan, WMA: nan}
			continue
		}
		out[i-from] = refStats{
			Max:   maxV,
			Min:   minV,
			Mean:  w.Mean(),
			Std:   w.StdDev(),
			Range: maxV - minV,
			WMA:   num / den,
		}
	}
}

// refRolling is refRollingInto over every day of xs.
func refRolling(xs []float64, window int) []refStats {
	out := make([]refStats, len(xs))
	refRollingInto(out, xs, window, 0, len(xs)-1)
	return out
}

// kernelRolling is WindowStats over every day of xs for one window,
// reached through GenerateRangeInto, in refStats form.
func kernelRolling(xs []float64, window int) []refStats {
	cols, err := generate(xs, []int{window})
	if err != nil {
		panic(err)
	}
	out := make([]refStats, len(xs))
	for i := range out {
		out[i] = refStats{cols[0][i], cols[1][i], cols[2][i], cols[3][i], cols[4][i], cols[5][i]}
	}
	return out
}

// rollingImpls are the two implementations the hand-computed window
// assertions hold for.
var rollingImpls = []struct {
	name string
	roll func(xs []float64, window int) []refStats
}{
	{"kernel", kernelRolling},
	{"reference", refRolling},
}
