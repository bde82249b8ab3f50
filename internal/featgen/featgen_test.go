package featgen

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

const eps = 1e-9

// generate is GenerateRangeInto over every day of series into fresh
// columns.
func generate(series []float64, windows []int) ([][]float64, error) {
	cols := make([][]float64, NumGenerated(windows))
	for i := range cols {
		cols[i] = make([]float64, len(series))
	}
	if _, err := GenerateRangeInto(cols, series, windows, 0, len(series)-1, nil); err != nil {
		return nil, err
	}
	return cols, nil
}

func TestNames(t *testing.T) {
	names := Names("UCE_R", DefaultWindows)
	if len(names) != 12 {
		t.Fatalf("names len = %d, want 12", len(names))
	}
	want := []string{
		"UCE_R.max3", "UCE_R.min3", "UCE_R.mean3", "UCE_R.std3", "UCE_R.range3", "UCE_R.wma3",
		"UCE_R.max7", "UCE_R.min7", "UCE_R.mean7", "UCE_R.std7", "UCE_R.range7", "UCE_R.wma7",
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestGenerateShape(t *testing.T) {
	series := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cols, err := generate(series, DefaultWindows)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != NumGenerated(DefaultWindows) {
		t.Fatalf("cols = %d, want %d", len(cols), NumGenerated(DefaultWindows))
	}
	// Day 9 of the 7-day window is [4, 10]: max 10, mean 7.
	if cols[6][9] != 10 || cols[8][9] != 7 {
		t.Errorf("7-day max/mean at day 9 = %v/%v, want 10/7", cols[6][9], cols[8][9])
	}
}

func TestGenerateValues(t *testing.T) {
	series := []float64{4, 2, 6}
	cols, err := generate(series, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	// Day 2, full window [4, 2, 6].
	if cols[0][2] != 6 { // max
		t.Errorf("max = %v", cols[0][2])
	}
	if cols[1][2] != 2 { // min
		t.Errorf("min = %v", cols[1][2])
	}
	if cols[2][2] != 4 { // mean
		t.Errorf("mean = %v", cols[2][2])
	}
	if cols[4][2] != 4 { // range
		t.Errorf("range = %v", cols[4][2])
	}
	// WMA weights 1,2,3: (4 + 4 + 18)/6.
	if math.Abs(cols[5][2]-26.0/6) > 1e-12 {
		t.Errorf("wma = %v, want %v", cols[5][2], 26.0/6)
	}
	// Day 0: degenerate partial window.
	if cols[0][0] != 4 || cols[1][0] != 4 || cols[3][0] != 0 {
		t.Errorf("day 0 stats = max %v min %v std %v", cols[0][0], cols[1][0], cols[3][0])
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := generate([]float64{1}, nil); !errors.Is(err, ErrNoWindows) {
		t.Errorf("no windows error = %v", err)
	}
	var we *WindowError
	if _, err := generate([]float64{1}, []int{3, 0}); !errors.As(err, &we) || we.Window != 0 {
		t.Errorf("zero window error = %v, want *WindowError for window 0", err)
	}
	if err := CheckWindows([]int{7, -2}); !errors.As(err, &we) || we.Window != -2 {
		t.Errorf("CheckWindows([7 -2]) = %v, want *WindowError for window -2", err)
	}
	if err := CheckWindows(nil); err != nil {
		t.Errorf("CheckWindows(nil) = %v", err)
	}
	dst := make([][]float64, StatsPerWindow)
	for i := range dst {
		dst[i] = make([]float64, 2)
	}
	series := []float64{1, 2, 3}
	for _, r := range [][2]int{{-1, 0}, {1, 3}, {2, 1}} {
		if _, err := GenerateRangeInto(dst, series, []int{3}, r[0], r[1], nil); err == nil {
			t.Errorf("range %v of a 3-day series should fail", r)
		}
	}
	if _, err := GenerateRangeInto(dst[:5], series, []int{3}, 0, 1, nil); err == nil {
		t.Error("5 destination columns for one window should fail")
	}
}

func TestNamesMatchColumns(t *testing.T) {
	windows := []int{2, 5, 9}
	names := Names("X", windows)
	cols, err := generate([]float64{1, 2, 3}, windows)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(cols) {
		t.Errorf("names %d != cols %d", len(names), len(cols))
	}
}

func TestRolling(t *testing.T) {
	xs := []float64{5, 1, 3}
	for _, impl := range rollingImpls {
		got := impl.roll(xs, 2)
		if got[0].Max != 5 || got[0].Min != 5 || got[0].Range != 0 {
			t.Errorf("%s: day 0 = %+v, want degenerate window of 5", impl.name, got[0])
		}
		if got[1].Max != 5 || got[1].Min != 1 || got[1].Range != 4 {
			t.Errorf("%s: day 1 = %+v", impl.name, got[1])
		}
		if math.Abs(got[1].Mean-3) > eps {
			t.Errorf("%s: day 1 mean = %v, want 3", impl.name, got[1].Mean)
		}
		if got[2].Max != 3 || got[2].Min != 1 {
			t.Errorf("%s: day 2 = %+v", impl.name, got[2])
		}
		// WMA of window [1,3] with weights 1,2 = (1+6)/3.
		if math.Abs(got[2].WMA-7.0/3) > eps {
			t.Errorf("%s: day 2 WMA = %v, want %v", impl.name, got[2].WMA, 7.0/3)
		}
	}
}

func TestRollingInvariants(t *testing.T) {
	// Property: Min <= Mean <= Max and Min <= WMA <= Max in every window.
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	for _, impl := range rollingImpls {
		for _, window := range []int{1, 3, 7, 50} {
			for i, r := range impl.roll(xs, window) {
				if r.Mean < r.Min-eps || r.Mean > r.Max+eps {
					t.Fatalf("%s: window %d pos %d: mean %v outside [%v, %v]", impl.name, window, i, r.Mean, r.Min, r.Max)
				}
				if r.WMA < r.Min-eps || r.WMA > r.Max+eps {
					t.Fatalf("%s: window %d pos %d: wma %v outside [%v, %v]", impl.name, window, i, r.WMA, r.Min, r.Max)
				}
				if r.Range < -eps {
					t.Fatalf("%s: window %d pos %d: negative range %v", impl.name, window, i, r.Range)
				}
			}
		}
	}
}

func TestRollingRangeSkipsNonFinite(t *testing.T) {
	xs := []float64{1, math.NaN(), 3, math.Inf(1), 5}
	for _, impl := range rollingImpls {
		out := impl.roll(xs, 3)
		// Window at position 2 is {1, NaN, 3}: stats over {1, 3}.
		if out[2].Mean != 2 || out[2].Min != 1 || out[2].Max != 3 {
			t.Errorf("%s: window stats = %+v, want mean 2, min 1, max 3", impl.name, out[2])
		}
		// WMA weights keyed to window position: 1*1 + 3*3 over 1+3.
		if out[2].WMA != 10.0/4 {
			t.Errorf("%s: WMA = %v, want 2.5", impl.name, out[2].WMA)
		}
		// Window at position 3 is {NaN, 3, +Inf}: stats over {3} alone.
		if out[3].Mean != 3 || out[3].Std != 0 || out[3].Range != 0 {
			t.Errorf("%s: window stats = %+v, want degenerate singleton at 3", impl.name, out[3])
		}
	}
}

func TestRollingRangeAllMissingWindow(t *testing.T) {
	xs := []float64{math.NaN(), math.NaN(), 7}
	for _, impl := range rollingImpls {
		out := impl.roll(xs, 2)
		s := out[1] // window {NaN, NaN}
		for name, v := range map[string]float64{
			"Max": s.Max, "Min": s.Min, "Mean": s.Mean,
			"Std": s.Std, "Range": s.Range, "WMA": s.WMA,
		} {
			if v == v {
				t.Errorf("%s: all-missing window %s = %v, want NaN", impl.name, name, v)
			}
		}
		if out[2].Mean != 7 {
			t.Errorf("%s: window {NaN, 7} mean = %v, want 7", impl.name, out[2].Mean)
		}
	}
}

// TestGenerateRangeIntoAllocs pins GenerateRangeInto's doc claim: it
// allocates nothing, for the default windows and for a window list
// longer than one fused walk.
func TestGenerateRangeIntoAllocs(t *testing.T) {
	series := sparseNaNSeries(60)
	for _, windows := range [][]int{DefaultWindows, {1, 2, 3, 4, 5, 6, 7}} {
		dst := make([][]float64, NumGenerated(windows))
		for i := range dst {
			dst[i] = make([]float64, len(series))
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := GenerateRangeInto(dst, series, windows, 0, len(series)-1, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("windows %v: GenerateRangeInto allocates %v per call, want 0", windows, allocs)
		}
	}
}

// sparseNaNSeries is a deterministic n-day counter-like series with a
// missing day every 11 days.
func sparseNaNSeries(n int) []float64 {
	xs := make([]float64, n)
	rng := rand.New(rand.NewSource(5))
	for i := range xs {
		xs[i] = float64(i/4) + rng.Float64()
		if i%11 == 5 {
			xs[i] = math.NaN()
		}
	}
	return xs
}

// BenchmarkWindowStats times one feature-day of window statistics at
// the default windows over a 60-day series with sparse NaNs, each
// scored day with a full 7-day window: the fused kernel, and the
// per-window reference (one walk per window) it replaced.
func BenchmarkWindowStats(b *testing.B) {
	series := sparseNaNSeries(60)
	windows := DefaultWindows
	dst := make([][]float64, NumGenerated(windows))
	for i := range dst {
		dst[i] = make([]float64, 1)
	}
	day := func(i int) int { return 6 + i%(len(series)-6) }
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			WindowStats(dst, 0, series, day(i), windows)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/feature-day")
	})
	b.Run("per-window", func(b *testing.B) {
		var rs [1]refStats
		for i := 0; i < b.N; i++ {
			d := day(i)
			for wi, w := range windows {
				refRollingInto(rs[:], series, w, d, d)
				cols := dst[wi*StatsPerWindow:]
				cols[0][0], cols[1][0], cols[2][0] = rs[0].Max, rs[0].Min, rs[0].Mean
				cols[3][0], cols[4][0], cols[5][0] = rs[0].Std, rs[0].Range, rs[0].WMA
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/feature-day")
	})
}
