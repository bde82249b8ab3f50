package flat

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/forest"
	"repro/internal/gbdt"
	"repro/internal/hist"
	"repro/internal/tree"
)

// synth builds column-major training data with mixed continuous and
// low-cardinality columns plus a label correlated with column 0.
func synth(n, features int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, features)
	for f := range cols {
		cols[f] = make([]float64, n)
	}
	y := make([]int, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.2 {
			y[i] = 1
		}
		for f := 0; f < features; f++ {
			switch {
			case f == 0:
				cols[f][i] = float64(y[i]) + rng.NormFloat64()
			case f%3 == 0:
				cols[f][i] = float64(rng.Intn(6))
			default:
				cols[f][i] = rng.NormFloat64() * 10
			}
			if f%4 == 1 && rng.Float64() < 0.1 {
				cols[f][i] = math.NaN()
			}
		}
	}
	return cols, y
}

// scoreInputs builds scoring data exercising every quantizer edge:
// random values, NaN, +/-Inf, +/-0, huge magnitudes, and exact
// training values (which hit thresholds exactly).
func scoreInputs(train [][]float64, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, len(train))
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0.0, math.Copysign(0, -1),
		1e300, -1e300, 5e-324, math.MaxFloat64, -math.MaxFloat64,
	}
	for f := range cols {
		cols[f] = make([]float64, n)
		for i := 0; i < n; i++ {
			switch r := rng.Float64(); {
			case r < 0.10:
				cols[f][i] = specials[rng.Intn(len(specials))]
			case r < 0.35:
				cols[f][i] = train[f][rng.Intn(len(train[f]))]
			default:
				cols[f][i] = rng.NormFloat64() * 12
			}
		}
	}
	return cols
}

func requireBitEqual(t *testing.T, want, got []float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: row %d: %v (%016x) vs %v (%016x)",
				label, i, want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
		}
	}
}

// rows spans multiple kernel blocks so block edges are exercised.
const testRows = blockRows*2 + 777

func TestForestFlatBitExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  forest.Config
	}{
		{"exact", forest.Config{NumTrees: 8, MaxDepth: 5, Seed: 1}},
		{"hist", forest.Config{NumTrees: 10, MaxDepth: 8, Seed: 2, SplitMethod: hist.SplitHist, MaxBins: 32}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cols, y := synth(900, 9, 11)
			f, err := forest.Fit(cols, y, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			fl, err := CompileForest(f)
			if err != nil {
				t.Fatal(err)
			}
			in := scoreInputs(cols, testRows, 101)
			want := make([]float64, testRows)
			if err := f.PredictProbaBatch(in, want); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3} {
				fl.Workers = workers
				got := make([]float64, testRows)
				if err := fl.PredictProbaBatch(in, got); err != nil {
					t.Fatal(err)
				}
				requireBitEqual(t, want, got, tc.name)
			}
		})
	}
}

func TestGBDTFlatBitExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  gbdt.Config
	}{
		{"exact", gbdt.Config{NumRounds: 12, MaxDepth: 4, Eta: 0.3}},
		{"hist", gbdt.Config{NumRounds: 15, MaxDepth: 5, Eta: 0.3, SplitMethod: hist.SplitHist, MaxBins: 32}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cols, y := synth(900, 9, 21)
			m, err := gbdt.Fit(cols, y, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			fl, err := CompileModel(m)
			if err != nil {
				t.Fatal(err)
			}
			in := scoreInputs(cols, testRows, 202)
			wantP := make([]float64, testRows)
			if err := m.PredictProbaBatch(in, wantP); err != nil {
				t.Fatal(err)
			}
			wantM := make([]float64, testRows)
			if err := m.PredictMarginBatch(in, wantM); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3} {
				fl.Workers = workers
				got := make([]float64, testRows)
				if err := fl.PredictProbaBatch(in, got); err != nil {
					t.Fatal(err)
				}
				requireBitEqual(t, wantP, got, "proba")
				if err := fl.PredictMarginBatch(in, got); err != nil {
					t.Fatal(err)
				}
				requireBitEqual(t, wantM, got, "margin")
			}
		})
	}
}

func TestTreeFlatBitExact(t *testing.T) {
	cols, y := synth(700, 7, 31)
	cl, err := tree.FitClassifier(cols, y, nil, tree.Config{MaxDepth: 7})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := CompileTree(cl)
	if err != nil {
		t.Fatal(err)
	}
	in := scoreInputs(cols, testRows, 303)
	want := make([]float64, testRows)
	if err := cl.PredictProbaBatch(in, want); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, testRows)
	if err := fl.PredictProbaBatch(in, got); err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, want, got, "tree")
}

func TestSerializeRoundTrip(t *testing.T) {
	cols, y := synth(800, 8, 41)
	in := scoreInputs(cols, 3000, 404)

	f, err := forest.Fit(cols, y, forest.Config{NumTrees: 6, MaxDepth: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := CompileForest(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := fl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fl2, err := UnmarshalForest(data)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 3000)
	got := make([]float64, 3000)
	if err := fl.PredictProbaBatch(in, want); err != nil {
		t.Fatal(err)
	}
	if err := fl2.PredictProbaBatch(in, got); err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, want, got, "forest round-trip")

	m, err := gbdt.Fit(cols, y, gbdt.Config{NumRounds: 8, MaxDepth: 4, Eta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	ml, err := CompileModel(m)
	if err != nil {
		t.Fatal(err)
	}
	data, err = ml.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ml2, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := ml.PredictProbaBatch(in, want); err != nil {
		t.Fatal(err)
	}
	if err := ml2.PredictProbaBatch(in, got); err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, want, got, "gbdt round-trip")

	if _, err := UnmarshalForest([]byte("junk")); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("junk decode: %v", err)
	}
}

// wideTree imports a balanced tree splitting feature 0 on n distinct
// thresholds (a spread including 0.0 and huge magnitudes), alternating
// the missing direction, with feature 1 split once near the root.
// Returns the tree and the thresholds, which score inputs should hit
// exactly.
func wideTree(t *testing.T, n int) (*tree.Classifier, []float64) {
	t.Helper()
	thr := make([]float64, n)
	for i := range thr {
		thr[i] = float64(i-n/2) * 0.75
	}
	thr[0], thr[n-1] = -1e300, 1e300
	var e tree.Encoded
	e.NFeatures = 2
	add := func(f int, v, p float64, dl bool) int {
		e.Feature = append(e.Feature, f)
		e.Threshold = append(e.Threshold, v)
		e.Left = append(e.Left, 0)
		e.Right = append(e.Right, 0)
		e.Prob = append(e.Prob, p)
		e.DefaultLeft = append(e.DefaultLeft, dl)
		return len(e.Feature) - 1
	}
	leaves := 0
	var build func(lo, hi int) int
	build = func(lo, hi int) int {
		if lo > hi {
			leaves++
			return add(-1, 0, float64(leaves%97)/96, false)
		}
		mid := (lo + hi) / 2
		at := add(0, thr[mid], 0, mid%2 == 0)
		l := build(lo, mid-1)
		r := build(mid+1, hi)
		e.Left[at], e.Right[at] = l, r
		return at
	}
	root := add(1, 2.5, 0, true)
	l := build(0, n/2-1)
	r := build(n/2, n-1)
	e.Left[root], e.Right[root] = l, r
	cl, err := tree.Import(e)
	if err != nil {
		t.Fatal(err)
	}
	return cl, thr
}

// wideData builds training data whose feature 0 takes thousands of
// distinct values with a noisy label, so exact-split ensembles cut it
// at far more than 254 distinct thresholds; feature 1 is
// low-cardinality with missing values.
func wideData(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x := rng.NormFloat64() * 100
		cols[0][i] = x
		cols[1][i] = float64(rng.Intn(5))
		if rng.Float64() < 0.1 {
			cols[1][i] = math.NaN()
		}
		if rng.Float64() < 0.5+0.4*math.Sin(x/7) {
			y[i] = 1
		}
	}
	return cols, y
}

// requireWide fails unless the source trees split feature 0 on more
// than 254 distinct thresholds, so the test exercises the wide path.
func requireWide(t *testing.T, trees ...tree.Encoded) {
	t.Helper()
	cuts := map[float64]bool{}
	for _, e := range trees {
		for i, f := range e.Feature {
			if f == 0 {
				cuts[e.Threshold[i]] = true
			}
		}
	}
	if len(cuts) <= 254 {
		t.Fatalf("feature 0 has %d distinct cuts, want > 254", len(cuts))
	}
}

// TestWideCutParity pins total compilation: ensembles splitting one
// feature on more than 254 distinct thresholds compile, and score
// bit-identically to the pointer walkers on every edge value (NaN,
// +/-Inf, +/-0, exact thresholds) at any worker count and after a
// payload round trip.
func TestWideCutParity(t *testing.T) {
	type scorer interface {
		PredictProbaBatch(cols [][]float64, out []float64) error
	}
	check := func(t *testing.T, ptr scorer, fl scorer, setWorkers func(int), in [][]float64) {
		t.Helper()
		want := make([]float64, testRows)
		if err := ptr.PredictProbaBatch(in, want); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, testRows)
		for _, workers := range []int{1, 2, 3} {
			setWorkers(workers)
			if err := fl.PredictProbaBatch(in, got); err != nil {
				t.Fatal(err)
			}
			requireBitEqual(t, want, got, "workers")
		}
	}

	t.Run("tree", func(t *testing.T) {
		cl, thr := wideTree(t, 1000)
		fl, err := CompileTree(cl)
		if err != nil {
			t.Fatal(err)
		}
		requireWide(t, cl.Export())
		near := make([]float64, 0, 3*len(thr))
		for _, v := range thr {
			near = append(near, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
		}
		in := scoreInputs([][]float64{near, {0, 1, 2, 2.5, 3, 4}}, testRows, 505)
		check(t, cl, fl, func(w int) { fl.Workers = w }, in)
	})

	cols, y := wideData(3000, 61)
	in := scoreInputs(cols, testRows, 606)

	t.Run("forest", func(t *testing.T) {
		f, err := forest.Fit(cols, y, forest.Config{NumTrees: 6, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		fl, err := CompileForest(f)
		if err != nil {
			t.Fatal(err)
		}
		var encs []tree.Encoded
		for _, tr := range f.Trees() {
			encs = append(encs, tr.Export())
		}
		requireWide(t, encs...)
		check(t, f, fl, func(w int) { fl.Workers = w }, in)
		data, err := fl.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		fl2, err := UnmarshalForest(data)
		if err != nil {
			t.Fatal(err)
		}
		check(t, f, fl2, func(w int) { fl2.Workers = w }, in)
	})

	t.Run("gbdt", func(t *testing.T) {
		m, err := gbdt.Fit(cols, y, gbdt.Config{NumRounds: 60, MaxDepth: 6, Eta: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		fl, err := CompileModel(m)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := m.Export()
		if err != nil {
			t.Fatal(err)
		}
		var encs []tree.Encoded
		for _, et := range enc.Trees {
			encs = append(encs, tree.Encoded{Feature: et.Feature, Threshold: et.Threshold})
		}
		requireWide(t, encs...)
		check(t, m, fl, func(w int) { fl.Workers = w }, in)
		data, err := fl.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		fl2, err := UnmarshalModel(data)
		if err != nil {
			t.Fatal(err)
		}
		check(t, m, fl2, func(w int) { fl2.Workers = w }, in)
	})
}

// TestDecodeRejects pins the payload validation: every code column
// must read an input column in range and hold an ascending, NaN-free
// run of at most 254 cuts.
func TestDecodeRejects(t *testing.T) {
	cols, y := wideData(3000, 71)
	f, err := forest.Fit(cols, y, forest.Config{NumTrees: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := CompileForest(f)
	if err != nil {
		t.Fatal(err)
	}
	last := len(fl.e.q.cuts) - 1
	if last < fl.e.nFeatures || len(fl.e.q.cuts[last]) < 2 {
		t.Fatalf("want a populated extra code column, got %d columns", last+1)
	}
	for _, tc := range []struct {
		name   string
		mutate func(e *encodedEnsemble)
	}{
		{"source out of range", func(e *encodedEnsemble) { e.Source[last] = int32(e.NFeatures) }},
		{"negative source", func(e *encodedEnsemble) { e.Source[last] = -1 }},
		{"missing sources", func(e *encodedEnsemble) { e.Source = e.Source[:last] }},
		{"unsorted cuts", func(e *encodedEnsemble) {
			cs := e.Cuts[last]
			cs[0], cs[1] = cs[1], cs[0]
		}},
		{"NaN cut", func(e *encodedEnsemble) { e.Cuts[last][1] = math.NaN() }},
		{"leading NaN cut", func(e *encodedEnsemble) { e.Cuts[last][0] = math.NaN() }},
		{"too many cuts", func(e *encodedEnsemble) {
			cs := make([]float64, maxCuts+1)
			for i := range cs {
				cs[i] = float64(i)
			}
			e.Cuts[last] = cs
		}},
		{"column out of range", func(e *encodedEnsemble) {
			for i, c := range e.Trees[0].Column {
				if c >= 0 {
					e.Trees[0].Column[i] = int32(len(e.Cuts))
					return
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := fl.e.encode()
			enc.Source = append([]int32(nil), enc.Source...)
			enc.Cuts = append([][]float64(nil), enc.Cuts...)
			enc.Cuts[last] = append([]float64(nil), enc.Cuts[last]...)
			enc.Trees = append([]encodedFlatTree(nil), enc.Trees...)
			enc.Trees[0].Column = append([]int32(nil), enc.Trees[0].Column...)
			tc.mutate(&enc)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(encodedFlatForest{E: enc}); err != nil {
				t.Fatal(err)
			}
			if _, err := UnmarshalForest(buf.Bytes()); !errors.Is(err, ErrBadEncoding) {
				t.Fatalf("want ErrBadEncoding, got %v", err)
			}
		})
	}
	// The unmutated payload decodes.
	data, err := fl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalForest(data); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
}

// TestSerializePreservesDefaultDirection pins that a boosted model's
// learned missing-value routing survives the compiled payload round
// trip, on rows missing one or both features.
func TestSerializePreservesDefaultDirection(t *testing.T) {
	// Missingness on feature 0 is itself the positive signal.
	const n = 200
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	y := make([]int, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			y[i] = 1
			cols[0][i] = math.NaN()
		} else {
			cols[0][i] = float64(i % 17)
		}
		cols[1][i] = float64((i * 7) % 13)
	}
	m, err := gbdt.Fit(cols, y, gbdt.Config{NumRounds: 15, MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := CompileModel(m)
	if err != nil {
		t.Fatal(err)
	}
	data, err := fl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	probes := [][]float64{
		{math.NaN(), 3, math.NaN(), 8},
		{5, math.NaN(), math.NaN(), 2},
	}
	want := make([]float64, len(probes[0]))
	if err := m.PredictMarginBatch(probes, want); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(probes[0]))
	if err := got.PredictMarginBatch(probes, out); err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, want, out, "margin after round trip")
	if want[0] <= want[1] {
		t.Errorf("missing feature 0 should raise the margin: %v vs %v", want[0], want[1])
	}
}

// TestZeroRouting pins the -0.0/+0.0 edge: a split at 0.0 must route
// -0.0 (equal to 0.0 under float compares) left, and the next
// representable negative value left as well.
func TestZeroRouting(t *testing.T) {
	e := tree.Encoded{
		Feature:     []int{0, -1, -1},
		Threshold:   []float64{0.0, 0, 0},
		Left:        []int{1, 0, 0},
		Right:       []int{2, 0, 0},
		Prob:        []float64{0.5, 0.25, 0.75},
		DefaultLeft: []bool{true, false, false},
		NFeatures:   1,
	}
	cl, err := tree.Import(e)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := CompileTree(cl)
	if err != nil {
		t.Fatal(err)
	}
	in := [][]float64{{math.Copysign(0, -1), 0.0, 5e-324, -5e-324, math.NaN(), math.Inf(1), math.Inf(-1)}}
	want := make([]float64, len(in[0]))
	if err := cl.PredictProbaBatch(in, want); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(in[0]))
	if err := fl.PredictProbaBatch(in, got); err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, want, got, "zero routing")
}

func TestShapeErrors(t *testing.T) {
	cols, y := synth(300, 5, 51)
	f, err := forest.Fit(cols, y, forest.Config{NumTrees: 3, MaxDepth: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := CompileForest(f)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 10)
	if err := fl.PredictProbaBatch(make([][]float64, 3), out); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("column count: %v", err)
	}
	short := make([][]float64, 5)
	for i := range short {
		short[i] = make([]float64, 4)
	}
	if err := fl.PredictProbaBatch(short, out); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("short column: %v", err)
	}
}
