// Package flat compiles fitted tree ensembles (tree.Classifier,
// forest.Forest, gbdt.Model) into flat, cache-friendly node arrays
// scored over uint8 histogram codes instead of float64 columns.
//
// Compilation derives a cut set from the ensemble itself: the sorted
// distinct split thresholds its nodes actually use on each feature.
// Each feature's cuts are split into consecutive runs of at most 254,
// and every run becomes one uint8 code column reading that feature's
// input column. Each input value is quantized once per batch and code
// column to the count of the run's cuts below it (NaN -> 255, above
// the whole run -> len(run)), after which every split decision in
// every tree is a single integer compare on the column holding the
// node's threshold:
//
//	code(v) <= splitBin  <=>  v <= threshold
//
// holds for all float64 values by construction, so flat predictions are
// bit-identical to the exact pointer-tree paths, including NaN routing
// via each node's missing-direction bit and the ordering of float
// accumulation across trees. Compilation therefore never gives up on a
// feature's cut count: a feature with at most 254 cuts has exactly one
// code column, at its own index, and wider features add columns.
//
// Scoring is row-blocked: a block of rows is quantized into an
// L2-resident code matrix, then each tree partitions the block's row
// indices down its nodes with a branchless two-cursor split, so every
// node's constants load once per block and each row pays only for the
// depth of the leaf it actually reaches.
package flat

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/forest"
	"repro/internal/gbdt"
	"repro/internal/tree"
)

// Compilation limits. maxCuts is 254 because code 255 is reserved for
// missing (NaN) and a split on a run's largest cut must still route
// values above the run (code == len(run)) right. maxColumns keeps every
// code column's block offset (column << blockShift) within an int32.
const (
	maxCuts     = 254
	missingCode = 255
	maxFeatures = 1 << 15
	maxColumns  = 1 << 18
)

// Errors returned by compilation and decoding.
var (
	// ErrNotCompilable indicates an ensemble outside the flat layout's
	// structural limits (feature, code-column or node counts).
	ErrNotCompilable = errors.New("flat: not compilable")
	// ErrBadEncoding indicates serialized bytes that do not decode into
	// a valid compiled ensemble.
	ErrBadEncoding = errors.New("flat: bad encoding")
	// ErrShapeMismatch indicates prediction input whose shape does not
	// match the compiled ensemble.
	ErrShapeMismatch = errors.New("flat: shape mismatch")
)

// quantizer maps raw float64 input values to uint8 codes, one code
// column per run of at most maxCuts cuts. Column f < nFeatures is
// input feature f's first run; a feature's further runs follow the
// first nFeatures columns. A value's code on a column counts the run's
// cuts below it, so it always lies in [0, len(run)] and a node on the
// run's local bin b routes left iff v <= run[b], regardless of the
// cuts other runs hold.
type quantizer struct {
	// src[c] is the input column code column c quantizes.
	src []int32
	// cuts[c] is column c's ascending run of distinct thresholds; nil
	// when the column is unused (no node splits on the feature), and
	// then it is never quantized or read.
	cuts [][]float64
	// keys[c] is cuts[c] padded with +Inf. Cuts are finite (tree
	// thresholds always are), so padding slots are never counted by the
	// strict "cut < v" compare, and NaN compares false everywhere (its
	// search result is discarded for missingCode anyway). The fixed
	// 256-slot array type lets masked indexing drop every bounds check
	// in the per-value count-of-smaller loop, and startStep[c] (half
	// the padded power of two, which must exceed the cut count) sets
	// its trip count.
	keys      []*[256]float64
	startStep []int32
}

// layout is a freshly built quantizer plus the compile-time map from
// a feature's threshold to the code column and local bin testing it.
type layout struct {
	q *quantizer
	// cuts[f] is feature f's ascending distinct thresholds.
	cuts [][]float64
	// runs[f][k] is the code column holding cuts[f][k*maxCuts:].
	runs [][]int32
}

// buildQuantizer collects the distinct thresholds of every internal
// node across trees, given as parallel (feature, threshold) arrays with
// feature < 0 marking leaves, and splits each feature's cuts into code
// columns.
func buildQuantizer(nFeatures int, features [][]int, thresholds [][]float64) (*layout, error) {
	perFeat := make([][]float64, nFeatures)
	for ti, fs := range features {
		for i, f := range fs {
			if f < 0 {
				continue
			}
			// +0.0 canonicalizes any -0.0 threshold; routing at the cut
			// is identical since -0.0 == 0.0 under float compares.
			perFeat[f] = append(perFeat[f], thresholds[ti][i]+0.0)
		}
	}
	nCols := nFeatures
	for f, cs := range perFeat {
		if len(cs) == 0 {
			continue
		}
		sort.Float64s(cs)
		w := 1
		for i := 1; i < len(cs); i++ {
			if cs[i] != cs[w-1] {
				cs[w] = cs[i]
				w++
			}
		}
		perFeat[f] = cs[:w]
		nCols += (w - 1) / maxCuts
	}
	if nCols > maxColumns {
		return nil, fmt.Errorf("%w: %d code columns", ErrNotCompilable, nCols)
	}
	l := &layout{q: newQuantizer(nCols), cuts: perFeat, runs: make([][]int32, nFeatures)}
	next := nFeatures
	for f, cs := range perFeat {
		l.q.src[f] = int32(f)
		for lo := 0; lo < len(cs); lo += maxCuts {
			c := f
			if lo > 0 {
				c = next
				next++
			}
			l.q.setColumn(c, int32(f), cs[lo:min(lo+maxCuts, len(cs))])
			l.runs[f] = append(l.runs[f], int32(c))
		}
	}
	return l, nil
}

func newQuantizer(nCols int) *quantizer {
	return &quantizer{
		src:       make([]int32, nCols),
		cuts:      make([][]float64, nCols),
		keys:      make([]*[256]float64, nCols),
		startStep: make([]int32, nCols),
	}
}

// setColumn installs code column c, reading input column src, with the
// ascending distinct cut run cs (1 <= len <= maxCuts).
func (q *quantizer) setColumn(c int, src int32, cs []float64) {
	// Pad strictly beyond len(cs): the count-of-smaller loop over a
	// power-of-two region can only produce values < p, and a value
	// above every cut must yield count == len(cs).
	p := 1
	for p <= len(cs) {
		p <<= 1
	}
	keys := new([256]float64)
	for i := range keys {
		keys[i] = math.Inf(1)
	}
	for i, v := range cs {
		// +0.0 collapses a -0.0 cut into +0.0; identical routing since
		// the two zeros are equal under float compares.
		keys[i] = v + 0.0
	}
	q.src[c] = src
	q.cuts[c] = cs
	q.keys[c] = keys
	q.startStep[c] = int32(p >> 1)
}

// locate returns the code column and local bin of an exact threshold
// present in feature f's cut set (every compiled node threshold is, by
// construction).
func (l *layout) locate(f int, thr float64) (int32, uint8, error) {
	cs := l.cuts[f]
	i := sort.SearchFloat64s(cs, thr+0.0)
	if i >= len(cs) || cs[i] != thr {
		return 0, 0, fmt.Errorf("%w: threshold %v not in feature %d cut set", ErrNotCompilable, thr, f)
	}
	return l.runs[f][i/maxCuts], uint8(i % maxCuts), nil
}

// flatTree is one compiled tree in SoA layout, BFS-ordered so children
// sit after parents and siblings are adjacent (right = left+1).
type flatTree struct {
	// featOff is the node's code column pre-shifted by blockShift (the
	// column's offset in a block's code matrix), or -1 for leaves.
	featOff []int32
	bin     []uint8   // split code: route left iff code <= bin
	missL   []uint8   // 1 when missing (code 255) routes left
	left    []int32   // left child; right child is left+1
	value   []float64 // leaf payload (prob or weight); 0 on internal nodes
}

// ensemble is the shared compiled form behind Tree, Forest, and Model.
type ensemble struct {
	q         *quantizer
	trees     []flatTree
	nFeatures int
}

// compileTree renumbers one tree's nodes into BFS order with adjacent
// siblings and translates thresholds to (code column, bin) pairs.
// Inputs are the parallel arrays of the source encodings; defaultLeft
// may be nil (missing routes right, matching pre-missing-support
// encodings).
func compileTree(l *layout, feature []int, threshold []float64, left, right []int, value []float64, defaultLeft []bool) (flatTree, error) {
	n := len(feature)
	if n == 0 || n > math.MaxInt32/2 {
		return flatTree{}, fmt.Errorf("%w: %d nodes", ErrNotCompilable, n)
	}
	ft := flatTree{
		featOff: make([]int32, 0, n),
		bin:     make([]uint8, 0, n),
		missL:   make([]uint8, 0, n),
		left:    make([]int32, 0, n),
		value:   make([]float64, 0, n),
	}
	// BFS from the root: emit the node, then append both children to
	// the frontier together so they land adjacent in the new order.
	order := make([]int, 0, n)
	order = append(order, 0)
	for at := 0; at < len(order); at++ {
		src := order[at]
		if src < 0 || src >= n {
			return flatTree{}, fmt.Errorf("%w: child index %d of %d nodes", ErrNotCompilable, src, n)
		}
		f := feature[src]
		if f < 0 {
			ft.featOff = append(ft.featOff, -1)
			ft.bin = append(ft.bin, missingCode)
			ft.missL = append(ft.missL, 0)
			ft.left = append(ft.left, int32(at)) // self-link; never followed
			ft.value = append(ft.value, value[src])
			continue
		}
		if f >= len(l.cuts) {
			return flatTree{}, fmt.Errorf("%w: feature %d of %d", ErrNotCompilable, f, len(l.cuts))
		}
		col, sb, err := l.locate(f, threshold[src])
		if err != nil {
			return flatTree{}, err
		}
		var ml uint8
		if defaultLeft != nil && defaultLeft[src] {
			ml = 1
		}
		ft.featOff = append(ft.featOff, col<<blockShift)
		ft.bin = append(ft.bin, sb)
		ft.missL = append(ft.missL, ml)
		ft.left = append(ft.left, int32(len(order))) // next frontier slot
		ft.value = append(ft.value, 0)
		order = append(order, left[src], right[src])
	}
	if len(order) != n {
		return flatTree{}, fmt.Errorf("%w: %d reachable of %d nodes", ErrNotCompilable, len(order), n)
	}
	return ft, nil
}

// Tree is a compiled tree.Classifier.
type Tree struct {
	e ensemble
	// Workers bounds scoring concurrency; <= 0 means GOMAXPROCS.
	// Results are bit-identical for any value.
	Workers int
}

// Forest is a compiled forest.Forest.
type Forest struct {
	e ensemble
	// Workers bounds scoring concurrency; <= 0 means GOMAXPROCS.
	// Results are bit-identical for any value.
	Workers int
}

// Model is a compiled gbdt.Model.
type Model struct {
	e    ensemble
	base float64
	eta  float64
	// Workers bounds scoring concurrency; <= 0 means GOMAXPROCS.
	// Results are bit-identical for any value.
	Workers int
}

// CompileTree compiles a fitted classification tree.
func CompileTree(t *tree.Classifier) (*Tree, error) {
	e := t.Export()
	return compileTreeEncoded(e)
}

func compileTreeEncoded(e tree.Encoded) (*Tree, error) {
	if e.NFeatures <= 0 || e.NFeatures > maxFeatures {
		return nil, fmt.Errorf("%w: %d features", ErrNotCompilable, e.NFeatures)
	}
	l, err := buildQuantizer(e.NFeatures, [][]int{e.Feature}, [][]float64{e.Threshold})
	if err != nil {
		return nil, err
	}
	ft, err := compileTree(l, e.Feature, e.Threshold, e.Left, e.Right, e.Prob, e.DefaultLeft)
	if err != nil {
		return nil, err
	}
	return &Tree{e: ensemble{q: l.q, trees: []flatTree{ft}, nFeatures: e.NFeatures}}, nil
}

// CompileForest compiles a fitted forest; all trees share one cut set.
func CompileForest(f *forest.Forest) (*Forest, error) {
	trees := f.Trees()
	if len(trees) == 0 {
		return nil, fmt.Errorf("%w: no trees", ErrNotCompilable)
	}
	encs := make([]tree.Encoded, len(trees))
	features := make([][]int, len(trees))
	thresholds := make([][]float64, len(trees))
	for i, t := range trees {
		encs[i] = t.Export()
		features[i] = encs[i].Feature
		thresholds[i] = encs[i].Threshold
	}
	nf := f.NumFeatures()
	if nf <= 0 || nf > maxFeatures {
		return nil, fmt.Errorf("%w: %d features", ErrNotCompilable, nf)
	}
	l, err := buildQuantizer(nf, features, thresholds)
	if err != nil {
		return nil, err
	}
	out := &Forest{e: ensemble{q: l.q, nFeatures: nf}}
	for i, e := range encs {
		if e.NFeatures != nf {
			return nil, fmt.Errorf("%w: tree %d has %d features, forest %d", ErrNotCompilable, i, e.NFeatures, nf)
		}
		ft, err := compileTree(l, e.Feature, e.Threshold, e.Left, e.Right, e.Prob, e.DefaultLeft)
		if err != nil {
			return nil, err
		}
		out.e.trees = append(out.e.trees, ft)
	}
	return out, nil
}

// CompileModel compiles a fitted boosted model; all trees share one cut
// set.
func CompileModel(m *gbdt.Model) (*Model, error) {
	enc, err := m.Export()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotCompilable, err)
	}
	return compileModelEncoded(enc)
}

func compileModelEncoded(enc gbdt.Encoded) (*Model, error) {
	if enc.NFeatures <= 0 || enc.NFeatures > maxFeatures {
		return nil, fmt.Errorf("%w: %d features", ErrNotCompilable, enc.NFeatures)
	}
	features := make([][]int, len(enc.Trees))
	thresholds := make([][]float64, len(enc.Trees))
	for i := range enc.Trees {
		features[i] = enc.Trees[i].Feature
		thresholds[i] = enc.Trees[i].Threshold
	}
	l, err := buildQuantizer(enc.NFeatures, features, thresholds)
	if err != nil {
		return nil, err
	}
	out := &Model{
		e:    ensemble{q: l.q, nFeatures: enc.NFeatures},
		base: enc.Base,
		eta:  enc.Eta,
	}
	for _, et := range enc.Trees {
		ft, err := compileTree(l, et.Feature, et.Threshold, et.Left, et.Right, et.Weight, et.DefaultLeft)
		if err != nil {
			return nil, err
		}
		out.e.trees = append(out.e.trees, ft)
	}
	return out, nil
}

// NumFeatures returns the feature count the source ensemble was fitted
// with.
func (t *Tree) NumFeatures() int   { return t.e.nFeatures }
func (f *Forest) NumFeatures() int { return f.e.nFeatures }
func (m *Model) NumFeatures() int  { return m.e.nFeatures }

// NumTrees returns the compiled tree count.
func (f *Forest) NumTrees() int { return len(f.e.trees) }
func (m *Model) NumTrees() int  { return len(m.e.trees) }

// PredictProbaBatch scores every row of column-major data, writing row
// i's positive-class probability into out[i]. Bit-identical to
// tree.Classifier.PredictProbaBatch on the source tree.
func (t *Tree) PredictProbaBatch(cols [][]float64, out []float64) error {
	return t.e.scoreAll(cols, out, t.Workers, 0, 1, nil)
}

// PredictProbaBatch scores every row of column-major data, writing row
// i's probability into out[i]. Bit-identical to
// forest.Forest.PredictProbaBatch on the source forest for any worker
// count on either side.
func (f *Forest) PredictProbaBatch(cols [][]float64, out []float64) error {
	nt := float64(len(f.e.trees))
	return f.e.scoreAll(cols, out, f.Workers, 0, 1, func(blk []float64) {
		// Divide (not multiply-by-reciprocal) exactly as the pointer
		// forest does, keeping results bit-identical.
		for i := range blk {
			blk[i] /= nt
		}
	})
}

// PredictMarginBatch writes each row's raw additive margin (log-odds)
// into out[i]. Bit-identical to gbdt.Model.PredictMarginBatch.
func (m *Model) PredictMarginBatch(cols [][]float64, out []float64) error {
	return m.e.scoreAll(cols, out, m.Workers, m.base, m.eta, nil)
}

// PredictProbaBatch writes each row's positive-class probability into
// out[i]. Bit-identical to gbdt.Model.PredictProbaBatch.
func (m *Model) PredictProbaBatch(cols [][]float64, out []float64) error {
	return m.e.scoreAll(cols, out, m.Workers, m.base, m.eta, func(blk []float64) {
		for i, v := range blk {
			blk[i] = 1 / (1 + math.Exp(-v))
		}
	})
}
