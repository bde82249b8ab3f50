package engine

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/featgen"
	"repro/internal/metrics"
	"repro/internal/smart"
	"repro/internal/store"
)

// driveScore accumulates one drive's scored days within a window.
type driveScore struct {
	ref     dataset.DriveRef
	days    []int
	probs   []float64
	mwis    []float64
	group   []int // which group's model scored each day
	lastMWI float64
	lastDay int
}

// maxProbIn returns the drive's maximum probability among days scored
// by the given group, and whether it had any such day.
func (ds *driveScore) maxProbIn(g int) (float64, bool) {
	best, any := 0.0, false
	for k, gi := range ds.group {
		if gi != g {
			continue
		}
		any = true
		if ds.probs[k] > best {
			best = ds.probs[k]
		}
	}
	return best, any
}

// ScoreBuf recycles the working state of repeated scoring passes — the
// per-worker input columns, the per-shard score storage and the
// outcome slice — so callers that score the fleet over and over (the
// serving daemon's bulk endpoint, the continuous-operation
// controller's daily summaries) allocate nothing proportional to the
// fleet once the buffer has grown. The zero value is ready to use.
// Outcomes returned by ScoreInto alias the buffer and are valid only
// until its next use; a ScoreBuf must not be used concurrently.
type ScoreBuf struct {
	workers  []*passWorker
	shards   []passShard
	scores   []*driveScore
	outcomes []DriveOutcome
}

// shardRows caps a shard's drive-days, bounding each worker's input
// columns on long windows; a one-day pass never reaches it below ~16k
// drives per worker.
const shardRows = 4096

// shardsPerWorker oversplits the fleet so that workers finishing early
// take more shards: a 450-drive fleet is still 8 shards on 2 workers.
const shardsPerWorker = 4

// scorePass is one scoring pass's shared, read-only set-up.
type scorePass struct {
	refs    []dataset.DriveRef
	groups  []group
	windows []int
	nGen    int
	lo, hi  int
	gpos    [][]int // gpos[g][k]: column index of groups[g].feats[k]
	mwi     int     // column index of MWIFeature
	read    columnReader
	san     *dataset.SanitizeOpts
	mask    bool
	per     int // drives per shard
}

// columnReader reads the pass's feature columns of the drive at
// inventory position i into dst (nil where the drive lacks one) and
// returns its last observed day.
type columnReader interface {
	Read(i int, dst [][]float64) (int, error)
}

// seriesColumns adapts any dataset.Source to a columnReader: one
// Series map per drive, probed once per feature.
type seriesColumns struct {
	src   dataset.Source
	refs  []dataset.DriveRef
	feats []smart.Feature
}

func (r seriesColumns) Read(i int, dst [][]float64) (int, error) {
	series, lastDay, err := r.src.Series(r.refs[i])
	if err != nil {
		return 0, err
	}
	for k, ft := range r.feats {
		dst[k] = series[ft]
	}
	return lastDay, nil
}

// passWorker is one worker's reusable scratch.
type passWorker struct {
	cols  [][]float64 // the drive's columns, one per pass feature
	clean [][]float64 // their sanitized copies (robust scoring)
	miss  [][]bool    // and pre-imputation missingness
	gser  [][]float64 // one group's feature columns of the drive
	in    []groupInput
	plan  []planRow
}

// groupInput is one group's model-input columns for the shard being
// scored. The columns share one slab and one length, their capacity;
// the first rows cells are the shard's.
type groupInput struct {
	cols  [][]float64
	rows  int
	kcols [][]float64 // the kernel's view: cols cut to rows
	probs []float64
}

// cell returns the input columns with room for row r, growing them
// (doubling, contents kept) when full.
func (gi *groupInput) cell(r, width int) [][]float64 {
	if len(gi.cols) != width {
		gi.cols = make([][]float64, width)
	}
	if width == 0 || r < len(gi.cols[0]) {
		return gi.cols
	}
	grown := max(64, 2*len(gi.cols[0]))
	slab := make([]float64, grown*width)
	for c := range gi.cols {
		copy(slab[c*grown:], gi.cols[c])
		gi.cols[c] = slab[c*grown : (c+1)*grown : (c+1)*grown]
	}
	return gi.cols
}

// planRow is one scored drive-day of a shard, in scoring order.
type planRow struct {
	drive, day, group, row int
	mwi                    float64
}

// passShard is one shard's output: its scored drives in inventory
// order, with their days carved from the shard's flat slices. err is
// the shard's first failure in (group, drive) order.
type passShard struct {
	scores   []driveScore
	days     []int
	probs    []float64
	mwis     []float64
	group    []int
	rows     int
	err      error
	errGroup int
	errDrive int
}

// fail records err unless the shard already holds an earlier one. A
// sequence of per-group frames would have reported the failing group
// with the lowest index first, and within it the first failing drive
// in inventory order; the pass reports the same error.
func (sh *passShard) fail(g, drive int, err error) {
	if sh.err == nil || g < sh.errGroup || (g == sh.errGroup && drive < sh.errDrive) {
		sh.err, sh.errGroup, sh.errDrive = err, g, drive
	}
}

// scorePhase scores every drive-day of [lo, hi] with the per-group
// models and returns each scored drive (days ascending) in inventory
// order. The second return is the total number of drive-day rows
// scored.
func scorePhase(src dataset.Source, model smart.ModelID, groups []group, lo, hi int, cfg Config) ([]*driveScore, int, error) {
	return scorePhaseInto(src, model, groups, lo, hi, cfg, nil)
}

// scorePhaseInto is scorePhase drawing its working state from buf when
// one is provided; results are bit-identical either way, and for any
// worker count.
//
// It is one pass over the model's drives, split into contiguous shards
// that workers take in turn. Each drive is read once, for the union of
// the groups' features plus MWI_N. Each day of [lo, min(hi, last day)]
// is routed by the groups' wear bounds, and its row is written into
// the admitting group's input columns by featurizeRow. Then every
// group's rows of the shard go through its compiled model in one
// kernel call. The scores land in the drive's days in ascending order,
// exactly as the labeled frame dataset.Frame would build per group,
// row for row.
func scorePhaseInto(src dataset.Source, model smart.ModelID, groups []group, lo, hi int, cfg Config, buf *ScoreBuf) ([]*driveScore, int, error) {
	if buf == nil {
		buf = new(ScoreBuf)
	}
	if days := src.Days(); lo < 0 || hi >= days || lo > hi {
		return nil, 0, fmt.Errorf("%w: day range [%d, %d] outside dataset of %d days", dataset.ErrBadOpts, lo, hi, days)
	}
	refs := src.DrivesOf(model)
	if len(refs) == 0 || len(groups) == 0 {
		return buf.scores[:0], 0, nil
	}
	ps := &scorePass{refs: refs, groups: groups, windows: cfg.Windows, lo: lo, hi: hi}
	if len(ps.windows) == 0 {
		ps.windows = featgen.DefaultWindows
	}
	ps.nGen = featgen.NumGenerated(ps.windows)
	if ps.san = cfg.sanitizeOpts(true); ps.san != nil {
		ps.mask = ps.san.MissMask
	}

	// The pass's columns: every group's features, then the wear index.
	var feats []smart.Feature
	at := func(ft smart.Feature) int {
		if i := slices.Index(feats, ft); i >= 0 {
			return i
		}
		feats = append(feats, ft)
		return len(feats) - 1
	}
	ps.gpos = make([][]int, len(groups))
	for g := range groups {
		ps.gpos[g] = make([]int, len(groups[g].feats))
		for k, ft := range groups[g].feats {
			ps.gpos[g][k] = at(ft)
		}
	}
	ps.mwi = at(MWIFeature)
	if snap, ok := src.(*store.Snapshot); ok {
		r, err := snap.Columns(model, feats)
		if err != nil {
			return nil, 0, err
		}
		ps.read = r
	} else {
		ps.read = seriesColumns{src: src, refs: refs, feats: feats}
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(refs)
	ps.per = (n + shardsPerWorker*workers - 1) / (shardsPerWorker * workers)
	ps.per = min(ps.per, max(1, shardRows/(hi-lo+1)))
	nShards := (n + ps.per - 1) / ps.per
	workers = min(workers, nShards)

	if len(buf.shards) < nShards {
		buf.shards = append(buf.shards, make([]passShard, nShards-len(buf.shards))...)
	}
	shards := buf.shards[:nShards]
	for len(buf.workers) < workers {
		buf.workers = append(buf.workers, new(passWorker))
	}
	for _, w := range buf.workers[:workers] {
		w.reset(ps, len(feats))
	}
	if workers == 1 {
		for s := range shards {
			ps.runShard(buf.workers[0], &shards[s], s)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, w := range buf.workers[:workers] {
			wg.Add(1)
			go func(w *passWorker) {
				defer wg.Done()
				for {
					s := int(next.Add(1)) - 1
					if s >= nShards {
						return
					}
					ps.runShard(w, &shards[s], s)
				}
			}(w)
		}
		wg.Wait()
	}

	var first passShard
	rows := 0
	out := buf.scores[:0]
	for s := range shards {
		sh := &shards[s]
		if sh.err != nil {
			first.fail(sh.errGroup, sh.errDrive, sh.err)
		}
		rows += sh.rows
		for j := range sh.scores {
			out = append(out, &sh.scores[j])
		}
	}
	buf.scores = out
	if first.err != nil {
		return nil, rows, first.err
	}
	return out, rows, nil
}

// reset sizes the worker's scratch for a pass with the given number of
// feature columns.
func (w *passWorker) reset(ps *scorePass, nFeats int) {
	w.cols = resize(w.cols, nFeats)
	if ps.san != nil {
		w.clean = resize(w.clean, nFeats)
		w.miss = resize(w.miss, nFeats)
	}
	w.in = resize(w.in, len(ps.groups))
}

// resize returns s with length n, reusing its storage when it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// width returns group g's model-input width: its features, their
// generated statistics and, when masking, their missingness indicators.
func (ps *scorePass) width(g int) int {
	n := len(ps.groups[g].feats)
	w := n + n*ps.nGen
	if ps.mask {
		w += n
	}
	return w
}

// runShard scores shard s, drives [s*per, (s+1)*per), into sh.
func (ps *scorePass) runShard(w *passWorker, sh *passShard, s int) {
	a := s * ps.per
	b := min(a+ps.per, len(ps.refs))
	sh.scores, sh.rows, sh.err = sh.scores[:0], 0, nil
	w.plan = w.plan[:0]
	for g := range w.in {
		w.in[g].rows = 0
	}
	for i := a; i < b; i++ {
		if sh.err != nil && sh.errGroup == 0 {
			// Nothing later in the shard can precede this failure.
			return
		}
		lastDay, err := ps.read.Read(i, w.cols)
		if err != nil {
			sh.fail(0, i, err)
			continue
		}
		hi := min(ps.hi, lastDay)
		if ps.lo > hi {
			continue
		}
		cols, miss := w.cols, w.miss
		if ps.san != nil {
			ps.san.SanitizeColumns(w.clean, w.miss, w.cols)
			cols = w.clean
		}
		mwiCol := cols[ps.mwi]
		for day := ps.lo; day <= hi; day++ {
			mwi := 0.0
			if mwiCol != nil {
				mwi = mwiCol[day]
			}
			for g := range ps.groups {
				if !ps.groups[g].admits(mwi) {
					continue
				}
				if err := ps.featurize(w, g, cols, miss, day); err != nil {
					sh.fail(g, i, err)
					continue
				}
				gi := &w.in[g]
				w.plan = append(w.plan, planRow{drive: i, day: day, group: g, row: gi.rows, mwi: mwi})
				gi.rows++
			}
		}
	}
	if sh.err != nil {
		return
	}
	for g := range w.in {
		gi := &w.in[g]
		if gi.rows == 0 {
			continue
		}
		gi.kcols = resize(gi.kcols, len(gi.cols))
		for c, col := range gi.cols {
			gi.kcols[c] = col[:gi.rows]
		}
		gi.probs = resize(gi.probs, gi.rows)
		if err := ps.groups[g].model.PredictProbaBatch(gi.kcols, gi.probs); err != nil {
			// The kernel runs once a group's rows are all assembled.
			sh.fail(g, len(ps.refs), err)
			return
		}
	}
	ps.collect(w, sh)
}

// featurize writes drive-day row gi.rows of group g from the drive's
// pass columns (and, when masking, their missingness).
func (ps *scorePass) featurize(w *passWorker, g int, cols [][]float64, miss [][]bool, day int) error {
	gi := &w.in[g]
	r := gi.rows
	dst := gi.cell(r, ps.width(g))
	w.gser = w.gser[:0]
	for _, c := range ps.gpos[g] {
		w.gser = append(w.gser, cols[c])
	}
	feats := ps.groups[g].feats
	if err := featurizeRow(dst, r, feats, w.gser, day, ps.windows); err != nil {
		return err
	}
	if ps.mask {
		base := len(feats) * (1 + ps.nGen)
		for k, c := range ps.gpos[g] {
			v := 0.0
			if m := miss[c]; day < len(m) && m[day] {
				v = 1
			}
			dst[base+k][r] = v
		}
	}
	return nil
}

// collect moves the shard's scores out of the worker: rows are planned
// drive by drive, days ascending, so each drive's scores are one
// contiguous run of the shard's slices.
func (ps *scorePass) collect(w *passWorker, sh *passShard) {
	n := len(w.plan)
	sh.rows = n
	sh.days = resize(sh.days, n)
	sh.probs = resize(sh.probs, n)
	sh.mwis = resize(sh.mwis, n)
	sh.group = resize(sh.group, n)
	for j := 0; j < n; {
		a := j
		for ; j < n && w.plan[j].drive == w.plan[a].drive; j++ {
			p := &w.plan[j]
			sh.days[j], sh.mwis[j], sh.group[j] = p.day, p.mwi, p.group
			sh.probs[j] = w.in[p.group].probs[p.row]
		}
		last := &w.plan[j-1]
		sh.scores = append(sh.scores, driveScore{
			ref:     ps.refs[last.drive],
			days:    sh.days[a:j:j],
			probs:   sh.probs[a:j:j],
			mwis:    sh.mwis[a:j:j],
			group:   sh.group[a:j:j],
			lastDay: last.day,
			lastMWI: last.mwi,
		})
	}
}

// minGroupCalibration is the minimum number of failing validation
// drives a group needs for its own threshold; below it the group
// inherits the pooled threshold.
const minGroupCalibration = 3

// calibrateThresholds picks one alarm threshold per group: the largest
// threshold whose drive-level recall on that group's validation
// outcomes is at least targetRecall. Wear groups train on populations
// with very different base rates, so their forests' probability scales
// differ; a shared threshold would flood the denser group with false
// alarms. Groups with too few failing validation drives inherit the
// pooled threshold (0.5 when no failing drives exist at all).
func calibrateThresholds(scores []*driveScore, numGroups int, targetRecall float64) []float64 {
	pick := func(failingMax []float64) (float64, bool) {
		if len(failingMax) == 0 {
			return 0.5, false
		}
		// Recall at threshold t = fraction of failing drives with max
		// prob >= t. Covering the top `need` drives requires the
		// ceiling: flooring would cover one drive too few and land
		// strictly below the target (1 of 4 drives is recall 0.25,
		// not 0.3).
		sort.Sort(sort.Reverse(sort.Float64Slice(failingMax)))
		need := int(math.Ceil(float64(len(failingMax)) * targetRecall))
		if need < 1 {
			need = 1
		}
		if need > len(failingMax) {
			need = len(failingMax)
		}
		t := failingMax[need-1]
		// Any threshold in (failingMax[need], failingMax[need-1]]
		// meets the target on validation; the interval midpoint
		// maximizes the margin in both directions instead of sitting
		// exactly on one validation drive's score, which generalizes
		// to unseen drives scoring slightly lower.
		if need < len(failingMax) && failingMax[need] < t {
			t = (t + failingMax[need]) / 2
		}
		if t <= 0 {
			t = 0.05
		}
		return t, len(failingMax) >= minGroupCalibration
	}

	var pooled []float64
	perGroup := make([][]float64, numGroups)
	for _, ds := range scores {
		if !ds.ref.Failed() || ds.ref.FailDay < ds.days[0] {
			continue
		}
		var best float64
		for _, p := range ds.probs {
			if p > best {
				best = p
			}
		}
		pooled = append(pooled, best)
		for g := 0; g < numGroups; g++ {
			if m, ok := ds.maxProbIn(g); ok {
				perGroup[g] = append(perGroup[g], m)
			}
		}
	}
	pooledT, _ := pick(pooled)
	out := make([]float64, numGroups)
	for g := 0; g < numGroups; g++ {
		if t, enough := pick(perGroup[g]); enough {
			out[g] = t
		} else {
			out[g] = pooledT
		}
	}
	return out
}

// finalizeOutcomes converts scored drives into drive-level outcomes,
// alarming on the first day whose probability clears its group's
// threshold. Failures more than PredictionWindow days past the phase
// end belong to later phases and are treated as healthy here.
func finalizeOutcomes(scores []*driveScore, thresholds []float64, testHi int) []DriveOutcome {
	return finalizeOutcomesInto(scores, thresholds, testHi, nil)
}

// finalizeOutcomesInto is finalizeOutcomes appending into buf's
// recycled slice when a buffer is provided; the returned outcomes then
// alias the buffer and are valid only until its next use. Outcomes are
// in ascending drive-ID order; scores is sorted into it in place.
func finalizeOutcomesInto(scores []*driveScore, thresholds []float64, testHi int, buf *ScoreBuf) []DriveOutcome {
	var out []DriveOutcome
	if buf != nil {
		out = buf.outcomes[:0]
	} else {
		out = make([]DriveOutcome, 0, len(scores))
	}
	slices.SortFunc(scores, func(a, b *driveScore) int { return a.ref.ID - b.ref.ID })
	for _, ds := range scores {
		first := -1
		mwi := ds.lastMWI
		maxProb := 0.0
		for k, p := range ds.probs {
			if p > maxProb {
				maxProb = p
			}
			if first < 0 && p >= thresholds[ds.group[k]] {
				first = ds.days[k]
				mwi = ds.mwis[k]
			}
		}
		failDay := ds.ref.FailDay
		if failDay > testHi+dataset.PredictionWindow {
			failDay = -1
		}
		out = append(out, DriveOutcome{
			Pred:    metrics.DrivePrediction{DriveID: ds.ref.ID, FirstAlarmDay: first, FailDay: failDay},
			MWI:     mwi,
			MaxProb: maxProb,
		})
	}
	if buf != nil {
		buf.outcomes = out
	}
	return out
}
