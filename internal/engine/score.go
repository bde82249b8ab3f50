package engine

import (
	"errors"
	"math"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/smart"
)

// probsPool recycles per-group score buffers across groups and phases.
// A phase scores every group of every window through here, so without
// the pool each call transiently allocates rows×8 bytes that die young.
var probsPool sync.Pool

func getProbs(n int) []float64 {
	if v := probsPool.Get(); v != nil {
		if buf := v.([]float64); cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float64, n)
}

func putProbs(buf []float64) { probsPool.Put(buf) }

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

// refIndexer is satisfied by sources that cache the drive-ID-to-ref
// map (store snapshots); other sources fall back to building it once
// per scoring pass.
type refIndexer interface {
	RefIndex(m smart.ModelID) map[int]dataset.DriveRef
}

// refIndex returns the model's drive-ID-to-ref map, served from the
// source's cache when it has one.
func refIndex(src dataset.Source, model smart.ModelID) map[int]dataset.DriveRef {
	if ri, ok := src.(refIndexer); ok {
		if m := ri.RefIndex(model); m != nil {
			return m
		}
	}
	refs := src.DrivesOf(model)
	out := make(map[int]dataset.DriveRef, len(refs))
	for _, r := range refs {
		out[r.ID] = r
	}
	return out
}

// ScoreBuf recycles the per-call working state of repeated scoring
// passes — the per-drive score accumulators, the frame column storage,
// and the outcome slice — so callers that score the fleet over and
// over (the serving daemon's bulk endpoint, the continuous-operation
// controller's daily summaries) do not re-allocate them every call.
// The zero value is ready to use. Outcomes returned by ScoreInto alias
// the buffer and are valid only until its next use; a ScoreBuf must
// not be used concurrently.
type ScoreBuf struct {
	scores   map[int]*driveScore
	free     []*driveScore
	frame    dataset.FrameBuf
	cols     [][]float64
	ids      []int
	outcomes []DriveOutcome
}

// reset clears the buffer for the next pass, recycling every
// driveScore (slices kept, lengths zeroed) through the free list.
func (b *ScoreBuf) reset() {
	if b.scores == nil {
		b.scores = make(map[int]*driveScore)
		return
	}
	for id, ds := range b.scores {
		ds.days = ds.days[:0]
		ds.probs = ds.probs[:0]
		ds.mwis = ds.mwis[:0]
		ds.group = ds.group[:0]
		b.free = append(b.free, ds)
		delete(b.scores, id)
	}
}

// get returns a cleared driveScore, recycled when one is available.
func (b *ScoreBuf) get() *driveScore {
	if n := len(b.free); n > 0 {
		ds := b.free[n-1]
		b.free = b.free[:n-1]
		*ds = driveScore{days: ds.days, probs: ds.probs, mwis: ds.mwis, group: ds.group, lastDay: -1}
		return ds
	}
	return &driveScore{lastDay: -1}
}

// scorePhase scores every drive-day of [lo, hi] with the per-group
// models and groups the probabilities by drive (days ascending). The
// second return is the total number of drive-day rows scored.
func scorePhase(src dataset.Source, model smart.ModelID, groups []group, lo, hi int, cfg Config) (map[int]*driveScore, int, error) {
	return scorePhaseInto(src, model, groups, lo, hi, cfg, nil)
}

// scorePhaseInto is scorePhase drawing its working state from buf when
// one is provided; results are bit-identical either way.
func scorePhaseInto(src dataset.Source, model smart.ModelID, groups []group, lo, hi int, cfg Config, buf *ScoreBuf) (map[int]*driveScore, int, error) {
	var out map[int]*driveScore
	var frameBuf *dataset.FrameBuf
	if buf != nil {
		buf.reset()
		out = buf.scores
		frameBuf = &buf.frame
	} else {
		out = make(map[int]*driveScore)
	}
	rows := 0
	// One ref index per pass (cached on store snapshots), not one per
	// group.
	refs := refIndex(src, model)
	for gi, g := range groups {
		fr, err := dataset.Frame(src, dataset.FrameOpts{
			Model: model, DayLo: lo, DayHi: hi, NegEvery: 1,
			Features: g.feats, Expand: true, Windows: cfg.Windows,
			MWIBelow: g.mwiBelow, MWIAtLeast: g.mwiAtLeast,
			Workers: cfg.Workers, Sanitize: cfg.sanitizeOpts(true),
			Reuse: frameBuf,
		})
		if errors.Is(err, dataset.ErrNoSamples) {
			continue
		}
		if err != nil {
			return nil, rows, err
		}
		var cols [][]float64
		if buf != nil {
			cols = buf.cols[:0]
			for i := 0; i < fr.NumFeatures(); i++ {
				cols = append(cols, fr.Col(i))
			}
			buf.cols = cols[:0]
		} else {
			cols = make([][]float64, fr.NumFeatures())
			for i := range cols {
				cols[i] = fr.Col(i)
			}
		}
		probs := getProbs(fr.NumRows())
		if err := g.model.PredictProbaBatch(cols, probs); err != nil {
			putProbs(probs)
			return nil, rows, err
		}
		rows += fr.NumRows()
		for i := 0; i < fr.NumRows(); i++ {
			m := fr.Meta(i)
			ds, ok := out[m.DriveID]
			if !ok {
				if buf != nil {
					ds = buf.get()
				} else {
					ds = &driveScore{lastDay: -1}
				}
				ds.ref = refs[m.DriveID]
				out[m.DriveID] = ds
			}
			ds.days = append(ds.days, m.Day)
			ds.probs = append(ds.probs, probs[i])
			ds.mwis = append(ds.mwis, m.MWI)
			ds.group = append(ds.group, gi)
			if m.Day > ds.lastDay {
				ds.lastDay = m.Day
				ds.lastMWI = m.MWI
			}
		}
		putProbs(probs)
	}
	// Within-drive days arrive ascending per group but groups can
	// interleave (a drive can cross the MWI threshold mid-phase).
	for _, ds := range out {
		sortDriveScore(ds)
	}
	return out, rows, nil
}

// sortDriveScore orders a drive's scored days ascending, in place. The
// rows are a merge of at most numGroups already-ascending runs — and
// within a drive each day is scored by exactly one group, so days are
// unique — which makes insertion sort nearly linear here and, unlike
// an index sort, allocation-free.
func sortDriveScore(ds *driveScore) {
	for i := 1; i < len(ds.days); i++ {
		for j := i; j > 0 && ds.days[j] < ds.days[j-1]; j-- {
			ds.days[j], ds.days[j-1] = ds.days[j-1], ds.days[j]
			ds.probs[j], ds.probs[j-1] = ds.probs[j-1], ds.probs[j]
			ds.mwis[j], ds.mwis[j-1] = ds.mwis[j-1], ds.mwis[j]
			ds.group[j], ds.group[j-1] = ds.group[j-1], ds.group[j]
		}
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
func calibrateThresholds(scores map[int]*driveScore, numGroups int, targetRecall float64) []float64 {
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
func finalizeOutcomes(scores map[int]*driveScore, thresholds []float64, testHi int) []DriveOutcome {
	return finalizeOutcomesInto(scores, thresholds, testHi, nil)
}

// finalizeOutcomesInto is finalizeOutcomes appending into buf's
// recycled slices when a buffer is provided; the returned outcomes
// then alias the buffer and are valid only until its next use.
func finalizeOutcomesInto(scores map[int]*driveScore, thresholds []float64, testHi int, buf *ScoreBuf) []DriveOutcome {
	var ids []int
	var out []DriveOutcome
	if buf != nil {
		ids = buf.ids[:0]
		out = buf.outcomes[:0]
	} else {
		ids = make([]int, 0, len(scores))
		out = make([]DriveOutcome, 0, len(scores))
	}
	for id := range scores {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ds := scores[id]
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
			Pred:    metrics.DrivePrediction{DriveID: id, FirstAlarmDay: first, FailDay: failDay},
			MWI:     mwi,
			MaxProb: maxProb,
		})
	}
	if buf != nil {
		buf.ids = ids[:0]
		buf.outcomes = out
	}
	return out
}
