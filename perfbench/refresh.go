package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/forest"
	"repro/internal/pipeline"
	"repro/internal/runlog"
	"repro/internal/smart"
	"repro/internal/store"
)

// The control-refresh workload: control.Run from an empty state
// directory on the MC2 firmware-bug scenario cmd/controller's crash
// test pins: 450 MC2-only drives over 330 days, days 255..320, canary
// 21, window 60, 5 trees of depth 6. The scenario is pinned rather
// than seeded because its one drift at day 314 is part of what the run
// checks.
const (
	refreshDrives = 450
	refreshDays   = 330
	refreshStart  = 255
	refreshEnd    = 320
)

// refreshGolden is control.Run's report on the pinned scenario.
const refreshGolden = `controller: model MC2, selector WEFR, days [255, 320]
  day  254  serving v1 (bootstrap, trained through day 254)
  day  314  drift fired (changepoint, stat 3.601, window 60 days)
  day  314  candidate v2 trained through day 293
  day  314  canary verdict: promote (candidate wins canary [294, 314]; candidate F0.5 0.741, serving F0.5 0.253, 364 drives)
  day  314  promoted v2 to serving
final: serving v2, 1 refresh(es): 1 promoted, 0 rolled back, 0 kept
`

// memSource is an upstream whose telemetry is already in memory, as a
// deployment's upstream store would hold it: generating the simulated
// series is set-up, not controller work.
type memSource struct {
	days   int
	refs   map[smart.ModelID][]dataset.DriveRef
	series map[int]memSeries
}

type memSeries struct {
	cols map[smart.Feature][]float64
	last int
}

func materialize(src dataset.Source, model smart.ModelID) (*memSource, error) {
	m := &memSource{days: src.Days(), refs: map[smart.ModelID][]dataset.DriveRef{}, series: map[int]memSeries{}}
	refs := src.DrivesOf(model)
	m.refs[model] = refs
	for _, ref := range refs {
		cols, last, err := src.Series(ref)
		if err != nil {
			return nil, err
		}
		m.series[ref.ID] = memSeries{cols, last}
	}
	return m, nil
}

func (m *memSource) Days() int                                    { return m.days }
func (m *memSource) DrivesOf(md smart.ModelID) []dataset.DriveRef { return m.refs[md] }

// Series returns a fresh map over the shared, read-only columns.
func (m *memSource) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	s, ok := m.series[ref.ID]
	if !ok {
		return nil, 0, fmt.Errorf("memsource: no drive %d", ref.ID)
	}
	cols := make(map[smart.Feature][]float64, len(s.cols))
	for ft, c := range s.cols {
		cols[ft] = c
	}
	return cols, s.last, nil
}

func setupRefresh() (*memSource, error) {
	src, err := simulateFleet(smart.MC2, refreshDrives, refreshDays, 1, 6)
	if err != nil {
		return nil, err
	}
	return materialize(src, smart.MC2)
}

// refreshRun is one measured control.Run.
type refreshRun struct {
	dir    string
	dur    time.Duration
	res    *control.Result
	stages *engine.StageReport
	sel    *tracedSelector
}

func controlRun(cfg runConfig, src *memSource, seq int) (refreshRun, error) {
	r := refreshRun{stages: &engine.StageReport{}, sel: &tracedSelector{sel: pipeline.WEFR{}, tr: cfg.tr}}
	var err error
	if r.dir, err = os.MkdirTemp(cfg.work, fmt.Sprintf("control%d-*", seq)); err != nil {
		return r, err
	}
	var up dataset.Source = src
	var sel engine.Selector = pipeline.WEFR{}
	ecfg := pipeline.Config{Forest: forest.Config{NumTrees: 5, MaxDepth: 6, Seed: 1}, Seed: 1}
	if cfg.tr != nil {
		up = traceSource(src, cfg.tr, "store.fetch")
		sel = r.sel
		ecfg.Stages = r.stages
	}
	r.dur, err = cfg.tr.timed("control.run", 0, int64(seq), func(int64) error {
		var err error
		r.res, err = control.Run(up, control.Config{
			Model: smart.MC2, Selector: sel, Engine: ecfg,
			Start: refreshStart, End: refreshEnd, CanaryDays: 21, MinWindow: 60,
			Dir: r.dir,
		})
		return err
	})
	return r, err
}

func runRefresh(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	// Set-up here is a fraction of a second, so it is repeated more
	// often than the other workloads' to keep its median steady.
	setupS, src, err := timedSetups(3*setups, setupRefresh, func(*memSource) {})
	if err != nil {
		return nil, err
	}
	o.e2e("setup_s", setupS, "s")

	var runs []refreshRun
	var times []float64
	rt0 := readRuntime()
	start := time.Now()
	// At least two runs, so the report can be compared across runs;
	// then as many more as fit in the measured time.
	for len(runs) < 2 || time.Since(start)+runs[len(runs)-1].dur <= cfg.seconds {
		r, err := controlRun(cfg, src, len(runs))
		o.attempted++
		if err != nil {
			return nil, fmt.Errorf("control run %d: %w", len(runs), err)
		}
		runs = append(runs, r)
		times = append(times, r.dur.Seconds())
		got := r.res.String()
		ok := got == refreshGolden && r.res.Refreshes == 1 && r.res.Promotions == 1 && r.res.ServingVersion == 2
		if !ok {
			o.failed++
			o.check(false, "control run %d: report differs from the pinned scenario's:\n%s", len(runs)-1, got)
		}
	}
	rt1 := readRuntime()
	med := medianOf(times)
	days := float64(refreshEnd - refreshStart + 1)
	o.e2e("p50_ms", med*1000, "ms")
	o.logf("control-refresh: %d runs of control.Run over %d MC2 drives, days [%d, %d]: %v s", len(runs), refreshDrives, refreshStart, refreshEnd, times)
	o.logf("end-to-end control_run_s %.4f s (median of %d)", med, len(times))
	o.logf("end-to-end controller_days_per_s %.3f 1/s", days/med)
	o.logf("end-to-end failed_share %.6f (%d of %d)", float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted)
	o.logf("check: every run drifted once at day 314 and promoted v2; reports identical to the pinned one: %v", o.failed == 0)

	if cfg.trace {
		last := runs[len(runs)-1]
		runtimeLayers(o, rt0, rt1)
		traceCost(o, cfg.tr, rt0.at, rt1.at)
		fetchLayer(o, cfg.tr, len(runs))
		j, recs, err := runlog.Open(filepath.Join(last.dir, "control.journal"))
		if err != nil {
			return nil, err
		}
		j.Close()
		o.layer("runlog.records", float64(len(recs)), "count")
		if err := refreshLayers(o, cfg, src, last); err != nil {
			return nil, err
		}
		o.layer("bench.traced_p50_ms", med*1000, "ms")
	}
	return o, nil
}

// refreshLayers serves the controller's final registry over a store of
// the scenario fleet, so the shared per-layer measurements run on this
// workload's model and drives.
func refreshLayers(o *outcome, cfg runConfig, src *memSource, last refreshRun) error {
	// control.Run keeps its registry in <state dir>/registry.
	reg := &core.Registry{Dir: filepath.Join(last.dir, "registry")}
	v, err := reg.LatestVersion(artifact)
	if err != nil {
		return err
	}
	snap, err := engine.LoadSnapshot(reg, artifact, v)
	if err != nil {
		return err
	}
	sc, err := engine.NewScorer(snap, 0)
	if err != nil {
		return err
	}
	st := store.Open(src, store.Options{})
	defer st.Close()
	if err := st.Track(smart.MC2); err != nil {
		return err
	}
	if err := st.AppendThrough(refreshEnd); err != nil {
		return err
	}
	d, err := startDaemon(reg, st)
	if err != nil {
		return err
	}
	defer d.close()
	client := newClient()
	defer client.CloseIdleConnections()
	le := &layerEnv{st: st, scorer: sc, model: smart.MC2, d: d, client: client,
		selFrame: last.sel.last.Load(), stages: last.stages, work: cfg.work, tr: cfg.tr}
	rng := rand.New(rand.NewSource(cfg.seed))
	if le.p, err = buildPayloads(st.Snapshot(), sc, smart.MC2, rng, refreshStart, refreshEnd, 64, 2, batchSize, 64); err != nil {
		return err
	}
	return layerMetrics(o, le, live{})
}
