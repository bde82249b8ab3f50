package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/changepoint"
	"repro/internal/complexity"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/featgen"
	"repro/internal/frame"
	"repro/internal/runlog"
	"repro/internal/selection"
	"repro/internal/serve"
	"repro/internal/smart"
	"repro/internal/stats"
	"repro/internal/store"
)

// probeIngestDays is the upstream tail each workload leaves unread, so
// the traced run can time ingest over HTTP (two days) and in process
// (one day).
const probeIngestDays = 3

// layerEnv is what the per-layer measurements run against: the
// workload's own store, served snapshot, payloads and daemon.
type layerEnv struct {
	st       *store.Store
	scorer   *engine.Scorer // the served snapshot, default workers
	model    smart.ModelID
	p        *payloadSet
	d        *daemon
	client   *http.Client
	selFrame *frame.Frame // the selection frame the real path built
	stages   *engine.StageReport
	work     string
	tr       *tracer
}

// live holds per-layer values a workload measured on its own traffic;
// the probe fills in the rest.
type live struct {
	singleP50   float64 // ms, light-rate inline single p50
	coalesce    *serve.Stats
	ingest      sample
	fleetHTTP   sample
	fleetInProc sample
}

// layerMetrics measures every per-layer metric of the benchmark on env.
// Replays time one layer's public function on the workload's own
// inputs; the probe sends single, ingest and fleet requests a workload
// does not send itself.
func layerMetrics(o *outcome, env *layerEnv, lv live) error {
	p, err := probe(env)
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	if lv.coalesce == nil {
		lv.singleP50, lv.coalesce = p.singleP50, &p.stats
	}
	if len(lv.ingest) == 0 {
		lv.ingest = p.ingest
	}
	if len(lv.fleetHTTP) == 0 {
		lv.fleetHTTP, lv.fleetInProc = p.fleetHTTP, p.fleetInProc
	}
	st := lv.coalesce
	o.layer("serve.coalescer.rows_per_flush", ratio(st.Coalesced, st.Flushes), "rows")
	o.layer("serve.coalescer.age_flush_share", ratio(st.AgeFlushes, st.Flushes), "share")
	o.layer("serve.shed_share", ratio(st.Shed, st.Requests), "share")
	o.layer("serve.deadline_share", ratio(st.DeadlineExceeded, st.Requests), "share")
	o.layer("serve.ingest_ms", lv.ingest.median(), "ms")
	o.layer("serve.fleet_overhead_ms", lv.fleetHTTP.median()-lv.fleetInProc.median(), "ms")
	o.logf("layer serve: coalescer %d rows in %d flushes (%d by age), %d requests, ingest %s, fleet HTTP %s vs in-process %s",
		st.Coalesced, st.Flushes, st.AgeFlushes, st.Requests, lv.ingest.describe(), lv.fleetHTTP.describe(), lv.fleetInProc.describe())

	codec, err := codecReplay(env.p, p.batchResp)
	if err != nil {
		return err
	}
	o.layer("serve.decode_single_us", codec.decodeSingle, "us")
	o.layer("serve.decode_batch_ms", codec.decodeBatch, "ms")
	o.layer("serve.encode_batch_us", codec.encodeBatch, "us")

	rowUS, err := featgenReplay(env)
	if err != nil {
		return err
	}
	o.layer("featgen.row_us", rowUS, "us")

	pass, err := passReplay(env)
	if err != nil {
		return err
	}
	o.layer("engine.score_ms", pass.score, "ms")
	o.layer("store.series_ms", pass.series, "ms")
	o.layer("store.series_calls_per_drive", pass.callsPerDrive, "calls")
	o.layer("dataset.frame_ms", pass.frame, "ms")
	o.layer("dataset.frame_share", pass.frame/pass.score, "share")
	o.layer("flat.kernel_ms", pass.kernel, "ms")
	o.layer("engine.finalize_ms", pass.score-pass.series-pass.frame-pass.kernel, "ms")
	o.layer("engine.attributed_share", (pass.series+pass.frame+pass.kernel)/pass.score, "share")
	o.layer("engine.allocs_per_drive", pass.allocsPerDrive, "allocs")
	o.layer("engine.day_ms", pass.day, "ms")
	o.layer("flat.compile_ms", pass.compile, "ms")
	o.layer("flat.kernel_us_per_row_b1", pass.kernelB1, "us")
	o.layer("flat.kernel_us_per_row_b64", pass.kernelB64, "us")
	o.logf("layer fleet pass (day %d, %d drives, serial scorer): ScoreInto %.3f ms = store read %.3f + frame %.3f + kernel %.3f + residual %.3f; replayed parts cover %.1f%% (10%% rule: %v)",
		pass.dayIdx, pass.drives, pass.score, pass.series, pass.frame, pass.kernel, pass.score-pass.series-pass.frame-pass.kernel,
		100*(pass.series+pass.frame+pass.kernel)/pass.score, within10(pass))

	// Wait is what is left of a single request's latency after the work
	// it needs: decode, one row of featurization, a batch-1 kernel call
	// and the encode.
	o.layer("serve.wait_ms", lv.singleP50-(codec.decodeSingle+rowUS+pass.kernelB1+codec.encodeSingle)/1000, "ms")

	seriesUS, err := storeReplay(env)
	if err != nil {
		return err
	}
	o.layer("store.series_us", seriesUS, "us")
	appendMS, err := appendReplay(env)
	if err != nil {
		return err
	}
	o.layer("store.append_ms", appendMS, "ms")
	c := env.st.Counters()
	o.layer("store.counters.series_fetches", float64(c.SeriesFetches), "count")
	o.layer("store.counters.days_ingested", float64(c.DaysIngested), "count")
	o.layer("store.counters.appends", float64(c.Appends), "count")

	if err := selectionReplay(o, env); err != nil {
		return err
	}
	stageLayers(o, env.stages)
	return persistReplay(o, env)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func within10(p passTimes) bool {
	sum := p.series + p.frame + p.kernel
	return sum <= 1.1*p.score && sum >= 0.9*p.score
}

// statsDelta is the counter growth from a to b.
func statsDelta(a, b serve.Stats) serve.Stats {
	return serve.Stats{
		Requests: b.Requests - a.Requests, Coalesced: b.Coalesced - a.Coalesced,
		Flushes: b.Flushes - a.Flushes, AgeFlushes: b.AgeFlushes - a.AgeFlushes,
		Shed: b.Shed - a.Shed, DeadlineExceeded: b.DeadlineExceeded - a.DeadlineExceeded,
	}
}

// probeResult is the serve probe's measurements.
type probeResult struct {
	singleP50   float64
	stats       serve.Stats // counter deltas over the probe's singles
	ingest      sample
	fleetHTTP   sample
	fleetInProc sample
	batchResp   serve.BatchResponse
}

// probe sends a short closed-loop sequence over one connection: inline
// singles, one batch, two ingests, and fleet passes each paired with
// the in-process pass over the same day.
func probe(env *layerEnv) (probeResult, error) {
	var pr probeResult
	c := env.client
	base := env.d.base
	before := env.d.srv.Stats()
	var singles sample
	for i := 0; i < 200; i++ {
		start := time.Now()
		var resp serve.ScoreResponse
		if _, err := post(c, base+"/v1/score", env.p.single[i%len(env.p.single)], &resp); err != nil {
			return pr, err
		}
		singles.add(time.Since(start))
	}
	after := env.d.srv.Stats()
	pr.singleP50 = singles.median()
	pr.stats = statsDelta(before, after)
	if _, err := post(c, base+"/v1/score/batch", env.p.batch[0], &pr.batchResp); err != nil {
		return pr, err
	}
	for i := 0; i < probeIngestDays-1; i++ {
		day := env.st.Horizon()
		if day >= env.st.SourceDays() {
			return pr, errors.New("no upstream day left to ingest")
		}
		start := time.Now()
		var resp serve.IngestResponse
		if _, err := post(c, base+"/v1/ingest", []byte(fmt.Sprintf(`{"day":%d}`, day)), &resp); err != nil {
			return pr, err
		}
		pr.ingest.add(time.Since(start))
	}
	day := env.st.Horizon() - 1
	body := []byte(fmt.Sprintf(`{"model":%q,"day":%d}`, artifact, day))
	var buf engine.ScoreBuf
	for i := 0; i < 5; i++ {
		start := time.Now()
		var resp serve.FleetResponse
		if _, err := post(c, base+"/v1/score/fleet", body, &resp); err != nil {
			return pr, err
		}
		pr.fleetHTTP.add(time.Since(start))
		start = time.Now()
		if _, err := env.scorer.ScoreInto(env.st.Snapshot(), day, day, &buf); err != nil {
			return pr, err
		}
		pr.fleetInProc.add(time.Since(start))
	}
	return pr, nil
}

type codecTimes struct {
	decodeSingle, encodeSingle, encodeBatch float64 // us
	decodeBatch                             float64 // ms
}

// codecReplay times the daemon's JSON work on the workload's exact
// bodies: decoding every single and batch body into the request types
// the handlers decode, and encoding a real batch response.
func codecReplay(p *payloadSet, batchResp serve.BatchResponse) (codecTimes, error) {
	var ct codecTimes
	const singleReps, batchReps, encReps = 5, 2, 200
	start := time.Now()
	for r := 0; r < singleReps; r++ {
		for _, b := range p.single {
			var req serve.ScoreRequest
			if err := json.Unmarshal(b, &req); err != nil {
				return ct, err
			}
		}
	}
	ct.decodeSingle = us(time.Since(start)) / float64(singleReps*len(p.single))
	start = time.Now()
	for r := 0; r < batchReps; r++ {
		for _, b := range p.batch {
			var req serve.BatchRequest
			if err := json.Unmarshal(b, &req); err != nil {
				return ct, err
			}
		}
	}
	ct.decodeBatch = ms(time.Since(start)) / float64(batchReps*len(p.batch))
	start = time.Now()
	for r := 0; r < encReps; r++ {
		if _, err := json.Marshal(batchResp); err != nil {
			return ct, err
		}
	}
	ct.encodeBatch = us(time.Since(start)) / encReps
	one := batchResp.Results[0]
	start = time.Now()
	for r := 0; r < encReps*10; r++ {
		if _, err := json.Marshal(one); err != nil {
			return ct, err
		}
	}
	ct.encodeSingle = us(time.Since(start)) / (encReps * 10)
	return ct, nil
}

// featgenReplay times GenerateRangeInto over each single payload's
// group features at its scored day: the per-request featurization of
// the single path. It returns microseconds per row.
func featgenReplay(env *layerEnv) (float64, error) {
	sc := env.scorer
	windows := sc.Windows()
	nGen := featgen.NumGenerated(windows)
	dst := make([][]float64, nGen)
	for i := range dst {
		dst[i] = make([]float64, 1)
	}
	var scratch []stats.RollingStats
	type row struct {
		cols [][]float64
		day  int
	}
	var rows []row
	for _, req := range env.p.singleReq {
		mwiCol := req.Series[engine.MWIFeature.String()]
		day := len(mwiCol) - 1
		g := sc.PickGroup(mwiCol[day])
		var r row
		r.day = day
		for _, ft := range sc.GroupFeatures(g) {
			r.cols = append(r.cols, req.Series[ft.String()])
		}
		rows = append(rows, r)
	}
	const reps = 20
	start := time.Now()
	for k := 0; k < reps; k++ {
		for _, r := range rows {
			for _, col := range r.cols {
				var err error
				if scratch, err = featgen.GenerateRangeInto(dst, col, windows, r.day, r.day, scratch); err != nil {
					return 0, err
				}
			}
		}
	}
	return us(time.Since(start)) / float64(reps*len(rows)), nil
}

// passTimes is the fleet-pass decomposition, in milliseconds unless
// named otherwise.
type passTimes struct {
	dayIdx, drives      int
	score, series       float64
	frame, kernel       float64
	callsPerDrive       float64
	allocsPerDrive      float64
	day, compile        float64
	kernelB1, kernelB64 float64 // us per row
}

// passReplay decomposes one whole-fleet pass on the workload's store at
// its latest day. A serial scorer runs ScoreInto with a span-recording
// source, so store reads are timed inside the real pass; then the same
// frames are rebuilt with dataset.Frame (the same options ScoreInto
// uses) and pushed through Scorer.ScoreBatch, giving frame self time
// (store reads subtracted) and kernel time. What ScoreInto spends
// beyond the three is accumulation and finalize. Serial execution keeps
// the parts additive; each figure is the median over at least three
// passes, more on small fleets whose passes take milliseconds.
func passReplay(env *layerEnv) (passTimes, error) {
	var pt passTimes
	tr := env.tr
	snapModel := env.scorer.Snapshot()
	var compiles sample
	var serial *engine.Scorer
	for i := 0; i < 3; i++ {
		start := time.Now()
		sc, err := engine.NewScorer(snapModel, 1)
		if err != nil {
			return pt, err
		}
		compiles.add(time.Since(start))
		serial = sc
	}
	pt.compile = compiles.median()

	snap := env.st.Snapshot()
	day := snap.Days() - 1
	pt.dayIdx = day
	src := traceSource(snap, tr, "store.series")
	var buf engine.ScoreBuf
	var fbuf dataset.FrameBuf
	if _, err := serial.ScoreInto(src, day, day, &buf); err != nil { // warm buffers
		return pt, err
	}
	var scores, series, frames, kernels, calls, allocs []float64
	// A 64-row column block of the group with the most rows, cycling its
	// rows if it has fewer, for the kernel replays.
	var rows64 [][]float64
	kernelGroup, kernelRows := -1, 0
	replayStart := time.Now()
	for rep := 0; rep < 3 || (rep < 25 && time.Since(replayStart) < time.Second); rep++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		id := tr.id()
		src.parent.Store(id)
		start := time.Now()
		outs, err := serial.ScoreInto(src, day, day, &buf)
		end := time.Now()
		runtime.ReadMemStats(&m1)
		tr.record(id, 0, 0, "engine.score", start, end)
		if err != nil {
			return pt, err
		}
		pt.drives = len(outs)
		sp := under(tr.snapshot(), id)
		self := selfTimes(sp)
		scoreDur := end.Sub(start)
		scores = append(scores, ms(scoreDur))
		series = append(series, ms(scoreDur-self[id]))
		calls = append(calls, float64(len(sp)-1)/float64(max(len(outs), 1)))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(max(len(outs), 1)))

		var frameSelf, kernel time.Duration
		for g := 0; g < serial.NumGroups(); g++ {
			below, atLeast := serial.GroupMWIBounds(g)
			fid := tr.id()
			src.parent.Store(fid)
			fstart := time.Now()
			fr, err := dataset.Frame(src, dataset.FrameOpts{
				Model: env.model, DayLo: day, DayHi: day, NegEvery: 1,
				Features: serial.GroupFeatures(g), Expand: true, Windows: serial.Windows(),
				MWIBelow: below, MWIAtLeast: atLeast, Workers: 1, Reuse: &fbuf,
			})
			fend := time.Now()
			tr.record(fid, 0, 0, "dataset.frame", fstart, fend)
			if errors.Is(err, dataset.ErrNoSamples) {
				continue
			}
			if err != nil {
				return pt, err
			}
			fsp := under(tr.snapshot(), fid)
			frameSelf += selfTimes(fsp)[fid]
			cols := make([][]float64, fr.NumFeatures())
			for i := range cols {
				cols[i] = fr.Col(i)
			}
			out := make([]float64, fr.NumRows())
			d, err := tr.timed("flat.kernel", 0, 0, func(int64) error { return serial.ScoreBatch(g, cols, out) })
			if err != nil {
				return pt, err
			}
			kernel += d
			if rep == 0 && fr.NumRows() > kernelRows {
				kernelGroup, kernelRows = g, fr.NumRows()
				rows64 = make([][]float64, len(cols))
				for i, c := range cols {
					rows64[i] = make([]float64, batchSize)
					for k := range rows64[i] {
						rows64[i][k] = c[k%len(c)]
					}
				}
			}
		}
		frames = append(frames, ms(frameSelf))
		kernels = append(kernels, ms(kernel))
	}
	pt.score, pt.series, pt.frame, pt.kernel = medianOf(scores), medianOf(series), medianOf(frames), medianOf(kernels)
	pt.callsPerDrive, pt.allocsPerDrive = medianOf(calls), medianOf(allocs)

	var days sample
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := env.scorer.ScoreInto(snap, day, day, &buf); err != nil {
			return pt, err
		}
		days.add(time.Since(start))
	}
	pt.day = days.median()

	if rows64 == nil {
		return pt, errors.New("kernel replay: no group scored a drive")
	}
	var err error
	if pt.kernelB1, err = kernelPerRow(serial, kernelGroup, rows64, 1); err != nil {
		return pt, err
	}
	if pt.kernelB64, err = kernelPerRow(serial, kernelGroup, rows64, batchSize); err != nil {
		return pt, err
	}
	return pt, nil
}

// kernelPerRow times Scorer.ScoreBatch on group g at batch size n,
// cycling through the 64 real rows, in microseconds per row.
func kernelPerRow(sc *engine.Scorer, g int, rows [][]float64, n int) (float64, error) {
	out := make([]float64, n)
	cols := make([][]float64, len(rows))
	const totalRows = 1 << 14
	calls := totalRows / n
	start := time.Now()
	for c := 0; c < calls; c++ {
		off := (c * n) % batchSize
		for i, col := range rows {
			cols[i] = col[off : off+n]
		}
		if err := sc.ScoreBatch(g, cols, out); err != nil {
			return 0, err
		}
	}
	return us(time.Since(start)) / float64(calls*n), nil
}

// storeReplay times Snapshot.Series over the store-backed drive set, in
// microseconds per call.
func storeReplay(env *layerEnv) (float64, error) {
	snap := env.st.Snapshot()
	idx := snap.RefIndex(env.model)
	const reps = 20
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, id := range env.p.storeIDs {
			if _, _, err := snap.Series(idx[id]); err != nil {
				return 0, err
			}
		}
	}
	return us(time.Since(start)) / float64(reps*len(env.p.storeIDs)), nil
}

// appendReplay times one in-process AppendThrough of the next upstream
// day: the store work under /v1/ingest without HTTP.
func appendReplay(env *layerEnv) (float64, error) {
	day := env.st.Horizon()
	if day >= env.st.SourceDays() {
		return 0, errors.New("append replay: no upstream day left")
	}
	start := time.Now()
	if err := env.st.AppendThrough(day); err != nil {
		return 0, err
	}
	return ms(time.Since(start)), nil
}

// selectionReplay times each preliminary ranker, the complexity
// ensemble, and the change-point detector on the selection frame the
// real call path built (the global frame; WEFR also ranks the two wear
// groups' subsets).
func selectionReplay(o *outcome, env *layerEnv) error {
	fr := env.selFrame
	if fr == nil {
		return errors.New("selection replay: no selection frame was captured")
	}
	for _, r := range selection.DefaultRankers(1) {
		start := time.Now()
		if _, err := r.Rank(fr); err != nil {
			return fmt.Errorf("rank %s: %w", r.Name(), err)
		}
		name := strings.ToLower(strings.ReplaceAll(r.Name(), " ", "-"))
		o.layer("selection."+name+"_s", time.Since(start).Seconds(), "s")
	}
	cols := make([][]float64, fr.NumFeatures())
	for i := range cols {
		cols[i] = fr.Col(i)
	}
	start := time.Now()
	if _, err := complexity.FeatureComplexities(cols, fr.Labels()); err != nil {
		return fmt.Errorf("complexity: %w", err)
	}
	o.layer("core.complexity_s", time.Since(start).Seconds(), "s")
	o.logf("layer selection: replayed on the captured %d-row, %d-feature selection frame", fr.NumRows(), fr.NumFeatures())

	// The detector runs over the controller's minimum window of daily
	// score summaries; any 60 values in [0, 1] cost the same.
	xs := make([]float64, 60)
	col := fr.Col(0)
	for i := range xs {
		xs[i] = col[i%len(col)]
	}
	const reps = 20
	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := changepoint.Detect(xs, changepoint.DefaultConfig(), changepoint.DefaultZThreshold); err != nil {
			return fmt.Errorf("changepoint: %w", err)
		}
	}
	o.layer("changepoint.detect_ms", ms(time.Since(start))/reps, "ms")

	var sel sample
	for _, s := range env.tr.snapshot() {
		if s.Name == "core.select" {
			sel = append(sel, s.dur().Seconds())
		}
	}
	o.layer("core.select_s", medianOf(sel), "s")
	return nil
}

// stageLayers reports the engine's stage report.
func stageLayers(o *outcome, rep *engine.StageReport) {
	got := map[string]float64{}
	for _, t := range rep.Totals() {
		got[t.Stage] = t.Duration.Seconds()
	}
	for _, s := range []string{engine.StageIngest, engine.StageFeaturize, engine.StageSelect, engine.StageTrain, engine.StageCalibrate, engine.StageScore} {
		o.layer("engine.stage."+s+"_s", got[s], "s")
	}
}

// persistReplay times the journal append and registry save the
// controller does at each decision, both fsync'd, in the run's scratch
// directory.
func persistReplay(o *outcome, env *layerEnv) error {
	dir, err := os.MkdirTemp(env.work, "persist-*")
	if err != nil {
		return err
	}
	j, _, err := runlog.Open(filepath.Join(dir, "bench.journal"))
	if err != nil {
		return err
	}
	const appends = 30
	payload := map[string]any{"day": 314, "trigger": "changepoint", "stat": 3.6, "window": 60}
	start := time.Now()
	for i := 0; i < appends; i++ {
		if err := j.Append("bench", payload); err != nil {
			j.Close()
			return err
		}
	}
	o.layer("runlog.append_ms", ms(time.Since(start))/appends, "ms")
	if err := j.Close(); err != nil {
		return err
	}
	reg := &core.Registry{Dir: filepath.Join(dir, "registry")}
	const saves = 5
	start = time.Now()
	for i := 0; i < saves; i++ {
		if _, err := engine.SaveSnapshot(reg, "bench", env.scorer.Snapshot()); err != nil {
			return err
		}
	}
	o.layer("core.registry_save_ms", ms(time.Since(start))/saves, "ms")
	return nil
}

// traceCost reports the spans recorded in the measured interval
// [from, to] and an estimate of their cost: the time to record as many
// spans into a throwaway tracer, as a share of the interval.
func traceCost(o *outcome, tr *tracer, from, to time.Time) {
	n := 0
	for _, s := range tr.snapshot() {
		if s.Start >= from.Sub(tr.origin) && s.End <= to.Sub(tr.origin) {
			n++
		}
	}
	t := newTracer()
	const reps = 20000
	now := time.Now()
	start := time.Now()
	for i := 0; i < reps; i++ {
		t.record(t.id(), 0, 0, "x", now, now)
	}
	per := time.Since(start) / reps
	o.layer("bench.spans", float64(n), "count")
	o.layer("bench.span_cost_share", float64(per)*float64(n)/float64(to.Sub(from)), "share")
}
