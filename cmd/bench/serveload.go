package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/forest"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/simulate"
	"repro/internal/smart"
	"repro/internal/store"
)

// benchServeLoad measures the online prediction service at
// saturation: it boots a daemon over a trained snapshot and a
// fully-ingested store, serves it on a loopback port, and runs an
// open-loop saturation scan mixing coalesced single-drive requests,
// kernel-direct batches, and whole-fleet passes. NsPerOp is the
// single-path p50 at the highest offered rate that held the SLO; the
// p99/p999 tails, per-path medians, and QPS at saturation land in
// Extra.
func benchServeLoad() (Result, error) {
	drives, trees, depth := 800, 30, 8
	stepDur, maxSteps := 1500*time.Millisecond, 6
	baseQPS := 100.0
	if quickMode {
		drives, trees, depth = 300, 8, 5
		stepDur, maxSteps = 400*time.Millisecond, 3
		baseQPS = 50
	}

	fleet, err := simulate.New(simulate.Config{
		TotalDrives: drives, Days: 120, Seed: 3, AFRScale: 4,
		Models: []smart.ModelID{smart.MC1},
	})
	if err != nil {
		return Result{}, err
	}
	src := dataset.FleetSource{Fleet: fleet}
	days := src.Days()
	ph := engine.Phase{TrainLo: 0, TrainHi: days - 31, TestLo: days - 30, TestHi: days - 1}
	cfg := engine.Config{
		Forest: forest.Config{NumTrees: trees, MaxDepth: depth, Seed: 3},
		Seed:   3,
	}
	res, err := engine.RunPhase(src, smart.MC1, pipeline.NoSelection{}, ph, cfg)
	if err != nil {
		return Result{}, err
	}
	snap, err := res.Snapshot()
	if err != nil {
		return Result{}, err
	}

	regDir, err := os.MkdirTemp("", "bench-serve-*")
	if err != nil {
		return Result{}, err
	}
	cleanups = append(cleanups, func() { os.RemoveAll(regDir) })
	reg := &core.Registry{Dir: regDir}
	if _, err := engine.SaveSnapshot(reg, "serving", snap); err != nil {
		return Result{}, err
	}
	st := store.Open(src, store.Options{})
	cleanups = append(cleanups, func() { st.Close() })
	if err := st.Track(smart.MC1); err != nil {
		return Result{}, err
	}
	if err := st.AppendThrough(days - 1); err != nil {
		return Result{}, err
	}

	s, err := serve.New(serve.Options{Registry: reg, Artifacts: []string{"serving"}, Store: st})
	if err != nil {
		return Result{}, err
	}
	cleanups = append(cleanups, s.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Result{}, err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	cleanups = append(cleanups, func() { srv.Close() })

	spec := serve.LoadSpec{
		BaseQPS:       baseQPS,
		Duration:      stepDur,
		DiurnalPeriod: stepDur / 2,
		DiurnalAmp:    0.5,
		Seed:          3,
		Day:           days - 1,
		Cohorts: []serve.Cohort{
			{Name: "single", Artifact: "serving", Weight: 0.75, Path: "single"},
			{Name: "batch", Artifact: "serving", Weight: 0.2, Path: "batch", Batch: 64},
			{Name: "fleet", Artifact: "serving", Weight: 0.05, Path: "fleet"},
		},
	}
	client := &http.Client{Timeout: 30 * time.Second}
	sat, err := serve.SaturationScan(client, "http://"+ln.Addr().String(), spec, 1.6, maxSteps, 100*time.Millisecond)
	if err != nil {
		return Result{}, err
	}
	if len(sat.Steps) == 0 {
		return Result{}, fmt.Errorf("saturation scan produced no steps")
	}
	// The step to report from is the last one that held the SLO; when
	// even the first offered rate broke it, fall back to that step.
	held := len(sat.Steps) - 1
	if sat.Saturated && held > 0 {
		held--
	}
	rep := sat.Steps[held]
	single := rep.Paths["single"]
	// When even the first offered rate broke the SLO (tiny machines),
	// the achieved throughput of that step is the saturation estimate.
	satQPS := sat.SaturationQPS
	if satQPS == 0 {
		satQPS = rep.AchievedQPS
	}

	requests, errors := 0, 0
	shed, deadline := 0, 0
	for _, step := range sat.Steps {
		requests += step.Requests
		errors += step.Errors
		shed += step.Shed
		deadline += step.Deadline
	}
	// The overload envelope joins the latency trajectory: shed rate and
	// deadline-exceeded rate cover the whole scan (the knee steps are
	// where shedding happens), goodput is the held step's accepted QPS.
	shedRate, deadlineRate := 0.0, 0.0
	if requests > 0 {
		shedRate = float64(shed) / float64(requests)
		deadlineRate = float64(deadline) / float64(requests)
	}
	out := Result{
		NsPerOp: int64(single.P50Ms * 1e6),
		N:       requests,
		Extra: map[string]float64{
			"qps_saturation": satQPS,
			"p50_single_ms":  single.P50Ms,
			"p99_single_ms":  single.P99Ms,
			"p999_single_ms": single.P999Ms,
			"errors":         float64(errors),
			"saturated":      b2f(sat.Saturated),
			"goodput_qps":    rep.GoodputQPS,
			"shed_rate":      shedRate,
			"deadline_rate":  deadlineRate,
		},
	}
	if ps, ok := rep.Paths["batch"]; ok {
		out.Extra["p50_batch_ms"] = ps.P50Ms
		out.Extra["p99_batch_ms"] = ps.P99Ms
	}
	if ps, ok := rep.Paths["fleet"]; ok {
		out.Extra["p50_fleet_ms"] = ps.P50Ms
	}
	return out, nil
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
