package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/smart"
	"repro/internal/store"
)

// The fleet-day workload: the operator's daily cycle over a store of
// ~10k MC1 drives. The model is trained in set-up on a separate small
// fleet. One client in a closed loop ingests day d, then scores the
// whole fleet on day d. Both fleets are pinned, so runs with different
// seeds measure the same system; the seed picks the sweep's first day.
const (
	fleetDrives    = 10000
	fleetDays      = 90
	fleetSeed      = 11
	fleetFirstDay  = 30 // earliest first day of the sweep
	trainDrives    = 300
	trainFleetDays = 150
	trainSeed      = 5
)

type fleetEnv struct {
	st     *store.Store
	model  *trained
	scorer *engine.Scorer
	d      *daemon
}

func (e *fleetEnv) close() {
	if e.d != nil {
		e.d.close()
	}
	e.st.Close()
}

func setupFleetDay(cfg runConfig) (*fleetEnv, error) {
	small, err := simulateFleet(smart.MC1, trainDrives, trainFleetDays, trainSeed, 4)
	if err != nil {
		return nil, err
	}
	trainStore := store.Open(small, store.Options{})
	model, err := train(trainStore.Snapshot(), smart.MC1, cfg.tr)
	trainStore.Close()
	if err != nil {
		return nil, err
	}
	big, err := simulateFleet(smart.MC1, fleetDrives, fleetDays, fleetSeed, 4)
	if err != nil {
		return nil, err
	}
	st, err := openStore(big, smart.MC1, firstDay(cfg)-1, cfg.tr)
	if err != nil {
		return nil, err
	}
	e := &fleetEnv{st: st, model: model}
	if e.scorer, err = engine.NewScorer(model.snap, 0); err != nil {
		e.close()
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "fleet-reg-*")
	if err != nil {
		e.close()
		return nil, err
	}
	reg, err := saveModel(dir, model.snap)
	if err != nil {
		e.close()
		return nil, err
	}
	if e.d, err = startDaemon(reg, st); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// firstDay is the sweep's first day: one of five, by seed.
func firstDay(cfg runConfig) int { return fleetFirstDay + int(uint64(cfg.seed)%5) }

func runFleetDay(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	setupS, env, err := timedSetups(setups, func() (*fleetEnv, error) { return setupFleetDay(cfg) }, (*fleetEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	o.e2e("setup_s", setupS, "s")
	client := newClient()
	defer client.CloseIdleConnections()
	version, hash, err := servedModel(client, env.d.base)
	if err != nil {
		return nil, err
	}
	o.logf("fleet-day: %d MC1 drives, model from a separate %d-drive fleet with %d wear groups", len(env.st.Snapshot().DrivesOf(smart.MC1)), trainDrives, env.scorer.NumGroups())

	var dayLat, ingestLat, fleetLat, inProc sample
	var sweep time.Duration
	drives := 0
	var buf engine.ScoreBuf
	rt0 := readRuntime()
	start := time.Now()
	lastDay := env.st.SourceDays() - 1 - probeIngestDays
	first := firstDay(cfg)
	for d := first; d <= lastDay && time.Since(start) < cfg.seconds; d++ {
		o.attempted += 2
		var fresp serve.FleetResponse
		var ingest, fleet time.Duration
		dur, err := cfg.tr.timed("fleet.day", 0, int64(d), func(id int64) error {
			var err error
			ingest, err = cfg.tr.timed("http.ingest", id, int64(d), func(int64) error {
				var resp serve.IngestResponse
				_, err := post(client, env.d.base+"/v1/ingest", []byte(fmt.Sprintf(`{"day":%d}`, d)), &resp)
				return err
			})
			if err != nil {
				return fmt.Errorf("ingest day %d: %w", d, err)
			}
			fleet, err = cfg.tr.timed("http.fleet", id, int64(d), func(int64) error {
				_, err := post(client, env.d.base+"/v1/score/fleet", []byte(fmt.Sprintf(`{"model":%q,"day":%d}`, artifact, d)), &fresp)
				return err
			})
			if err != nil {
				return fmt.Errorf("fleet day %d: %w", d, err)
			}
			return nil
		})
		if err != nil {
			o.failed++
			o.check(false, "%v", err)
			break
		}
		sweep += dur
		dayLat.add(dur)
		ingestLat.add(ingest)
		fleetLat.add(fleet)
		drives += fresp.Drives

		// The in-process pass over the same snapshot is the reference;
		// it runs between days and is not part of the sweep time.
		t0 := time.Now()
		want, err := env.scorer.ScoreInto(env.st.Snapshot(), d, d, &buf)
		if err != nil {
			return nil, err
		}
		inProc.add(time.Since(t0))
		if ok, msg := sameFleet(fresp, want, version, hash); !ok {
			o.failed++
			o.check(false, "day %d: %s", d, msg)
		}
	}
	rt1 := readRuntime()
	if len(dayLat) == 0 {
		return nil, fmt.Errorf("fleet-day: no day completed")
	}
	perSec := float64(drives) / sweep.Seconds()
	o.e2e("p50_ms", dayLat.median(), "ms")
	o.logf("closed loop: %d days [%d, %d], %d drive-days scored, sweep %.3f s, %d failed", len(dayLat), first, first+len(dayLat)-1, drives, sweep.Seconds(), o.failed)
	o.logf("end-to-end fleet_drives_per_s %.1f 1/s (ingest included)", perSec)
	o.logf("end-to-end fleet_day_p50_ms %.4f ms (%s); ingest %s; fleet %s; in-process ScoreInto %s", dayLat.median(), dayLat.describe(), ingestLat.describe(), fleetLat.describe(), inProc.describe())
	o.logf("end-to-end failed_share %.6f (%d of %d)", float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted)
	o.logf("check: drives, alarms and mean_prob of %d fleet answers equal the in-process pass", len(dayLat))

	if cfg.trace {
		runtimeLayers(o, rt0, rt1)
		le := &layerEnv{st: env.st, scorer: env.scorer, model: smart.MC1, d: env.d, client: client,
			selFrame: env.model.sel.last.Load(), stages: env.model.stages, work: cfg.work, tr: cfg.tr}
		rng := rand.New(rand.NewSource(cfg.seed))
		if le.p, err = buildPayloads(env.st.Snapshot(), env.scorer, smart.MC1, rng, first, env.st.Horizon()-1, 64, 2, batchSize, 64); err != nil {
			return nil, err
		}
		traceCost(o, cfg.tr, rt0.at, rt1.at)
		fetchLayer(o, cfg.tr, setups)
		if err := layerMetrics(o, le, live{ingest: ingestLat, fleetHTTP: fleetLat, fleetInProc: inProc}); err != nil {
			return nil, err
		}
		o.layer("runlog.records", 0, "count")
		o.layer("bench.traced_p50_ms", dayLat.median(), "ms")
	}
	return o, nil
}

// sameFleet compares a fleet answer with the in-process pass.
func sameFleet(got serve.FleetResponse, want []engine.DriveOutcome, version int, hash string) (bool, string) {
	alarms, total := 0, 0.0
	for _, w := range want {
		total += w.MaxProb
		if w.Pred.FirstAlarmDay >= 0 {
			alarms++
		}
	}
	mean := 0.0
	if len(want) > 0 {
		mean = total / float64(len(want))
	}
	if got.Version != version || got.ConfigHash != hash {
		return false, fmt.Sprintf("answered by (%d, %s), served (%d, %s)", got.Version, got.ConfigHash, version, hash)
	}
	if got.Drives != len(want) || got.Alarms != alarms || got.MeanProb != mean {
		return false, fmt.Sprintf("daemon drives %d alarms %d mean %v, in-process %d %d %v", got.Drives, got.Alarms, got.MeanProb, len(want), alarms, mean)
	}
	return true, ""
}

// fetchLayer reports upstream Series time per first-touch ingest, from
// the spans the upstream wrapper recorded.
func fetchLayer(o *outcome, tr *tracer, opens int) {
	var total time.Duration
	n := 0
	for _, s := range tr.snapshot() {
		if s.Name == "store.fetch" {
			total += s.dur()
			n++
		}
	}
	o.layer("store.fetch_s", total.Seconds()/float64(opens), "s")
	o.logf("layer store.fetch: %d upstream Series calls over %d first-touch ingests", n, opens)
}
