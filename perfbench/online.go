package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/smart"
	"repro/internal/store"
)

// The online workload: a daemon on loopback serving a WEFR-selected,
// two-wear-group snapshot of a pinned MC1 fleet, under open-loop
// Poisson load. The fleet and model are pinned so that runs with
// different seeds measure the same system; the seed draws the arrival
// schedule and which drive-days are cut into payloads.
const (
	onlineDrives = 400
	onlineDays   = 160 // upstream span; training ends at day 119
	onlineSeed   = 7

	// Offered read rates of the fixed-rate phases, about a quarter and
	// three quarters of max_qps on the 2-CPU machine the benchmark was
	// defined on. They are constants so a change that moves max_qps does
	// not move the load the latencies are measured at.
	lightQPS = 120.0
	heavyQPS = 360.0
	// searchHi is the upper end of the max_qps bracket; the search
	// raises it if it passes.
	searchHi = 720.0
	// searchRes is the max_qps resolution: finer than its bound.
	searchRes = 0.05

	batchSize   = 64
	ingestEvery = time.Second
	rounds      = 4 // interleaved light/heavy/saturation rounds
)

// onlineMix is ~70% inline single, ~15% store-backed single and ~15%
// inline batch.
var onlineMix = mix{opSingle: 0.70, opStore: 0.15, opBatch: 0.15}

type onlineEnv struct {
	st      *store.Store
	model   *trained
	scorer  *engine.Scorer
	d       *daemon
	p       *payloadSet
	version int
	hash    string
}

func (e *onlineEnv) close() {
	if e.d != nil {
		e.d.close()
	}
	e.st.Close()
}

func setupOnline(cfg runConfig) (*onlineEnv, error) {
	src, err := simulateFleet(smart.MC1, onlineDrives, onlineDays, onlineSeed, 4)
	if err != nil {
		return nil, err
	}
	st, err := openStore(src, smart.MC1, 0, cfg.tr)
	if err != nil {
		return nil, err
	}
	e := &onlineEnv{st: st}
	if e.model, err = train(st.Snapshot(), smart.MC1, cfg.tr); err != nil {
		e.close()
		return nil, err
	}
	if e.scorer, err = engine.NewScorer(e.model.snap, 0); err != nil {
		e.close()
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "online-reg-*")
	if err != nil {
		e.close()
		return nil, err
	}
	reg, err := saveModel(dir, e.model.snap)
	if err != nil {
		e.close()
		return nil, err
	}
	if e.d, err = startDaemon(reg, st); err != nil {
		e.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	if e.p, err = buildPayloads(st.Snapshot(), e.scorer, smart.MC1, rng, 30, trainPhase.TestHi, 64, 8, batchSize, 64); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// onlineRun executes phases against one environment and keeps what the
// correctness checks need.
type onlineRun struct {
	env        *onlineEnv
	cfg        runConfig
	client     *http.Client
	nextIngest atomic.Int64
	reqs       atomic.Int64

	mu        sync.Mutex
	wrong     []string
	singleP   map[int]float64   // payload -> first prob
	batchP    map[int][]float64 // payload -> first probs
	storeSeen map[driveDay]float64
	inline    map[driveDay]float64
}

// fail records a wrong answer for the report and returns it as the
// op's error, so it counts as failed.
func (r *onlineRun) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	r.mu.Lock()
	if len(r.wrong) < 5 {
		r.wrong = append(r.wrong, err.Error())
	}
	r.mu.Unlock()
	return err
}

func (r *onlineRun) checkModel(version int, hash string) error {
	if version != r.env.version || hash != r.env.hash {
		return r.fail("answer from (%d, %s), served (%d, %s)", version, hash, r.env.version, r.env.hash)
	}
	return nil
}

// do sends one op and checks its answer.
func (r *onlineRun) do(o op) (bool, error) {
	e := r.env
	req := r.reqs.Add(1)
	var skipped bool
	_, err := r.cfg.tr.timed("http."+opNames[o.kind], 0, req, func(int64) error {
		switch o.kind {
		case opSingle, opStore:
			body := e.p.single
			if o.kind == opStore {
				body = e.p.storeBody
			}
			var resp serve.ScoreResponse
			if _, err := post(r.client, e.d.base+"/v1/score", body[o.body], &resp); err != nil {
				return err
			}
			if err := r.checkModel(resp.Version, resp.ConfigHash); err != nil {
				return err
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			if o.kind == opStore {
				r.storeSeen[driveDay{resp.DriveID, resp.Day}] = resp.Prob
				return nil
			}
			p, seen := r.singleP[o.body]
			if !seen {
				r.singleP[o.body] = resp.Prob
				r.inline[e.p.singleKey[o.body]] = resp.Prob
			}
			if seen && p != resp.Prob {
				err := fmt.Errorf("payload %d answered %v, earlier %v", o.body, resp.Prob, p)
				if len(r.wrong) < 5 {
					r.wrong = append(r.wrong, err.Error())
				}
				return err
			}
		case opBatch:
			var resp serve.BatchResponse
			if _, err := post(r.client, e.d.base+"/v1/score/batch", e.p.batch[o.body], &resp); err != nil {
				return err
			}
			if err := r.checkModel(resp.Version, resp.ConfigHash); err != nil {
				return err
			}
			if len(resp.Results) != batchSize {
				return r.fail("batch answered %d of %d drives", len(resp.Results), batchSize)
			}
			probs := make([]float64, len(resp.Results))
			for i, res := range resp.Results {
				probs[i] = res.Prob
			}
			r.mu.Lock()
			prev, ok := r.batchP[o.body]
			if !ok {
				r.batchP[o.body] = probs
			}
			r.mu.Unlock()
			for i := range prev {
				if prev[i] != probs[i] {
					return r.fail("batch payload %d row %d answered %v, earlier %v", o.body, i, probs[i], prev[i])
				}
			}
		case opIngest:
			day := int(r.nextIngest.Load())
			if day >= e.st.SourceDays()-probeIngestDays {
				skipped = true
				return nil
			}
			r.nextIngest.Add(1)
			var resp serve.IngestResponse
			if _, err := post(r.client, e.d.base+"/v1/ingest", []byte(fmt.Sprintf(`{"day":%d}`, day)), &resp); err != nil {
				return err
			}
			if resp.Horizon != day+1 {
				return r.fail("ingest day %d left horizon %d", day, resp.Horizon)
			}
		}
		return nil
	})
	return skipped, err
}

// phase runs one open-loop phase at rate. Phases drawn from the same
// seed share one arrival pattern, compressed or stretched to the rate,
// so the max_qps probes differ in rate only.
func (r *onlineRun) phase(name string, rate float64, dur time.Duration, seed int64) phaseStats {
	pools := [opIngest]int{len(r.env.p.single), len(r.env.p.storeBody), len(r.env.p.batch)}
	sched := schedule(rand.New(rand.NewSource(seed)), rate, dur, onlineMix, pools, ingestEvery)
	res := execute(sched, r.do)
	return summarize(name, rate, dur, res)
}

// saturate sends the read mix closed loop from every worker for dur:
// each worker sends its next request as soon as the previous one
// completes. The phase's rate is the successful reads per second, the
// daemon's capacity under this mix at `workers` connections.
func (r *onlineRun) saturate(dur time.Duration, seed int64) phaseStats {
	pools := [opIngest]int{len(r.env.p.single), len(r.env.p.storeBody), len(r.env.p.batch)}
	// An arrival pattern at 1000/s supplies the op sequence; its due
	// times are ignored.
	seq := schedule(rand.New(rand.NewSource(seed)), 1000, 10*dur, onlineMix, pools, 0)
	var next atomic.Int64
	var mu sync.Mutex
	var res []sent
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				o := seq[int(next.Add(1)-1)%len(seq)]
				t := time.Now()
				_, err := r.do(o)
				d := time.Since(t)
				mu.Lock()
				res = append(res, sent{op: o, latency: d, err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	ps := summarize("saturation", 0, elapsed, res)
	ps.rate = float64(ps.ok) / elapsed.Seconds()
	return ps
}

// verify compares every store-backed single, inline single and batch
// row answer with the in-process pass over the same drive-day.
func (r *onlineRun) verify(o *outcome) error {
	rows := map[driveDay]float64{}
	for b, probs := range r.batchP {
		for i, k := range r.env.p.batchKeys[b] {
			rows[k] = probs[i]
		}
	}
	answers := []map[driveDay]float64{r.storeSeen, r.inline, rows}
	days := map[int]bool{}
	for _, m := range answers {
		for k := range m {
			days[k.day] = true
		}
	}
	want, err := expectedProbs(r.env.st, r.env.scorer, days)
	if err != nil {
		return err
	}
	bad := 0
	for _, m := range answers {
		for k, p := range m {
			if w, ok := want[k]; !ok || w != p {
				bad++
				if bad <= 3 {
					o.check(false, "drive %d day %d: daemon %v, in-process %v (found %v)", k.drive, k.day, p, w, ok)
				}
			}
		}
	}
	o.failed += bad
	o.logf("check: %d store-backed, %d inline single and %d batch-row drive-days equal the in-process pass (%d differ); %d single and %d batch payloads repeat identically",
		len(r.storeSeen), len(r.inline), len(rows), bad, len(r.singleP), len(r.batchP))
	return nil
}

func runOnline(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	setupS, env, err := timedSetups(setups, func() (*onlineEnv, error) { return setupOnline(cfg) }, (*onlineEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	o.e2e("setup_s", setupS, "s")
	client := newClient()
	defer client.CloseIdleConnections()
	if env.version, env.hash, err = servedModel(client, env.d.base); err != nil {
		return nil, err
	}
	r := &onlineRun{env: env, cfg: cfg, client: client,
		singleP: map[int]float64{}, batchP: map[int][]float64{}, storeSeen: map[driveDay]float64{}, inline: map[driveDay]float64{}}
	r.nextIngest.Store(int64(env.st.Horizon()))
	o.logf("online: %d MC1 drives, %d wear groups, %d single payloads (%d low-wear, %d high-wear), %d batch-%d payloads, %d store-backed drives",
		onlineDrives, env.scorer.NumGroups(), len(env.p.single), env.p.groupShare[0], env.p.groupShare[1], len(env.p.batch), batchSize, len(env.p.storeIDs))

	total := cfg.seconds
	// Warm connections, pools and caches before anything is timed.
	warm := r.phase("warmup", lightQPS, total/20, cfg.seed)
	before := env.d.srv.Stats()
	rt0 := readRuntime()
	// The fixed-rate and saturation phases run in interleaved rounds, so
	// a slow spell of the host lasting a few seconds lands in all three
	// instead of deciding one of them.
	var light, heavy, sat phaseStats
	for k := int64(0); k < rounds; k++ {
		light = merge(light, r.phase("light", lightQPS, total/15, cfg.seed+10+k))
		heavy = merge(heavy, r.phase("heavy", heavyQPS, total/20, cfg.seed+20+k))
		sat = merge(sat, r.saturate(total/30, cfg.seed+30+k))
	}
	sat.rate = float64(sat.ok) / sat.dur.Seconds()
	phases := []phaseStats{warm, light, heavy, sat}

	stepDur := total / 15
	lo := lightQPS
	if heavy.meetsSLO() {
		lo = heavyQPS
	}
	maxQPS, failQPS, probes := searchMaxRate(lo, searchHi, searchRes, 4, func(rate float64) bool {
		ps := r.phase(fmt.Sprintf("search@%.0f", rate), rate, stepDur, cfg.seed+4)
		phases = append(phases, ps)
		return ps.meetsSLO()
	})
	rt1 := readRuntime()
	after := env.d.srv.Stats()

	for _, ps := range phases {
		o.attempted += ps.attempted
		o.failed += ps.failed
		o.logf("phase %-12s offered %6.1f/s for %4.1fs: sent %d, ok %d, failed %d, achieved %.3f of offered, send lag p99 %.3f ms, single %s",
			ps.name, ps.rate, ps.dur.Seconds(), ps.attempted, ps.ok, ps.failed, ps.achievedShare, ps.lagP99, ps.lat[opSingle].describe())
	}
	if err := r.verify(o); err != nil {
		return nil, err
	}
	for _, w := range r.wrong {
		o.check(false, "%s", w)
	}
	for _, ps := range phases {
		if ps.failed > 0 {
			o.check(false, "phase %s: %d requests failed", ps.name, ps.failed)
		}
	}

	single := light.lat[opSingle]
	if len(single) == 0 || len(light.lat[opStore]) == 0 || len(heavy.lat[opBatch]) == 0 {
		return nil, errors.New("online: a request kind got no samples; run longer")
	}
	o.e2e("p50_ms", single.median(), "ms")
	o.logf("end-to-end single_p50_ms %.4f ms (light %.0f/s, %s)", single.median(), lightQPS, single.describe())
	q, v, ok := heavy.lat[opSingle].tail()
	o.logf("end-to-end single_p99_ms %.4f ms (heavy %.0f/s, nearest rank; highest supported tail p%g = %.4f ms, ok %v, n %d)",
		heavy.lat[opSingle].pct(99), heavyQPS, q, v, ok, len(heavy.lat[opSingle]))
	o.logf("end-to-end store_single_p50_ms %.4f ms (light, %s)", light.lat[opStore].median(), light.lat[opStore].describe())
	o.logf("end-to-end batch_p50_ms %.4f ms (heavy, %s)", heavy.lat[opBatch].median(), heavy.lat[opBatch].describe())
	o.logf("end-to-end max_qps %.2f 1/s (next probe up failed at %.2f: resolution %.1f%%, target %.0f%%; %d probes of %.1fs; single p99 <= %d ms, no failures, >= 95%% achieved; no bound, see README)",
		maxQPS, failQPS, 100*(failQPS/maxQPS-1), searchRes*100, probes, stepDur.Seconds(), sloP99Ms)
	o.logf("end-to-end saturation_qps %.2f 1/s (closed loop, %d connections, %d reads in %.1fs, no bound, see README)", sat.rate, workers, sat.ok, sat.dur.Seconds())
	o.logf("end-to-end failed_share %.6f (%d of %d)", float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted)

	if cfg.trace {
		runtimeLayers(o, rt0, rt1)
		traceCost(o, cfg.tr, rt0.at, rt1.at)
		fetchLayer(o, cfg.tr, setups)
		var ingest sample
		for _, ps := range []phaseStats{light, heavy} {
			ingest = append(ingest, ps.lat[opIngest]...)
		}
		delta := statsDelta(before, after)
		le := &layerEnv{st: env.st, scorer: env.scorer, model: smart.MC1, p: env.p, d: env.d, client: client,
			selFrame: env.model.sel.last.Load(), stages: env.model.stages, work: cfg.work, tr: cfg.tr}
		if err := layerMetrics(o, le, live{singleP50: single.median(), coalesce: &delta, ingest: ingest}); err != nil {
			return nil, err
		}
		o.layer("runlog.records", 0, "count")
		o.layer("bench.traced_p50_ms", single.median(), "ms")
	}
	return o, nil
}
