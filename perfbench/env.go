package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/control"
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

// artifact is the registry name every workload serves under; it is the
// controller's, so a daemon over a controller's registry serves what
// the controller promoted.
const artifact = control.DefaultArtifact

// trainPhase is the pinned training layout of the online and fleet-day
// models: WEFR selection and a small forest on days [0, 99], scored on
// [100, 119]. The forest is kept small so that set-up, repeated three
// times per run, stays a few seconds.
var trainPhase = engine.Phase{TrainLo: 0, TrainHi: 99, TestLo: 100, TestHi: 119}

func trainConfig(stages *engine.StageReport) engine.Config {
	return pipeline.Config{Forest: forest.Config{NumTrees: 10, MaxDepth: 6, Seed: 3}, Seed: 3, Stages: stages}
}

// trained is a model trained in set-up, with what the traced run
// replays: the stage report and the selector that saw the real
// selection frame.
type trained struct {
	snap   *engine.ModelSnapshot
	stages *engine.StageReport
	sel    *tracedSelector
}

// train runs WEFR selection and training on src (a store snapshot, so
// the engine reuses the store and its ingested days).
func train(src dataset.Source, model smart.ModelID, tr *tracer) (*trained, error) {
	t := &trained{stages: &engine.StageReport{}, sel: &tracedSelector{sel: pipeline.WEFR{}, tr: tr}}
	var sel engine.Selector = pipeline.WEFR{}
	if tr != nil {
		sel = t.sel
	}
	pd, err := engine.New(src, trainConfig(t.stages)).PreparePhase(model, trainPhase)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	res, err := pd.RunSelector(sel)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	if t.snap, err = res.Snapshot(); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	return t, nil
}

// simulateFleet builds a single-model simulated fleet.
func simulateFleet(model smart.ModelID, drives, days int, seed int64, afr float64) (dataset.Source, error) {
	f, err := simulate.New(simulate.Config{TotalDrives: drives, Days: days, Seed: seed, AFRScale: afr, Models: []smart.ModelID{model}})
	if err != nil {
		return nil, err
	}
	return dataset.FleetSource{Fleet: f}, nil
}

// openStore opens a store over src (through a span-recording wrapper
// when tracing, so upstream fetches are timed) and ingests the model's
// drives through day.
func openStore(src dataset.Source, model smart.ModelID, through int, tr *tracer) (*store.Store, error) {
	if tr != nil {
		src = traceSource(src, tr, "store.fetch")
	}
	st := store.Open(src, store.Options{})
	if err := st.Track(model); err != nil {
		st.Close()
		return nil, err
	}
	if err := st.AppendThrough(through); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// daemon is serve.Server on a loopback port.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startDaemon(reg *core.Registry, st *store.Store) (*daemon, error) {
	s, err := serve.New(serve.Options{Registry: reg, Artifacts: []string{artifact}, Store: st})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	d := &daemon{srv: s, hs: &http.Server{Handler: s.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// close stops the listener and the server and waits for Serve to
// return.
func (d *daemon) close() {
	d.hs.Close()
	<-d.done
	d.srv.Close()
}

// newClient returns an HTTP client holding at most `workers`
// connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		},
	}
}

// post sends body and decodes a 200 response into out. A non-200
// answer is an error carrying the status.
func post(c *http.Client, url string, body []byte, out any) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return resp.StatusCode, json.Unmarshal(b, out)
}

// servedModel reads the served (version, config hash) pair.
func servedModel(c *http.Client, base string) (int, string, error) {
	resp, err := c.Get(base + "/v1/models")
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var infos []serve.ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return 0, "", err
	}
	for _, m := range infos {
		if m.Name == artifact {
			return m.Version, m.ConfigHash, nil
		}
	}
	return 0, "", errors.New("daemon serves no " + artifact)
}

func saveModel(dir string, snap *engine.ModelSnapshot) (*core.Registry, error) {
	reg := &core.Registry{Dir: dir}
	_, err := engine.SaveSnapshot(reg, artifact, snap)
	return reg, err
}

// driveDay names one scored drive-day.
type driveDay struct{ drive, day int }

// payloadSet holds request bodies cut from real simulated drives.
type payloadSet struct {
	single     [][]byte   // inline single bodies
	singleKey  []driveDay // drive-day each single body scores
	singleReq  []serve.ScoreRequest
	batch      [][]byte     // inline batch bodies
	batchKeys  [][]driveDay // drive-day of each batch row
	storeIDs   []int        // drives for store-backed singles
	storeBody  [][]byte
	groupShare [2]int // singles per wear group (group 0, group >= 1)
}

// payloadHistory is the days of telemetry cut into an inline payload:
// the longest feature window plus a week, so generated statistics are
// exact and the body carries the history a client would send.
func payloadHistory(sc *engine.Scorer) int { return sc.MaxWindow() + 7 }

// buildPayloads cuts nSingle inline single bodies, nBatch batch bodies
// of batchSize drives, and nStore store-backed bodies from the store's
// drives. Scored days come from a few seed-chosen days in [dayLo,
// dayHi]; singles alternate between the wear groups when the fleet has
// drive-days in both.
func buildPayloads(snap *store.Snapshot, sc *engine.Scorer, model smart.ModelID, rng *rand.Rand, dayLo, dayHi, nSingle, nBatch, batchSize, nStore int) (*payloadSet, error) {
	hist := payloadHistory(sc)
	dayLo = max(dayLo, hist-1)
	days := make([]int, 6)
	for i := range days {
		days[i] = dayLo + rng.Intn(dayHi-dayLo+1)
	}
	refs := snap.DrivesOf(model)
	if len(refs) == 0 {
		return nil, fmt.Errorf("payloads: no %v drives", model)
	}
	type cut struct {
		key   driveDay
		group int
		cols  map[string][]float64
	}
	draw := func() (cut, bool, error) {
		ref := refs[rng.Intn(len(refs))]
		day := days[rng.Intn(len(days))]
		cols, last, err := snap.Series(ref)
		if err != nil {
			return cut{}, false, err
		}
		if last < day {
			return cut{}, false, nil
		}
		out := cut{key: driveDay{ref.ID, day}, cols: make(map[string][]float64, len(cols))}
		for ft, col := range cols {
			out.cols[ft.String()] = col[day-hist+1 : day+1]
		}
		mwi := 0.0
		if col, ok := cols[engine.MWIFeature]; ok {
			mwi = col[day]
		}
		out.group = sc.PickGroup(mwi)
		return out, out.group >= 0, nil
	}
	p := &payloadSet{}
	seen := map[driveDay]bool{}
	for tries := 0; len(p.single) < nSingle; tries++ {
		if tries > 200*nSingle {
			return nil, errors.New("payloads: too few scorable drive-days")
		}
		c, ok, err := draw()
		if err != nil {
			return nil, err
		}
		g := min(c.group, 1)
		// Alternate groups while the draw budget lasts, so both wear
		// groups' feature sets are exercised.
		if !ok || seen[c.key] || (tries < 50*nSingle && g != len(p.single)%2 && sc.NumGroups() > 1) {
			continue
		}
		seen[c.key] = true
		req := serve.ScoreRequest{Model: artifact, Series: c.cols}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		p.single = append(p.single, b)
		p.singleKey = append(p.singleKey, c.key)
		p.singleReq = append(p.singleReq, req)
		p.groupShare[g]++
	}
	for len(p.batch) < nBatch {
		req := serve.BatchRequest{Model: artifact}
		var keys []driveDay
		for len(keys) < batchSize {
			c, ok, err := draw()
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			req.Drives = append(req.Drives, serve.BatchDrive{Series: c.cols})
			keys = append(keys, c.key)
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		p.batch = append(p.batch, b)
		p.batchKeys = append(p.batchKeys, keys)
	}
	horizon := snap.Days()
	perm := rng.Perm(len(refs))
	for _, i := range perm {
		if len(p.storeIDs) == nStore {
			break
		}
		ref := refs[i]
		if _, last, err := snap.Series(ref); err != nil || last < horizon-1 {
			continue // failed drives stop reporting; keep drives still live
		}
		id := ref.ID
		b, err := json.Marshal(serve.ScoreRequest{Model: artifact, DriveID: &id})
		if err != nil {
			return nil, err
		}
		p.storeIDs = append(p.storeIDs, id)
		p.storeBody = append(p.storeBody, b)
	}
	if len(p.storeIDs) == 0 {
		return nil, errors.New("payloads: no live drives for store-backed requests")
	}
	return p, nil
}

// expectedProbs scores each listed day in process, over a snapshot of
// st, and returns every drive's MaxProb per day: the reference the
// daemon's answers must equal.
func expectedProbs(st *store.Store, sc *engine.Scorer, days map[int]bool) (map[driveDay]float64, error) {
	snap := st.Snapshot()
	var buf engine.ScoreBuf
	out := make(map[driveDay]float64)
	for d := range days {
		outs, err := sc.ScoreInto(snap, d, d, &buf)
		if err != nil {
			return nil, fmt.Errorf("in-process pass day %d: %w", d, err)
		}
		for _, o := range outs {
			out[driveDay{o.Pred.DriveID, d}] = o.MaxProb
		}
	}
	return out, nil
}

// runtimeSample reads the Go runtime's cumulative GC CPU, total CPU and
// allocated bytes.
type runtimeSample struct {
	at              time.Time
	gcCPU, totalCPU float64
	allocBytes      uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{at: time.Now(), gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), allocBytes: s[2].Value.Uint64()}
}

// runtimeLayers reports GC CPU share and allocation rate between two
// samples.
func runtimeLayers(o *outcome, a, b runtimeSample) {
	share := 0.0
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		share = (b.gcCPU - a.gcCPU) / cpu
	}
	o.layer("go.gc_cpu_share", share, "share")
	o.layer("go.alloc_mb_per_s", float64(b.allocBytes-a.allocBytes)/(1<<20)/b.at.Sub(a.at).Seconds(), "MB/s")
}

// timedSetups runs setup n times and returns the median wall time and
// the last environment. Earlier ones are torn down and collected before
// the next starts, so the peak resident set is one environment's.
func timedSetups[E any](n int, setup func() (E, error), teardown func(E)) (float64, E, error) {
	var times []float64
	var env E
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(env)
			runtime.GC()
		}
		start := time.Now()
		e, err := setup()
		if err != nil {
			return 0, env, err
		}
		times = append(times, time.Since(start).Seconds())
		env = e
	}
	return medianOf(times), env, nil
}
