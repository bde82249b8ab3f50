package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opKind is one request type of the online mix.
type opKind int

const (
	opSingle opKind = iota // inline single-drive score
	opStore                // store-backed single (drive_id, latest day)
	opBatch                // inline batch of batchSize drives
	opIngest               // POST /v1/ingest, one more day
	numOpKinds
)

var opNames = [numOpKinds]string{"single", "store_single", "batch", "ingest"}

// op is one scheduled request: due is its offset from the phase start;
// body indexes the kind's payload pool.
type op struct {
	kind opKind
	due  time.Duration
	body int
}

// mix weights the read kinds of the online workload.
type mix [opIngest]float64

// schedule builds an open-loop Poisson arrival schedule of read
// requests at rate per second over dur, plus an ingest every
// ingestEvery (0 = none). The whole schedule is drawn up front from
// rng, so the generator's own speed cannot change what is offered.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, m mix, pools [opIngest]int, ingestEvery time.Duration) []op {
	var out []op
	total := 0.0
	for _, w := range m {
		total += w
	}
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			break
		}
		u := rng.Float64() * total
		k := opKind(0)
		for ; k < opIngest-1 && u >= m[k]; k++ {
			u -= m[k]
		}
		out = append(out, op{kind: k, due: due, body: rng.Intn(pools[k])})
	}
	if ingestEvery > 0 {
		for due := ingestEvery / 2; due < dur; due += ingestEvery {
			out = append(out, op{kind: opIngest, due: due})
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	}
	return out
}

// sent is one executed request.
type sent struct {
	op
	lag     time.Duration // send time minus due time
	latency time.Duration // completion minus due time
	skipped bool          // not sent (e.g. no upstream day left to ingest)
	err     error
}

// execute runs sched open loop from `workers` goroutines. Each takes
// the next op in due order, waits until it is due, and sends it; when
// both are busy the op goes out late, and the lateness counts in its
// latency, which is always timed from the due time.
func execute(sched []op, do func(o op) (skipped bool, err error)) []sent {
	out := make([]sent, len(sched))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				o := sched[i]
				due := start.Add(o.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sentAt := time.Now()
				skipped, err := do(o)
				out[i] = sent{op: o, lag: sentAt.Sub(due), latency: time.Since(due), skipped: skipped, err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// phaseStats summarizes one executed phase.
type phaseStats struct {
	name          string
	rate          float64 // offered read rate, per second
	dur           time.Duration
	attempted, ok int
	failed        int
	lagP99        float64 // ms
	lags          sample
	lat           [numOpKinds]sample
	achievedShare float64 // achieved read rate over offered
	singleP99     float64 // ms, nearest rank, for the SLO test
}

func summarize(name string, rate float64, dur time.Duration, res []sent) phaseStats {
	ps := phaseStats{name: name, rate: rate, dur: dur}
	var lags sample
	var last time.Duration
	reads, readsOK := 0, 0
	for _, r := range res {
		if r.skipped {
			continue
		}
		ps.attempted++
		lags.add(r.lag)
		if r.err != nil {
			ps.failed++
		} else {
			ps.ok++
			ps.lat[r.kind].add(r.latency)
		}
		if r.kind != opIngest {
			reads++
			if r.err == nil {
				readsOK++
			}
			last = max(last, r.due+r.latency)
		}
	}
	ps.lags = lags
	ps.lagP99 = lags.pct(99)
	ps.singleP99 = ps.lat[opSingle].pct(99)
	// Achieved over offered compares completions with the schedule's
	// own count, so Poisson variation in the number of arrivals does not
	// read as lost throughput.
	if reads > 0 {
		ps.achievedShare = float64(readsOK) / float64(reads) * dur.Seconds() / max(dur, last).Seconds()
	}
	return ps
}

// merge combines rounds of one phase: counts and samples add up, and
// the achieved share is the worst round's. A zero a is empty.
func merge(a, b phaseStats) phaseStats {
	if a.name == "" {
		return b
	}
	a.dur += b.dur
	a.attempted += b.attempted
	a.ok += b.ok
	a.failed += b.failed
	a.lags = append(a.lags, b.lags...)
	a.lagP99 = a.lags.pct(99)
	for k := range a.lat {
		a.lat[k] = append(a.lat[k], b.lat[k]...)
	}
	a.singleP99 = a.lat[opSingle].pct(99)
	a.achievedShare = min(a.achievedShare, b.achievedShare)
	return a
}

// sloP99Ms is the single-request p99 limit max_qps is held to: the
// daemon's default -slo-p99.
const sloP99Ms = 100

// meetsSLO is the max_qps condition: single p99 within the limit, no
// failed, shed or deadline-exceeded request, and at least 95% of the
// offered rate achieved.
func (ps phaseStats) meetsSLO() bool {
	return ps.failed == 0 && ps.lat[opSingle] != nil && ps.singleP99 <= sloP99Ms && ps.achievedShare >= 0.95
}

// searchMaxRate finds the highest rate that passes, starting from a
// bracket [lo, hi] where lo is known to pass and hi is expected to
// fail, by geometric bisection until hi/lo <= 1+res. If every probe
// passes, hi itself is probed, and when it passes too the bracket
// moves up to [hi, 2hi]. Within a bracket lo only rises and hi only
// falls, so the answer never moves away from a pass/fail boundary. At
// most maxProbes probes run; it returns the highest passing rate seen,
// the lowest rate seen failing (or the untested upper end), and the
// number of probes.
func searchMaxRate(lo, hi, res float64, maxProbes int, pass func(rate float64) bool) (float64, float64, int) {
	probes := 0
	hiFailed := false
	for probes < maxProbes {
		if hi/lo <= 1+res {
			if hiFailed {
				break
			}
			probes++
			if !pass(hi) {
				break
			}
			lo, hi = hi, 2*hi
			continue
		}
		mid := math.Sqrt(lo * hi)
		probes++
		if pass(mid) {
			lo = mid
		} else {
			hi, hiFailed = mid, true
		}
	}
	return lo, hi, probes
}
