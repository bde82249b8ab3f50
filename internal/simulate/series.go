package simulate

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/smart"
)

// Series is one drive's daily SMART log from day 0 through LastDay
// (inclusive): the day the drive failed, or the end of the dataset.
// Every feature column has length LastDay+1.
type Series struct {
	// Drive is the drive the series belongs to.
	Drive Drive
	// LastDay is the final observed day (inclusive).
	LastDay int
	cols    map[smart.Feature][]float64
}

// Col returns the daily values of one learning feature, or nil when
// the drive model does not report the attribute. The returned slice is
// shared; treat it as read-only.
func (s *Series) Col(ft smart.Feature) []float64 { return s.cols[ft] }

// Features returns the features present in the series (catalog order).
func (s *Series) Features() []smart.Feature {
	return smart.MustSpec(s.Drive.Model).Features()
}

// MWIAt returns the drive's MWI_N on the given day.
func (s *Series) MWIAt(day int) float64 {
	return s.cols[smart.Feature{Attr: smart.MWI, Kind: smart.Normalized}][day]
}

// counterAttrs are the cumulative error-counter attributes.
var counterAttrs = map[smart.AttrID]bool{
	smart.RER: true, smart.RSC: true, smart.PFC: true, smart.EFC: true,
	smart.UPL: true, smart.DEC: true, smart.ETE: true, smart.UCE: true,
	smart.CMDT: true, smart.REC: true, smart.PSC: true, smart.OCE: true,
	smart.CEC: true, smart.PLP: true,
}

// Series generates the drive's full daily trajectory deterministically
// from the drive's seed. Calling it twice returns equal data, and it is
// safe to call from several goroutines at once.
//
// Every column is carved from one exact-size slab (each attribute in
// the model's spec yields a raw and a normalized column), so a drive's
// series is a fixed handful of heap objects rather than one allocation
// per column, which keeps GC mark work low when a fleet is resident.
func (f *Fleet) Series(d Drive) *Series {
	p := paramsOf[d.Model]
	spec := smart.MustSpec(d.Model)

	lastDay := f.cfg.Days - 1
	if d.Failed() {
		lastDay = d.FailDay
	}
	n := lastDay + 1
	rng := rand.New(rand.NewSource(d.seed))

	slab := make([]float64, 2*len(spec.AttrList())*n)
	alloc := func() []float64 {
		c := slab[:n:n]
		slab = slab[n:]
		return c
	}

	s := &Series{Drive: d, LastDay: lastDay, cols: make(map[smart.Feature][]float64, 2*len(spec.Attrs))}
	put := func(a smart.AttrID, k smart.Kind, v []float64) {
		s.cols[smart.Feature{Attr: a, Kind: k}] = v
	}

	// Signature strengths for this drive's fate.
	strength := make(map[smart.AttrID]float64)
	switch d.Archetype {
	case DefectFail:
		if d.Sudden {
			break // no warning ramp: the drive dies silently
		}
		for _, sa := range p.defectSig {
			strength[sa.attr] += sa.strength
		}
	case WearFail:
		for _, sa := range p.wearSig {
			strength[sa.attr] += sa.strength
		}
	case FirmwareFail:
		for _, sa := range p.firmSig {
			strength[sa.attr] += sa.strength
		}
	}
	trivial := make(map[smart.AttrID]bool, len(p.trivial))
	for _, a := range p.trivial {
		trivial[a] = true
	}
	// Scare-healthy drives bump the model's defect-signature attributes
	// at reduced strength — they look like early degradation but never
	// fail, providing false-positive pressure.
	scareStrength := make(map[smart.AttrID]float64)
	if d.Archetype == ScareHealthy {
		for _, sa := range p.defectSig {
			scareStrength[sa.attr] = sa.strength * 0.55
		}
	}

	// Degradation ramp window for failing drives.
	onset := -1
	if d.Failed() {
		// The warning ramp roughly spans the 30-day prediction window
		// (18-40 days); the shortest ramps leave early positive-labeled
		// days without symptoms, as in production SMART data.
		onset = d.FailDay - (18 + rng.Intn(23))
		if onset < 0 {
			onset = 0
		}
	}
	// One benign burst episode for scare-healthy drives.
	scareStart, scareEnd := -1, -1
	if d.Archetype == ScareHealthy && n > 60 {
		scareStart = rng.Intn(n - 45)
		scareEnd = scareStart + 40
	}

	// --- Wear state (MWI) ---
	ageWear := float64(d.AgeDays) * AgeWearFactor
	mwiN := alloc()
	mwiR := alloc()
	cycleBudget := 3000.0
	if spec.Flash == smart.TLC {
		cycleBudget = 1000
	}
	for t := 0; t < n; t++ {
		v := 100 - d.WearRate*(float64(t)+ageWear) + rng.NormFloat64()*0.2
		if v < 1 {
			v = 1
		}
		if v > 100 {
			v = 100
		}
		mwiN[t] = math.Floor(v)
		mwiR[t] = math.Floor((100 - mwiN[t]) * cycleBudget / 100)
	}
	put(smart.MWI, smart.Normalized, mwiN)
	put(smart.MWI, smart.Raw, mwiR)

	// --- Power-on hours / power cycles ---
	if spec.HasAttr(smart.POH) {
		pohR := alloc()
		pohN := alloc()
		for t := 0; t < n; t++ {
			pohR[t] = float64(d.AgeDays+t)*24 + math.Abs(rng.NormFloat64())*2
			nv := 100 - math.Floor(float64(d.AgeDays+t)/150)
			if nv < 1 {
				nv = 1
			}
			pohN[t] = nv
		}
		put(smart.POH, smart.Raw, pohR)
		put(smart.POH, smart.Normalized, pohN)
	}
	if spec.HasAttr(smart.PCC) {
		pccR := alloc()
		// Power cycles depend on the rack's maintenance history, not
		// the drive's age: keeping them age-independent prevents PCC
		// from shadowing POH as an age proxy.
		cnt := 2 + math.Floor(lognormal(rng, 8, 0.7))
		pccN := alloc()
		for t := 0; t < n; t++ {
			if rng.Float64() < 0.01 {
				cnt++
			}
			pccR[t] = math.Floor(cnt)
			pccN[t] = 100
		}
		put(smart.PCC, smart.Raw, pccR)
		put(smart.PCC, smart.Normalized, pccN)
	}

	// --- Temperatures ---
	phase := rng.Float64() * 365
	genTemp := func() ([]float64, []float64) {
		raw := alloc()
		norm := alloc()
		base := 32 + rng.NormFloat64()*1.5
		for t := 0; t < n; t++ {
			v := base + 4*math.Sin(2*math.Pi*(float64(t)+phase)/365) + rng.NormFloat64()*1.2
			if onset >= 0 && t >= onset {
				v += 0.8 * rampProgress(t, onset, d.FailDay)
			}
			raw[t] = math.Floor(v)
			nv := 100 - 1.5*math.Max(0, v-40)
			if nv < 1 {
				nv = 1
			}
			norm[t] = math.Floor(nv)
		}
		return raw, norm
	}
	if spec.HasAttr(smart.ET) {
		r, nv := genTemp()
		put(smart.ET, smart.Raw, r)
		put(smart.ET, smart.Normalized, nv)
	}
	if spec.HasAttr(smart.AFT) {
		r, nv := genTemp()
		put(smart.AFT, smart.Raw, r)
		put(smart.AFT, smart.Normalized, nv)
	}

	// --- Cumulative LBA counters ---
	writeRate := lognormal(rng, 40, 0.6) // GB/day
	readRate := writeRate * 0.8
	if d.ReadHeavy {
		readRate = writeRate * 3
	}
	if spec.HasAttr(smart.TLW) {
		tlw := alloc()
		tlwN := alloc()
		cum := writeRate * float64(d.AgeDays)
		for t := 0; t < n; t++ {
			cum += writeRate * (0.5 + rng.Float64())
			tlw[t] = math.Floor(cum)
			tlwN[t] = 100
		}
		put(smart.TLW, smart.Raw, tlw)
		put(smart.TLW, smart.Normalized, tlwN)
	}
	if spec.HasAttr(smart.TLR) {
		tlr := alloc()
		tlrN := alloc()
		cum := readRate * float64(d.AgeDays)
		for t := 0; t < n; t++ {
			cum += readRate * (0.5 + rng.Float64())
			tlr[t] = math.Floor(cum)
			tlrN[t] = 100
		}
		put(smart.TLR, smart.Raw, tlr)
		put(smart.TLR, smart.Normalized, tlrN)
	}

	// --- Error counters ---
	// Hidden reserve-consumption events drive ARS below.
	var arsConsumed []float64
	for _, a := range spec.AttrList() {
		if !counterAttrs[a] && a != smart.ARS {
			continue
		}
		switch {
		case a == smart.ARS:
			if !trivial[smart.ARS] {
				arsConsumed = make([]float64, n) // transient; not part of the returned columns
				counterSeries(rng, arsConsumed, strength[smart.ARS], scareStrength[smart.ARS], onset, d.FailDay, scareStart, scareEnd, 0)
			}
		case trivial[a]:
			raw, norm := alloc(), alloc()
			trivialCounter(rng, raw, norm, normScale(a))
			put(a, smart.Raw, raw)
			put(a, smart.Normalized, norm)
		default:
			raw := alloc()
			counterSeries(rng, raw, strength[a], scareStrength[a], onset, d.FailDay, scareStart, scareEnd, backgroundRate(a))
			norm := alloc()
			sc := normScale(a)
			for t := 0; t < n; t++ {
				nv := 100 - math.Floor(sc*math.Log1p(raw[t]))
				if nv < 1 {
					nv = 1
				}
				norm[t] = nv
			}
			put(a, smart.Raw, raw)
			put(a, smart.Normalized, norm)
		}
	}

	// --- Available reserved space (derived from consumption events) ---
	if spec.HasAttr(smart.ARS) {
		arsN := alloc()
		arsR := alloc()
		for t := 0; t < n; t++ {
			consumed := 0.0
			if arsConsumed != nil {
				consumed = arsConsumed[t]
			}
			nv := 100 - math.Floor(2.5*consumed)
			if trivial[smart.ARS] && rng.Float64() < 0.05 {
				nv-- // benign measurement jitter on non-predictive ARS
			}
			if nv < 1 {
				nv = 1
			}
			arsN[t] = nv
			arsR[t] = math.Floor(nv * 2.56) // vendor raw: reserve blocks of 256
		}
		put(smart.ARS, smart.Normalized, arsN)
		put(smart.ARS, smart.Raw, arsR)
	}

	return s
}

// counterSeries fills out with a cumulative event counter: a small
// background rate, a ramp toward the fail day scaled by rampStrength,
// and a benign bump in the scare window scaled by scareStrength.
func counterSeries(rng *rand.Rand, out []float64, rampStrength, scareStrength float64, onset, failDay, scareStart, scareEnd int, bg float64) {
	cum := 0.0
	for t := 0; t < len(out); t++ {
		lambda := bg
		if onset >= 0 && t >= onset && rampStrength > 0 {
			pr := rampProgress(t, onset, failDay)
			lambda += rampStrength * (0.25 + 2.75*pr)
		}
		if t >= scareStart && t < scareEnd && scareStrength > 0 {
			lambda += scareStrength * 0.9
		}
		cum += float64(poisson(rng, lambda))
		out[t] = cum
	}
}

// trivialCounter fills raw/norm with the pure-noise pattern of a
// non-predictive attribute: pending-sector-style values that bump up
// and spontaneously resolve, uncorrelated with failure by construction.
func trivialCounter(rng *rand.Rand, raw, norm []float64, sc float64) {
	cur := 0.0
	// Per-drive noisiness: some drives are simply chattier on their
	// non-predictive counters, giving trees spurious structure to
	// overfit when such features are not filtered out.
	jumpRate := 0.012 * math.Exp(rng.NormFloat64()*0.8)
	for t := 0; t < len(raw); t++ {
		switch {
		case rng.Float64() < jumpRate:
			cur += float64(1 + rng.Intn(3))
		case cur > 0 && rng.Float64() < 0.15:
			cur = 0 // resolved
		}
		raw[t] = cur
		nv := 100 - math.Floor(sc*cur)
		if nv < 1 {
			nv = 1
		}
		norm[t] = nv
	}
}

// rampProgress is the degradation progress in [0, 1] between onset and
// fail day.
func rampProgress(t, onset, failDay int) float64 {
	if failDay <= onset {
		return 1
	}
	pr := float64(t-onset) / float64(failDay-onset)
	if pr > 1 {
		pr = 1
	}
	return pr
}

// backgroundRate is the per-day benign event rate of an error counter.
func backgroundRate(a smart.AttrID) float64 {
	switch a {
	case smart.UPL:
		return 0.008
	case smart.PLP:
		return 0.002
	case smart.CEC, smart.ETE:
		return 0.01
	default:
		return 0.02
	}
}

// normScale returns the normalized-value drop coefficient for an
// attribute.
func normScale(a smart.AttrID) float64 {
	if s, ok := normDropScale[a]; ok {
		return s
	}
	return defaultNormDrop
}

// poisson draws a Poisson variate with mean lambda using Knuth's method
// for small lambda and a normal approximation above 25.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 25 {
		v := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k // unreachable for lambda <= 25; safety bound
		}
	}
}

// String renders a short drive description, useful in logs and examples.
func (s *Series) String() string {
	return fmt.Sprintf("drive %d (%v, %v, last day %d)", s.Drive.ID, s.Drive.Model, s.Drive.Archetype, s.LastDay)
}
