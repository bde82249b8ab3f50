package simulate

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/smart"
)

func testFleet(t *testing.T) *Fleet {
	t.Helper()
	f, err := New(Config{TotalDrives: 1200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero drives", Config{}},
		{"negative drives", Config{TotalDrives: -5}},
		{"short span", Config{TotalDrives: 100, Days: 30}},
		{"bad model", Config{TotalDrives: 100, Models: []smart.ModelID{99}}},
		{"negative afr scale", Config{TotalDrives: 100, AFRScale: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestFleetComposition(t *testing.T) {
	f := testFleet(t)
	if f.Days() != DefaultDays {
		t.Errorf("Days = %d, want %d", f.Days(), DefaultDays)
	}
	total := 0
	for _, m := range smart.AllModels() {
		n := len(f.DrivesOf(m))
		if n < 40 {
			t.Errorf("%v has %d drives, want >= 40", m, n)
		}
		total += n
	}
	if total != f.NumDrives() {
		t.Errorf("model drives sum %d != fleet %d", total, f.NumDrives())
	}
	// MC1 holds the largest share (Table II: 40.4%).
	if len(f.DrivesOf(smart.MC1)) <= len(f.DrivesOf(smart.MA2)) {
		t.Error("MC1 should be the largest model population")
	}
}

func TestDriveIDsConsistent(t *testing.T) {
	f := testFleet(t)
	for id := 0; id < f.NumDrives(); id++ {
		d, err := f.Drive(id)
		if err != nil {
			t.Fatal(err)
		}
		if d.ID != id {
			t.Fatalf("Drive(%d).ID = %d", id, d.ID)
		}
	}
	if _, err := f.Drive(-1); err == nil {
		t.Error("Drive(-1) should fail")
	}
	if _, err := f.Drive(f.NumDrives()); err == nil {
		t.Error("Drive(out of range) should fail")
	}
}

func TestAFRRoughlyMatchesTableII(t *testing.T) {
	f, err := New(Config{TotalDrives: 6000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range smart.AllModels() {
		spec := smart.MustSpec(m)
		afr := f.AFR(m)
		// Small populations quantize failure counts, so allow a wide
		// band; the ordering check below is the strong assertion.
		if afr < spec.TargetAFR*0.3 || afr > spec.TargetAFR*3 {
			t.Errorf("%v AFR = %.4f, want near %.4f", m, afr, spec.TargetAFR)
		}
	}
	// TLC models must show higher AFR than the MLC average, matching
	// the paper's headline Table II observation.
	mlc := (f.AFR(smart.MA1) + f.AFR(smart.MA2) + f.AFR(smart.MB1) + f.AFR(smart.MB2)) / 4
	tlc := (f.AFR(smart.MC1) + f.AFR(smart.MC2)) / 2
	if tlc <= mlc {
		t.Errorf("TLC AFR %.4f should exceed MLC %.4f", tlc, mlc)
	}
}

func TestFailuresSortedAndLabeled(t *testing.T) {
	f := testFleet(t)
	for _, m := range smart.AllModels() {
		fails := f.Failures(m)
		if len(fails) == 0 {
			t.Errorf("%v has no failures", m)
			continue
		}
		for i, d := range fails {
			if !d.Failed() || !d.Archetype.Failed() {
				t.Errorf("%v failure %d not marked failed: %+v", m, i, d)
			}
			if d.FailDay < 0 || d.FailDay >= f.Days() {
				t.Errorf("%v fail day %d out of range", m, d.FailDay)
			}
			if i > 0 && fails[i].FailDay < fails[i-1].FailDay {
				t.Errorf("%v failures not sorted by day", m)
			}
		}
	}
}

func TestArchetypeMix(t *testing.T) {
	f, err := New(Config{TotalDrives: 6000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// MB models have no wear failures; MC2 has firmware failures.
	for _, m := range []smart.ModelID{smart.MB1, smart.MB2} {
		for _, d := range f.Failures(m) {
			if d.Archetype == WearFail {
				t.Errorf("%v should have no wear failures", m)
			}
		}
	}
	firm := 0
	for _, d := range f.Failures(smart.MC2) {
		if d.Archetype == FirmwareFail {
			firm++
			if d.FailDay > 300 {
				t.Errorf("firmware failure at day %d, want first ~10 months", d.FailDay)
			}
		}
	}
	if firm == 0 {
		t.Error("MC2 should have firmware failures")
	}
	wear := 0
	for _, d := range f.Failures(smart.MA1) {
		if d.Archetype == WearFail {
			wear++
		}
	}
	if wear == 0 {
		t.Error("MA1 should have wear failures")
	}
}

func TestSeriesShape(t *testing.T) {
	f := testFleet(t)
	for _, m := range smart.AllModels() {
		drives := f.DrivesOf(m)
		d := drives[0]
		s := f.Series(d)
		wantLast := f.Days() - 1
		if d.Failed() {
			wantLast = d.FailDay
		}
		if s.LastDay != wantLast {
			t.Errorf("%v LastDay = %d, want %d", m, s.LastDay, wantLast)
		}
		spec := smart.MustSpec(m)
		for _, ft := range spec.Features() {
			col := s.Col(ft)
			if col == nil {
				t.Errorf("%v missing feature %v", m, ft)
				continue
			}
			if len(col) != s.LastDay+1 {
				t.Errorf("%v feature %v length %d, want %d", m, ft, len(col), s.LastDay+1)
			}
			for i, v := range col {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%v feature %v day %d = %v", m, ft, i, v)
				}
			}
		}
		// Unavailable attributes must be absent.
		for _, a := range smart.AllAttrs() {
			if !spec.HasAttr(a) {
				if s.Col(smart.Feature{Attr: a, Kind: smart.Raw}) != nil {
					t.Errorf("%v should not report %v", m, a)
				}
			}
		}
	}
}

func TestSeriesDeterministic(t *testing.T) {
	f := testFleet(t)
	d := f.DrivesOf(smart.MC1)[3]
	a := f.Series(d)
	b := f.Series(d)
	for _, ft := range a.Features() {
		ca, cb := a.Col(ft), b.Col(ft)
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("series not deterministic at %v day %d", ft, i)
			}
		}
	}
}

func TestSeriesConcurrentMatchesSerial(t *testing.T) {
	// Store ingest workers call Series from several goroutines at once.
	// Every drive's trajectory derives only from its own seed, so
	// concurrent calls must return columns bit-identical to serial ones.
	f := testFleet(t)
	drives := f.DrivesOf(smart.MC1)[:12]
	serial := make([]*Series, len(drives))
	for k, d := range drives {
		serial[k] = f.Series(d)
	}
	parallel := make([]*Series, len(drives))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(drives) {
					return
				}
				parallel[k] = f.Series(drives[k])
			}
		}()
	}
	wg.Wait()
	for k, d := range drives {
		want, s := serial[k], parallel[k]
		if s.LastDay != want.LastDay || s.Drive.ID != d.ID {
			t.Fatalf("drive %d: LastDay %d/%d ID %d", d.ID, s.LastDay, want.LastDay, s.Drive.ID)
		}
		for _, ft := range want.Features() {
			cw, cs := want.Col(ft), s.Col(ft)
			if len(cs) != len(cw) {
				t.Fatalf("drive %d %v: len %d, want %d", d.ID, ft, len(cs), len(cw))
			}
			for i := range cw {
				if math.Float64bits(cw[i]) != math.Float64bits(cs[i]) {
					t.Fatalf("drive %d %v day %d: %v != %v", d.ID, ft, i, cs[i], cw[i])
				}
			}
		}
	}
}

// TestSeriesAllocs pins the slab claim: a drive's columns are carved
// from one exact-size slab, so generating a series costs a fixed
// handful of allocations (slab, RNG, struct, maps) independent of the
// span and of the number of columns. Averaging over 50 calls keeps a
// stray runtime allocation (a GC cycle landing mid-measurement) from
// tipping the integer count.
func TestSeriesAllocs(t *testing.T) {
	for _, days := range []int{120, 730} {
		f, err := New(Config{TotalDrives: 400, Seed: 1, Days: days})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []smart.ModelID{smart.MA1, smart.MC1} {
			for _, d := range f.DrivesOf(m)[:4] {
				allocs := testing.AllocsPerRun(50, func() { f.Series(d) })
				if allocs > 14 {
					t.Errorf("days=%d %v drive %d: %v allocs per Series, want <= 14", days, m, d.ID, allocs)
				}
			}
		}
	}
}

func TestCountersMonotone(t *testing.T) {
	f := testFleet(t)
	for _, m := range []smart.ModelID{smart.MA1, smart.MC1} {
		p := paramsOf[m]
		trivial := map[smart.AttrID]bool{}
		for _, a := range p.trivial {
			trivial[a] = true
		}
		for _, d := range f.DrivesOf(m)[:10] {
			s := f.Series(d)
			for a := range counterAttrs {
				if !smart.MustSpec(m).HasAttr(a) || trivial[a] {
					continue
				}
				col := s.Col(smart.Feature{Attr: a, Kind: smart.Raw})
				for i := 1; i < len(col); i++ {
					if col[i] < col[i-1] {
						t.Fatalf("%v %v raw counter decreased at day %d", m, a, i)
					}
				}
			}
		}
	}
}

func TestMWIDeclines(t *testing.T) {
	f := testFleet(t)
	mwi := smart.Feature{Attr: smart.MWI, Kind: smart.Normalized}
	for _, d := range f.DrivesOf(smart.MA1)[:5] {
		s := f.Series(d)
		col := s.Col(mwi)
		if col[0] < col[len(col)-1]-1 {
			t.Errorf("MWI_N should decline: start %v end %v", col[0], col[len(col)-1])
		}
		for _, v := range col {
			if v < 1 || v > 100 {
				t.Fatalf("MWI_N out of range: %v", v)
			}
		}
	}
}

func TestMBModelsBarelyWear(t *testing.T) {
	f := testFleet(t)
	mwi := smart.Feature{Attr: smart.MWI, Kind: smart.Normalized}
	for _, m := range []smart.ModelID{smart.MB1, smart.MB2} {
		for _, d := range f.DrivesOf(m)[:10] {
			s := f.Series(d)
			col := s.Col(mwi)
			if col[len(col)-1] < 85 {
				t.Errorf("%v MWI fell to %v; MB models should stay high (small range)", m, col[len(col)-1])
			}
		}
	}
}

func TestWearFailDrivesReachLowMWI(t *testing.T) {
	f, err := New(Config{TotalDrives: 6000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, d := range f.Failures(smart.MA1) {
		if d.Archetype != WearFail {
			continue
		}
		s := f.Series(d)
		final := s.MWIAt(s.LastDay)
		if final > paramsOf[smart.MA1].cpMWI+6 {
			t.Errorf("wear failure at MWI %v, want below change point ~%v", final, paramsOf[smart.MA1].cpMWI)
		}
		checked++
		if checked >= 10 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no wear failures to check")
	}
}

func TestSignatureAttrsRampBeforeFailure(t *testing.T) {
	f, err := New(Config{TotalDrives: 6000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Defect failures on MC1 must show OCE/UCE growth in the last 30
	// days that healthy drives lack.
	var failGrowth, healthyGrowth float64
	var nFail, nHealthy int
	oce := smart.Feature{Attr: smart.OCE, Kind: smart.Raw}
	for _, d := range f.Failures(smart.MC1) {
		if d.Archetype != DefectFail || d.FailDay < 60 {
			continue
		}
		s := f.Series(d)
		col := s.Col(oce)
		failGrowth += col[s.LastDay] - col[s.LastDay-30]
		nFail++
	}
	for _, d := range f.DrivesOf(smart.MC1) {
		if d.Archetype != Healthy {
			continue
		}
		s := f.Series(d)
		col := s.Col(oce)
		healthyGrowth += col[s.LastDay] - col[s.LastDay-30]
		nHealthy++
		if nHealthy >= 50 {
			break
		}
	}
	if nFail == 0 || nHealthy == 0 {
		t.Fatal("insufficient drives for growth comparison")
	}
	fg := failGrowth / float64(nFail)
	hg := healthyGrowth / float64(nHealthy)
	if fg < hg*10+1 {
		t.Errorf("failing OCE growth %.2f should dwarf healthy %.2f", fg, hg)
	}
}

func TestTrivialAttrsUncorrelated(t *testing.T) {
	f, err := New(Config{TotalDrives: 6000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// PSC is trivial for MA1: failing drives should show no more PSC
	// than healthy ones near their end.
	psc := smart.Feature{Attr: smart.PSC, Kind: smart.Raw}
	var failSum, healthySum float64
	var nf, nh int
	for _, d := range f.Failures(smart.MA1) {
		s := f.Series(d)
		failSum += s.Col(psc)[s.LastDay]
		nf++
	}
	for _, d := range f.DrivesOf(smart.MA1) {
		if d.Archetype != Healthy {
			continue
		}
		s := f.Series(d)
		failSum += 0
		healthySum += s.Col(psc)[s.LastDay]
		nh++
		if nh >= nf*3 {
			break
		}
	}
	if nf == 0 || nh == 0 {
		t.Fatal("insufficient drives")
	}
	fAvg, hAvg := failSum/float64(nf), healthySum/float64(nh)
	// Both should be small noise of similar magnitude.
	if fAvg > hAvg*4+2 || hAvg > fAvg*4+2 {
		t.Errorf("trivial PSC differs: failing %.2f vs healthy %.2f", fAvg, hAvg)
	}
}

func TestPoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("poisson of non-positive lambda should be 0")
	}
	// Sample mean close to lambda for both regimes.
	for _, lambda := range []float64{0.5, 3, 40} {
		sum := 0
		n := 20000
		for i := 0; i < n; i++ {
			sum += poisson(rng, lambda)
		}
		mean := float64(sum) / float64(n)
		if math.Abs(mean-lambda) > lambda*0.1+0.05 {
			t.Errorf("poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestAFRScale(t *testing.T) {
	base, err := New(Config{TotalDrives: 2000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := New(Config{TotalDrives: 2000, Seed: 8, AFRScale: 4})
	if err != nil {
		t.Fatal(err)
	}
	nb, nB := 0, 0
	for _, m := range smart.AllModels() {
		nb += len(base.Failures(m))
		nB += len(boosted.Failures(m))
	}
	if nB <= nb {
		t.Errorf("AFRScale=4 failures %d should exceed baseline %d", nB, nb)
	}
}

func TestModelsSubset(t *testing.T) {
	f, err := New(Config{TotalDrives: 500, Seed: 9, Models: []smart.ModelID{smart.MC1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Models()) != 1 || f.Models()[0] != smart.MC1 {
		t.Errorf("Models = %v", f.Models())
	}
	if len(f.DrivesOf(smart.MA1)) != 0 {
		t.Error("MA1 drives in MC1-only fleet")
	}
	if f.NumDrives() < 400 {
		t.Errorf("single-model fleet size = %d, want ~500", f.NumDrives())
	}
}

func TestArchetypeString(t *testing.T) {
	for _, a := range []Archetype{Healthy, ScareHealthy, DefectFail, WearFail, FirmwareFail} {
		if a.String() == "" || a.String()[0] == 'A' {
			t.Errorf("Archetype %d string = %q", a, a.String())
		}
	}
	if Archetype(42).String() != "Archetype(42)" {
		t.Error("invalid archetype string")
	}
}

// BenchmarkSeries measures series generation across a whole fleet: the
// cost of materializing every drive's daily SMART log, which fleet
// sources and store ingest pay per drive.
func BenchmarkSeries(b *testing.B) {
	f, err := New(Config{TotalDrives: 600, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	var drives []Drive
	for _, m := range smart.AllModels() {
		drives = append(drives, f.DrivesOf(m)...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range drives {
			if s := f.Series(d); s.LastDay < 0 {
				b.Fatal("bad series")
			}
		}
	}
}
