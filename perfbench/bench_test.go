package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{5, 0, false},
		{40, 75, true},   // p75 leaves 10 of 40
		{100, 90, true},  // p90 leaves 10; p95 would leave 5
		{200, 95, true},  // p95 leaves 10
		{1000, 99, true}, // p99 leaves 10; p99.9 would leave 1
		{1100, 99, true}, // p99 leaves 11
		{10000, 99.9, true},
	} {
		var s sample
		for i := 0; i < tc.n; i++ {
			s = append(s, float64(i))
		}
		rand.New(rand.NewSource(1)).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		q, v, ok := s.tail()
		if ok != tc.wantOK || q != tc.want {
			t.Errorf("n=%d: tail p%g ok=%v, want p%g ok=%v", tc.n, q, ok, tc.want, tc.wantOK)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range s {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: p%g = %v leaves %d samples beyond, want >= %d", tc.n, q, v, beyond, minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := sample{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{20: 1, 50: 3, 60: 3, 61: 4, 100: 5} {
		if got := s.pct(q); got != want {
			t.Errorf("p%g = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(sample(nil).pct(50)) {
		t.Error("percentile of no samples is not NaN")
	}
	if got := medianOf([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func mkSpan(id, parent int64, start, end int) span {
	return span{ID: id, Parent: parent, Name: "s", Start: time.Duration(start), End: time.Duration(end)}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		mkSpan(1, 0, 0, 100),
		// Overlapping children (parallel workers) count once.
		mkSpan(2, 1, 10, 40),
		mkSpan(3, 1, 30, 50),
		// A child sticking out of its parent counts only inside it.
		mkSpan(4, 1, 90, 130),
		// A grandchild is subtracted from its own parent only.
		mkSpan(5, 2, 15, 25),
		// Children covering the whole parent leave zero, never less.
		mkSpan(6, 0, 200, 210),
		mkSpan(7, 6, 190, 205),
		mkSpan(8, 6, 204, 220),
	}
	want := map[int64]time.Duration{1: 100 - 40 - 10, 2: 30 - 10, 3: 20, 4: 40, 5: 10, 6: 0, 7: 15, 8: 16}
	got := selfTimes(spans)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestSelfTimesNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var spans []span
		for id := int64(1); id <= 30; id++ {
			parent := int64(0)
			if id > 1 {
				parent = rng.Int63n(id)
			}
			start := rng.Intn(1000)
			spans = append(spans, mkSpan(id, parent, start, start+rng.Intn(300)))
		}
		for id, self := range selfTimes(spans) {
			s := spans[id-1]
			if self < 0 || self > s.dur() {
				t.Fatalf("trial %d span %d: self %v outside [0, %v]", trial, id, self, s.dur())
			}
		}
	}
}

func TestUnderCollectsSubtree(t *testing.T) {
	spans := []span{mkSpan(1, 0, 0, 10), mkSpan(2, 1, 0, 5), mkSpan(3, 2, 0, 1), mkSpan(4, 0, 0, 1)}
	got := under(spans, 1)
	if len(got) != 3 {
		t.Fatalf("subtree of 1 has %d spans, want 3", len(got))
	}
}

func TestSearchMaxRateReachesResolution(t *testing.T) {
	for _, limit := range []float64{130, 200, 359, 500, 719, 1500} {
		var probed []float64
		got, fail, probes := searchMaxRate(120, 720, searchRes, 20, func(r float64) bool {
			probed = append(probed, r)
			return r <= limit
		})
		if got > limit {
			t.Errorf("limit %v: answer %v fails", limit, got)
		}
		if limit/got > 1+searchRes {
			t.Errorf("limit %v: answer %v is coarser than %v", limit, got, searchRes)
		}
		if fail/got > 1+searchRes || fail <= limit {
			t.Errorf("limit %v: bracket [%v, %v] is not a resolved pass/fail pair", limit, got, fail)
		}
		if probes != len(probed) {
			t.Errorf("limit %v: reported %d probes, ran %d", limit, probes, len(probed))
		}
	}
}

func TestSearchMaxRateIsMonotone(t *testing.T) {
	// A higher pass/fail boundary never gives a lower answer.
	prev := 0.0
	for limit := 100.0; limit < 3000; limit *= 1.07 {
		got, _, _ := searchMaxRate(90, 720, searchRes, 30, func(r float64) bool { return r <= limit })
		if got < prev {
			t.Fatalf("limit %v: answer %v below the answer %v for a lower limit", limit, got, prev)
		}
		prev = got
	}
}

func TestSearchMaxRateBracketNarrows(t *testing.T) {
	lo, hi := 120.0, 720.0
	searchMaxRate(lo, hi, searchRes, 20, func(r float64) bool {
		if r <= lo || r >= hi {
			t.Fatalf("probe %v outside the open bracket (%v, %v)", r, lo, hi)
		}
		if r <= 333 {
			lo = r
			return true
		}
		hi = r
		return false
	})
}

func TestScheduleIsDrawnFromTheSeed(t *testing.T) {
	pools := [opIngest]int{64, 64, 8}
	a := schedule(rand.New(rand.NewSource(9)), 200, 5*time.Second, onlineMix, pools, time.Second)
	b := schedule(rand.New(rand.NewSource(9)), 200, 5*time.Second, onlineMix, pools, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	var kinds [numOpKinds]int
	for i, o := range a {
		if i > 0 && o.due < a[i-1].due {
			t.Fatal("schedule is not in due order")
		}
		kinds[o.kind]++
	}
	if kinds[opIngest] != 5 {
		t.Errorf("%d ingests in 5s, want 5", kinds[opIngest])
	}
	reads := len(a) - kinds[opIngest]
	if reads < 850 || reads > 1150 {
		t.Errorf("%d reads at 200/s over 5s", reads)
	}
	if share := float64(kinds[opSingle]) / float64(reads); share < 0.64 || share > 0.76 {
		t.Errorf("single share %v, want ~0.70", share)
	}
}
