package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile for it to count as measured: with fewer, the "tail" is one
// or two samples and moves with noise, not with the system.
const minBeyond = 10

// sample is a set of latencies in milliseconds.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// sorted returns a sorted copy.
func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// pct returns the nearest-rank q-th percentile (0 < q <= 100) of s, or
// NaN when s is empty.
func (s sample) pct(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := s.sorted()
	return v[rankIndex(len(v), q)]
}

// rankIndex is the nearest-rank index of the q-th percentile among n
// sorted values. The tolerance keeps decimal percentiles such as 99.9
// from rounding up a rank when q*n/100 is a whole number.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)/100-1e-9)) - 1
	return min(max(i, 0), n-1)
}

func (s sample) median() float64 { return s.pct(50) }

// tailPercentiles are the candidates for the reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 98, 97.5, 95, 90, 75}

// tail returns the highest percentile in tailPercentiles that leaves at
// least minBeyond samples strictly above its nearest-rank position,
// with its value. ok is false when even the lowest candidate has too
// few samples beyond it.
func (s sample) tail() (q, v float64, ok bool) {
	n := len(s)
	if n == 0 {
		return 0, math.NaN(), false
	}
	sorted := s.sorted()
	for _, q := range tailPercentiles {
		i := rankIndex(n, q)
		if n-1-i >= minBeyond {
			return q, sorted[i], true
		}
	}
	return 0, math.NaN(), false
}

// describe renders "p50 x ms, pQ y ms, n N" for report lines.
func (s sample) describe() string {
	if len(s) == 0 {
		return "n 0"
	}
	out := fmt.Sprintf("p50 %.3f ms", s.median())
	if q, v, ok := s.tail(); ok {
		out += fmt.Sprintf(", p%g %.3f ms", q, v)
	} else {
		out += fmt.Sprintf(", max %.3f ms (too few samples for a tail)", s.pct(100))
	}
	return out + fmt.Sprintf(", n %d", len(s))
}

// medianOf returns the median of xs (mean of the middle two for even
// counts), or NaN when empty.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
