package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Times are offsets
// from the tracer's origin; Parent is 0 for a root span, and spans
// caused by one request share Req.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op, so untraced runs pay one nil
// check per boundary.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// id reserves a span ID, so children started before the parent ends
// can name it.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under a reserved ID.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start.Sub(t.origin), End: end.Sub(t.origin)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn as a span named name under parent and returns its
// duration, which is measured whether or not tracing is on.
func (t *tracer) timed(name string, parent, req int64, fn func(id int64) error) (time.Duration, error) {
	id := t.id()
	start := time.Now()
	err := fn(id)
	end := time.Now()
	t.record(id, parent, req, name, start, end)
	return end.Sub(start), err
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its direct children. Children may overlap
// each other (parallel workers) or stick out of the parent (a child
// recorded after a cancelled parent); only the union of their
// intervals clipped to the parent counts, so a self time is never
// negative and never exceeds the span's duration.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			cur, open = v, true
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// spanStats aggregates spans by name.
type spanStats struct {
	n     int
	total time.Duration // summed durations
	self  time.Duration // summed self times
}

func aggregate(spans []span) map[string]spanStats {
	self := selfTimes(spans)
	out := make(map[string]spanStats)
	for _, s := range spans {
		a := out[s.Name]
		a.n++
		a.total += s.dur()
		a.self += self[s.ID]
		out[s.Name] = a
	}
	return out
}

// under returns the spans in the subtree rooted at root, root included.
func under(spans []span, root int64) []span {
	kids := make(map[int64][]span)
	var out []span
	for _, s := range spans {
		if s.ID == root {
			out = append(out, s)
		}
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	for i := 0; i < len(out); i++ {
		out = append(out, kids[out[i].ID]...)
	}
	return out
}
