package main

import (
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/frame"
	"repro/internal/smart"
	"repro/internal/survival"
)

// tracedSource is a dataset.Source that records a span per Series call.
// Handed to store.Open it times upstream fetches; handed to ScoreInto
// over a store snapshot it times store reads inside the real scoring
// pass. Spans attach to whatever parent the caller last set.
type tracedSource struct {
	src    dataset.Source
	tr     *tracer
	name   string
	parent atomic.Int64
}

func traceSource(src dataset.Source, tr *tracer, name string) *tracedSource {
	return &tracedSource{src: src, tr: tr, name: name}
}

func (s *tracedSource) Days() int                                   { return s.src.Days() }
func (s *tracedSource) DrivesOf(m smart.ModelID) []dataset.DriveRef { return s.src.DrivesOf(m) }

func (s *tracedSource) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	id := s.tr.id()
	start := time.Now()
	cols, last, err := s.src.Series(ref)
	s.tr.record(id, s.parent.Load(), 0, s.name, start, time.Now())
	return cols, last, err
}

// RefIndex forwards the store snapshot's cached drive index, so a
// scoring pass over the wrapper takes the same path as over the bare
// snapshot instead of rebuilding the index per call.
func (s *tracedSource) RefIndex(m smart.ModelID) map[int]dataset.DriveRef {
	if ri, ok := s.src.(interface {
		RefIndex(smart.ModelID) map[int]dataset.DriveRef
	}); ok {
		return ri.RefIndex(m)
	}
	return nil
}

// tracedSelector records a span per Select call and keeps the last
// selection frame, so the traced run can replay the individual rankers
// on the frame the real call path built.
type tracedSelector struct {
	sel  engine.Selector
	tr   *tracer
	last atomic.Pointer[frame.Frame]
}

func (s *tracedSelector) Name() string { return s.sel.Name() }

func (s *tracedSelector) Select(fr *frame.Frame, curve survival.Curve) (engine.SelectorResult, error) {
	s.last.Store(fr)
	var res engine.SelectorResult
	_, err := s.tr.timed("core.select", 0, 0, func(int64) error {
		var err error
		res, err = s.sel.Select(fr, curve)
		return err
	})
	return res, err
}
