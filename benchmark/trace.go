package main

import (
	"encoding/json"
	"os"
	"time"
)

// Span names. The tree per period is
//
//	period
//	├── engine.data         (observe-hook return → next barrier)
//	└── controller.pause    (the observe hook)
//	    ├── engine.snapshot
//	    ├── core.plan
//	    ├── engine.apply_plan
//	    └── engine.checkpoint
const (
	spanPeriod     = "period"
	spanData       = "engine.data"
	spanPause      = "controller.pause"
	spanSnapshot   = "engine.snapshot"
	spanPlan       = "core.plan"
	spanApplyPlan  = "engine.apply_plan"
	spanCheckpoint = "engine.checkpoint"
)

var spanNames = []string{spanPeriod, spanData, spanPause, spanSnapshot, spanPlan, spanApplyPlan, spanCheckpoint}

// span is one timed interval. Times are nanoseconds since the run started;
// Parent is the index of the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Period int    `json:"period"`
}

// tracer keeps spans in memory until the run ends. It is used from the
// control goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	open  int // the span new children attach to (-1: none)
}

// newTracer returns an empty tracer; the probe sets t0 when the run starts.
func newTracer() *tracer { return &tracer{open: -1} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// add records a span whose start is already known and returns its index;
// end may be zero and filled in later with finish.
func (t *tracer) add(name string, period int, start, end time.Time, parent int) int {
	s := span{Name: name, Start: t.ns(start), Parent: parent, Period: period}
	if !end.IsZero() {
		s.End = t.ns(end)
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) finish(i int, end time.Time) { t.spans[i].End = t.ns(end) }

// selfTimes returns, per span, its duration minus the time its children
// cover. Children of one span never overlap: they all run on the control
// goroutine, one after another.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
