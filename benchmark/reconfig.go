package main

import (
	"time"

	"repro/internal/core"
)

// reconfigTracker measures how long a reconfiguration takes to go live:
// from the start of the decision (the Plan call) to the first period
// barrier whose installed allocation (PeriodStats.GroupNode) has every
// moved group on its target. A move deferred behind a checkpoint pre-copy
// stays on its old host for one or more periods, and the sample includes
// that wait.
type reconfigTracker struct {
	pending []pendingReconfig
	// samples are the completed reconfigurations' durations in ms, for
	// decisions made in the measured region only.
	samples []float64
	// superseded counts decisions dropped because a later one moved one of
	// their groups elsewhere before they went live.
	superseded int
}

type pendingReconfig struct {
	start    time.Time
	measured bool
	target   map[int]int // group → node
}

// decided registers a decision taken at start. A decision without moves
// goes live at the next barrier.
func (r *reconfigTracker) decided(start time.Time, moves []core.Move, measured bool) {
	target := make(map[int]int, len(moves))
	for _, mv := range moves {
		target[mv.Group] = mv.To
	}
	keep := r.pending[:0]
	for _, p := range r.pending {
		if conflicts(p.target, target) {
			r.superseded++
			continue
		}
		keep = append(keep, p)
	}
	r.pending = append(keep, pendingReconfig{start: start, measured: measured, target: target})
}

func conflicts(older, newer map[int]int) bool {
	for g, to := range newer {
		if prev, ok := older[g]; ok && prev != to {
			return true
		}
	}
	return false
}

// barrier completes every pending decision whose groups all sit on their
// targets in the allocation installed for the period that just ended.
func (r *reconfigTracker) barrier(at time.Time, groupNode []int) {
	keep := r.pending[:0]
	for _, p := range r.pending {
		live := true
		for g, to := range p.target {
			if groupNode[g] != to {
				live = false
				break
			}
		}
		if !live {
			keep = append(keep, p)
			continue
		}
		if p.measured {
			r.samples = append(r.samples, float64(at.Sub(p.start))/1e6)
		}
	}
	r.pending = keep
}
