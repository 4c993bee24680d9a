package main

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

func TestReconfigWaitsForDeferredMove(t *testing.T) {
	var r reconfigTracker
	t0 := time.Unix(0, 0)
	r.decided(t0, []core.Move{{Group: 1, From: 0, To: 1}, {Group: 2, From: 0, To: 2}}, true)
	// Group 2's move is deferred behind its pre-copy: still on node 0.
	r.barrier(t0.Add(10*time.Millisecond), []int{0, 1, 0})
	if len(r.samples) != 0 {
		t.Fatalf("completed before every group moved: %v", r.samples)
	}
	r.barrier(t0.Add(25*time.Millisecond), []int{0, 1, 2})
	if len(r.samples) != 1 || r.samples[0] != 25 {
		t.Fatalf("samples = %v, want [25]", r.samples)
	}
	if len(r.pending) != 0 {
		t.Fatalf("%d decisions still pending", len(r.pending))
	}
}

func TestReconfigSupersededAndNullDecisions(t *testing.T) {
	var r reconfigTracker
	t0 := time.Unix(0, 0)
	r.decided(t0, []core.Move{{Group: 0, From: 0, To: 1}}, true)
	// A newer decision sends group 0 elsewhere before the first went live.
	r.decided(t0.Add(time.Millisecond), []core.Move{{Group: 0, From: 0, To: 2}}, true)
	if r.superseded != 1 {
		t.Fatalf("superseded = %d, want 1", r.superseded)
	}
	// A decision without moves is live at the next barrier; an unmeasured
	// one leaves no sample.
	r.decided(t0.Add(2*time.Millisecond), nil, true)
	r.decided(t0.Add(3*time.Millisecond), nil, false)
	r.barrier(t0.Add(5*time.Millisecond), []int{2})
	if len(r.samples) != 2 || r.samples[0] != 4 || r.samples[1] != 3 {
		t.Fatalf("samples = %v, want [4 3]", r.samples)
	}
}

// The tracker on a real engine: a checkpointed group whose checkpoint is
// larger than one pre-copy chunk is deferred for at least one period, and
// the reconfiguration completes only at the barrier that installs it.
func TestReconfigTracksRealDeferredMove(t *testing.T) {
	topo, err := workload.RealJob2(workload.JobConfig{KeyGroups: 12, Rate: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(topo, engine.Config{Nodes: 3, PrecopyChunkBytes: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 3; i++ {
		if _, err := e.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	e.TakeCheckpoint()
	const g = 14 // a sumdelay group: it carries state
	alloc := e.Allocation()
	to := (alloc[g] + 1) % 3
	alloc[g] = to
	var r reconfigTracker
	start := time.Now()
	r.decided(start, []core.Move{{Group: g, From: (to + 2) % 3, To: to}}, true)
	if err := e.ApplyPlan(alloc); err != nil {
		t.Fatal(err)
	}
	deferred := 0
	for i := 0; i < 50 && len(r.samples) == 0; i++ {
		ps, err := e.RunPeriod()
		if err != nil {
			t.Fatal(err)
		}
		deferred += ps.DeferredMoves
		r.barrier(time.Now(), ps.GroupNode)
		if len(r.samples) == 0 && ps.GroupNode[g] == to {
			t.Fatalf("period %d installed the move but the tracker did not complete it", ps.Period)
		}
	}
	if deferred == 0 {
		t.Fatal("the move was never deferred; the test does not cover pre-copy")
	}
	if len(r.samples) != 1 {
		t.Fatalf("reconfiguration never completed (%d deferrals)", deferred)
	}
}
