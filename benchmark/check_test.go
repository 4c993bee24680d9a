package main

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// A reduced rj3-tcp: the TCP cluster must replay the in-process reference
// exactly, and a traced run must see its transport traffic and spans.
func TestTCPReplayAndTracedRun(t *testing.T) {
	w := *workloadByName("rj3-tcp")
	w.JobConfig = workload.JobConfig{KeyGroups: 8, Rate: 800}
	w.Engine = engine.Config{Nodes: 4, ShardsPerNode: 1, GenWorkers: 1}

	c, err := w.setup(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, bad, err := replayCheck(&w, 3, c)
	c.stop()
	if err != nil {
		t.Fatal(err)
	}
	if n != replayPeriods || len(bad) > 0 {
		t.Fatalf("compared %d periods, mismatches %v", n, bad)
	}

	tap := &sendTap{}
	c, err = w.setup(3, tap)
	if err != nil {
		t.Fatal(err)
	}
	p := measure(&w, 3, c, 0, 12, true, tap)
	if len(p.failures) > 0 {
		t.Fatal(p.failures)
	}
	recs := p.measured()
	if len(recs) < 12 {
		t.Fatalf("measured %d periods, want 12", len(recs))
	}
	for _, r := range recs {
		if r.Frames == 0 || r.FrameBytes == 0 {
			t.Fatalf("period %d: no transport sends counted", r.Period)
		}
	}
	names := map[string]int{}
	for _, s := range p.tr.spans {
		names[s.Name]++
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	for _, name := range spanNames {
		if names[name] == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
	if len(p.plans) == 0 || len(p.ckpts) == 0 {
		t.Errorf("%d plans and %d checkpoints recorded, want some of each", len(p.plans), len(p.ckpts))
	}
}
