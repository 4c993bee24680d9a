package main

import (
	"context"
	"fmt"
	"maps"

	"repro/internal/core"
	"repro/internal/engine"
)

// replayPeriods is the length of the unplanned replay the output check
// compares against the reference engine.
const replayPeriods = 6

// periodDigest is the part of a period's statistics that no runtime choice
// may change: tuple counts and the group-to-group communication matrix.
type periodDigest struct {
	in, out int64
	comm    map[core.Pair]float64
}

func digest(ps *engine.PeriodStats) periodDigest {
	return periodDigest{in: ps.TuplesIn, out: ps.TuplesOut, comm: ps.Comm.ToMap()}
}

// replayCheck runs the workload's engine c, unplanned, for replayPeriods
// periods through its continuous Run loop (over TCP on rj3-tcp), and the
// same seed through an in-process single-shard reference engine in
// lockstep. Every period's tuple counts and communication matrix must be
// equal. It returns the number of periods compared and the mismatches.
func replayCheck(w *Workload, seed int64, c *cluster) (int, []string, error) {
	var got []periodDigest
	err := c.eng.Run(context.Background(), replayPeriods, func(ps *engine.PeriodStats) error {
		got = append(got, digest(ps))
		return nil
	})
	if err != nil {
		return 0, nil, fmt.Errorf("replay: %w", err)
	}

	spec := w.spec(seed)
	topo, err := spec.Build()
	if err != nil {
		return 0, nil, err
	}
	cfg := spec.Engine
	cfg.ShardsPerNode, cfg.GenWorkers = 1, 1
	ref, err := engine.New(topo, cfg, nil)
	if err != nil {
		return 0, nil, err
	}
	defer ref.Close()
	var bad []string
	for i, g := range got {
		ps, err := ref.RunPeriod()
		if err != nil {
			return 0, nil, fmt.Errorf("reference: %w", err)
		}
		want := digest(ps)
		switch {
		case g.in != want.in || g.out != want.out:
			bad = append(bad, fmt.Sprintf("replay period %d: tuples in/out %d/%d, reference %d/%d", i+1, g.in, g.out, want.in, want.out))
		case !maps.Equal(g.comm, want.comm):
			bad = append(bad, fmt.Sprintf("replay period %d: communication matrix differs from the reference", i+1))
		}
	}
	return len(got), bad, nil
}
