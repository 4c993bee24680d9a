package distrib

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

// TestGoldenPeriodStatistics pins the engine's absolute output. Every
// equivalence suite compares two runs of the same code (shards, generators,
// in-memory vs TCP), so none of them notices a change that shifts both
// sides alike; this test hashes the per-period statistics of small rj1, rj2
// and rj3 runs — fixed seeds, sub-periods on, one generator and one shard
// per node — against constants. A refactor of the data path must leave every digest unchanged;
// a deliberate change of the wire format or the cost model updates them and
// says why.
func TestGoldenPeriodStatistics(t *testing.T) {
	cases := []struct {
		job  string
		jc   workload.JobConfig
		want string
	}{
		{"rj1", workload.JobConfig{KeyGroups: 8, Rate: 1500, Seed: 11}, "44aad14cff11f3c53121223b746a46875020e7e4c39b09b8e812026bc7726fcf"},
		{"rj2", workload.JobConfig{KeyGroups: 12, Rate: 600, Seed: 11}, "54d5300e8c28742a79480e38f79b91381b0146d3a50720805d1ad5be1e92c249"},
		{"rj3", workload.JobConfig{KeyGroups: 10, Rate: 1200, Seed: 11}, "44ebe4bb81936f7437509105073906b92bec3f6ed9cdc4bb73d7c5a9e2dd89f8"},
	}
	for _, tc := range cases {
		t.Run(tc.job, func(t *testing.T) {
			spec := JobSpec{
				Job:      tc.job,
				Workload: tc.jc,
				Engine:   engine.Config{Nodes: 3, SubPeriods: 3, ShardsPerNode: 1, GenWorkers: 1},
			}
			if got := goldenDigest(t, spec); got != tc.want {
				t.Errorf("%s statistics digest = %s, want %s", tc.job, got, tc.want)
			}
		})
	}
}

// goldenDigest runs the spec for six periods from a scattered initial
// allocation, so operator-to-operator traffic crosses nodes from the first
// period, and hashes each period's statistics. The run plans no moves: the
// statistics of a period that migrates state depend on when the state
// arrives relative to the data, so they are not reproducible run to run.
func goldenDigest(t *testing.T, spec JobSpec) string {
	t.Helper()
	topo, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]int, topo.NumGroups())
	for g := range initial {
		initial[g] = int(uint32(g)*2654435761>>16) % spec.Engine.Nodes
	}
	e, err := engine.New(topo, spec.Engine, initial)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h := sha256.New()
	for p := 1; p <= 6; p++ {
		ps, err := e.RunPeriod()
		if err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		if ps.TuplesIn == 0 || ps.BytesCrossNode == 0 {
			t.Fatalf("period %d moved no data between operators: %+v", p, ps)
		}
		hashPeriod(h, ps)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashPeriod(h hash.Hash, ps *engine.PeriodStats) {
	fmt.Fprintf(h, "period %d in %d out %d bytes %d src %d in %d batches %d\n",
		ps.Period, ps.TuplesIn, ps.TuplesOut, ps.BytesCrossNode, ps.SrcBytesCrossNode,
		ps.BytesCrossNodeIn, ps.BatchesCrossNode)
	fmt.Fprintf(h, "groups %v\nnodes %v\nstate %v\n", ps.GroupUnits, ps.NodeUnits, ps.StateBytes)
	comm := ps.Comm.ToMap()
	pairs := make([]core.Pair, 0, len(comm))
	for p := range comm {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, p := range pairs {
		fmt.Fprintf(h, "comm %d %d %v\n", p[0], p[1], comm[p])
	}
}
