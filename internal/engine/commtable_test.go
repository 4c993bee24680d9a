package engine

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestCommTableMatchesMapAtScale: the open-addressed accumulator must agree
// exactly with the straightforward map implementation it replaced, at a size
// (1.2k groups) that forces several table growths from the minimum bucket
// count.
func TestCommTableMatchesMapAtScale(t *testing.T) {
	const numGroups = 1200
	rng := rand.New(rand.NewSource(42))

	var tab commTable
	tab.init(0) // start at the minimum so growth paths are exercised
	ref := map[core.Pair]float64{}

	for i := 0; i < 200_000; i++ {
		// Zipf-ish skew: a few hot pairs plus a long uniform tail, mirroring
		// keyBy fan-out between two wide operators.
		var from, to int
		if rng.Intn(4) == 0 {
			from, to = rng.Intn(8), rng.Intn(8)
		} else {
			from, to = rng.Intn(numGroups), rng.Intn(numGroups)
		}
		tab.add(from, to)
		ref[core.Pair{from, to}]++
	}

	got := map[core.Pair]float64{}
	tab.forEach(func(from, to int, rate float64) {
		if _, dup := got[core.Pair{from, to}]; dup {
			t.Fatalf("pair (%d,%d) visited twice", from, to)
		}
		got[core.Pair{from, to}] = rate
	})
	if len(got) != len(ref) {
		t.Fatalf("table has %d pairs, map has %d", len(got), len(ref))
	}
	for p, v := range ref {
		if got[p] != v {
			t.Fatalf("count[%v] = %v, want %v", p, got[p], v)
		}
	}

	// reset keeps capacity but must drop every entry.
	tab.reset()
	tab.forEach(func(from, to int, rate float64) {
		t.Fatalf("entry (%d,%d)=%v survived reset", from, to, rate)
	})
	if tab.n != 0 {
		t.Fatalf("n = %d after reset", tab.n)
	}
	tab.add(3, 4)
	found := 0
	tab.forEach(func(from, to int, rate float64) {
		found++
		if from != 3 || to != 4 || rate != 1 {
			t.Fatalf("post-reset entry (%d,%d)=%v", from, to, rate)
		}
	})
	if found != 1 {
		t.Fatalf("post-reset table has %d entries, want 1", found)
	}
}

// TestShardedCommMergeMatchesMapAtScale: the full period path — several
// shards accumulating into sparse tables, merged through core.CommBuilder
// into the CSR — must agree exactly with one reference map fed the same
// stream. Comm rates are unit counts, so summation order cannot change the
// result and the comparison is exact equality, not approximate.
func TestShardedCommMergeMatchesMapAtScale(t *testing.T) {
	const numGroups = 1500
	const shards = 4
	rng := rand.New(rand.NewSource(7))

	stats := make([]*nodeStats, shards)
	for i := range stats {
		stats[i] = newNodeStats(numGroups, false)
	}
	ref := map[core.Pair]float64{}

	for i := 0; i < 120_000; i++ {
		from, to := rng.Intn(numGroups), rng.Intn(numGroups)
		stats[rng.Intn(shards)].comm.add(from, to)
		ref[core.Pair{from, to}]++
	}

	var b core.CommBuilder
	b.Reset(numGroups)
	for _, st := range stats {
		st.comm.forEach(b.Add)
	}
	csr := b.Build()

	got := csr.ToMap()
	if len(got) != len(ref) {
		t.Fatalf("CSR has %d edges, map has %d", len(got), len(ref))
	}
	for p, v := range ref {
		if got[p] != v {
			t.Fatalf("rate[%v] = %v, want %v", p, got[p], v)
		}
	}
}
