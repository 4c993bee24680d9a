package main

import (
	"slices"
	"testing"
)

// rj2-rebalance's quality figures must be a function of the seed alone:
// ALBIC runs without a wall-clock budget, so plans do not depend on host
// speed.
func TestRebalanceSeriesDependOnSeedOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs rj2-rebalance three times")
	}
	w := workloadByName("rj2-rebalance")
	series := func(seed int64) (ld []float64, migrations []int) {
		c, err := w.setup(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := measure(w, seed, c, 0, 30, false, nil)
		if len(p.failures) > 0 {
			t.Fatalf("seed %d: %v", seed, p.failures)
		}
		for _, r := range p.measured()[:30] {
			ld = append(ld, r.LoadDistance)
			migrations = append(migrations, r.Migrations)
		}
		return ld, migrations
	}
	ld1, mig1 := series(1)
	ld1b, mig1b := series(1)
	ld2, _ := series(2)
	if !slices.Equal(ld1, ld1b) || !slices.Equal(mig1, mig1b) {
		t.Errorf("seed 1 ran twice gave different series:\nload distance %v\n          vs %v\nmigrations %v\n       vs %v", ld1, ld1b, mig1, mig1b)
	}
	if slices.Equal(ld1, ld2) {
		t.Error("seeds 1 and 2 gave the same load-distance series")
	}
}
