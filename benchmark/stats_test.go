package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0.5, 3},
		{0.25, 2},
		{0.95, 4.8},
		{0.1, 1.4},
	} {
		if got, _ := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if v, ok := quantile(nil, 0.5); v != 0 || ok {
		t.Errorf("empty sample: got (%v, %v), want (0, false)", v, ok)
	}
}

// A percentile is supported only with at least minBeyond samples beyond it.
func TestQuantileSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{200, 0.95, true},
		{199, 0.95, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{1000, 0.99, true},
		{999, 0.99, false},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, ok := quantile(xs, c.q); ok != c.want {
			t.Errorf("n=%d q=%v: supported = %v, want %v", c.n, c.q, ok, c.want)
		}
	}
}

func TestWindowedTakesMedianOfWindows(t *testing.T) {
	// Four windows of five; one is disturbed. The median of the window
	// medians ignores it.
	xs := []float64{
		10, 10, 10, 10, 10,
		10, 10, 10, 10, 10,
		50, 50, 50, 50, 50,
		12, 12, 12, 12, 12,
		99, // partial window: dropped
	}
	m := windowed("x", xs, 5, 0.5, "ms")
	if m.Value != 11 || m.Samples != len(xs) {
		t.Errorf("windowed = %v over %d samples, want 11 over %d", m.Value, m.Samples, len(xs))
	}
	if m.Supported {
		t.Error("a median over windows of 5 has fewer than 10 samples beyond it")
	}
	if short := windowed("x", xs[:3], 5, 0.5, "ms"); short.Value != 10 {
		t.Errorf("fewer samples than a window: got %v, want the plain median 10", short.Value)
	}
}
