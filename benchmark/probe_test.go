package main

import (
	"testing"

	"repro/internal/controller"
)

// The controller type-asserts these optional interfaces on its engine; the
// wrapper must not hide them, or checkpoint cadence, reactive mode and
// weighted scale-out would silently change behaviour under the benchmark.
func TestProbedEngineKeepsOptionalInterfaces(t *testing.T) {
	var e controller.Engine = &probedEngine{}
	if _, ok := e.(controller.CheckpointEngine); !ok {
		t.Error("probedEngine does not implement controller.CheckpointEngine")
	}
	if _, ok := e.(controller.SubPeriodEngine); !ok {
		t.Error("probedEngine does not implement controller.SubPeriodEngine")
	}
	if _, ok := e.(controller.WeightedScaleEngine); !ok {
		t.Error("probedEngine does not implement controller.WeightedScaleEngine")
	}
}
