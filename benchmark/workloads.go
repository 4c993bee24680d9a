package main

import (
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/workload"
)

// Workload is one benchmark input: a job at a fixed size, the engine and
// controller options it runs under, and the reason it is in the benchmark.
// The seed is not part of the definition; it is a benchmark argument and
// feeds both the job's generators and the planner's tie-breaking.
type Workload struct {
	Name string `json:"name"`
	// Why is the one-sentence reason the workload was chosen.
	Why string `json:"why"`
	// Predecessor names the earlier benchmark whose numbers this workload
	// continues, if any.
	Predecessor string `json:"predecessor,omitempty"`
	// Job is a distrib.Jobs registry key; JobConfig sizes it (Seed is
	// filled in per run).
	Job       string             `json:"job"`
	JobConfig workload.JobConfig `json:"job_config"`
	Engine    engine.Config      `json:"engine"`
	// Balance plans with ALBIC at every period boundary, spending at most
	// MaxMigrations moves per plan.
	Balance       bool `json:"balance"`
	MaxMigrations int  `json:"max_migrations,omitempty"`
	// CheckpointEvery is the controller's incremental checkpoint cadence
	// (0 = never).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// TCPWorkers > 0 runs the engine as a TCP-loopback cluster of one
	// controller and that many in-process workers.
	TCPWorkers int `json:"tcp_workers,omitempty"`
	// TargetAvgLoad is the controller's capacity calibration target
	// (0 = its default, negative = keep Engine.NodeCapacity).
	TargetAvgLoad float64 `json:"target_avg_load,omitempty"`
	// SingleThreadBaseline adds, to a traced run, a run at GOMAXPROCS=1
	// that gives engine.procs1_tuples_per_s.
	SingleThreadBaseline bool `json:"single_thread_baseline,omitempty"`
}

// Every workload uses one source-generator goroutine and one shard per
// node, so the data path's parallelism comes from the nodes alone and the
// numbers stay comparable with BenchmarkEngineThroughput.
var workloads = []*Workload{
	{
		Name:        "rj1-steady",
		Why:         "pure data path: generation, wire-v2 staging and encode, delivery, operators, window flushes and the stats merge, with the control plane idle",
		Predecessor: "BenchmarkEngineThroughput (bench_test.go): same job and size, so tuples_per_s continues its series",
		Job:         "rj1",
		JobConfig:   workload.JobConfig{KeyGroups: 32, Rate: 20000},
		// The Wikipedia source's per-period noise makes the first period's
		// volume, which the controller would calibrate capacity on, vary
		// by ±10% with the seed, and load distance in percentage points
		// with it. A fixed capacity, near where calibration lands, keeps
		// load_distance_pct comparable across seeds; with no planner it
		// changes nothing else.
		Engine:               engine.Config{Nodes: 8, ShardsPerNode: 1, GenWorkers: 1, NodeCapacity: 21000},
		TargetAvgLoad:        -1,
		SingleThreadBaseline: true,
	},
	{
		Name:            "rj2-rebalance",
		Why:             "control plane: snapshot, full ALBIC over 2000 groups, checkpoint-assisted migrations, incremental checkpoints and barrier fan-in over 40 nodes take about half of each period",
		Job:             "rj2",
		JobConfig:       workload.JobConfig{KeyGroups: 1000, Rate: 4000},
		Engine:          engine.Config{Nodes: 40, ShardsPerNode: 1, GenWorkers: 1},
		Balance:         true,
		MaxMigrations:   10,
		CheckpointEvery: 3,
	},
	{
		Name:            "rj3-tcp",
		Why:             "distributed runtime: half the operator traffic of an uncollocatable route-keyed job crosses worker sockets, and stats, migration and checkpoint rounds travel as control frames",
		Job:             "rj3",
		JobConfig:       workload.JobConfig{KeyGroups: 40, Rate: 8000},
		Engine:          engine.Config{Nodes: 8, ShardsPerNode: 1, GenWorkers: 1},
		Balance:         true,
		MaxMigrations:   10,
		CheckpointEvery: 3,
		TCPWorkers:      2,
	},
}

// warmupPeriods run before measurement starts: capacity calibration, the
// first plans and the first checkpoint happen there.
const warmupPeriods = 5

func workloadByName(name string) *Workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// spec is the workload's complete job description for one seed. The
// in-process engines are built from it as well, so every runtime derives
// its topology the same way.
func (w *Workload) spec(seed int64) distrib.JobSpec {
	jc := w.JobConfig
	jc.Seed = seed
	s := distrib.JobSpec{Job: w.Job, Workload: jc, Engine: w.Engine}
	if w.TCPWorkers > 0 {
		s.NodePeers = distrib.DefaultPeers(w.Engine.Nodes, w.TCPWorkers)
	}
	return s
}

// source returns the job's seeded source generator, built as the job's
// topology builds it, for timing on its own.
func (w *Workload) source(seed int64) engine.PartSourceFunc {
	if w.Job == "rj1" {
		return workload.WikipediaParts(workload.WikipediaConfig{BaseRate: w.JobConfig.Rate, Seed: seed})
	}
	return workload.AirlineParts(workload.AirlineConfig{Rate: w.JobConfig.Rate, Seed: seed})
}

// controllerOptions returns the lockstep controller configuration. ALBIC
// gets a 1 ns budget: its anytime LNS phase then runs no rounds, so plans
// come from the seeded greedy, swap and batch phases alone and do not
// depend on host speed, and core.plan_ms measures planner work rather than
// a wall-clock budget.
func (w *Workload) controllerOptions(seed int64) controller.Options {
	opt := controller.Options{CheckpointEvery: w.CheckpointEvery, TargetAvgLoad: w.TargetAvgLoad}
	if w.Balance {
		opt.Balancer = &core.ALBIC{TimeLimit: time.Nanosecond, Seed: seed}
		opt.MaxMigrations = w.MaxMigrations
	}
	return opt
}
