// Command benchmark is the repository's end-to-end and per-layer
// benchmark. It runs one workload (see workloads.go) through the public
// lockstep controller loop, controller.New(...).Run, and times every layer
// from outside by wrapping the seams the controller already calls: the
// controller.Engine interface, core.Balancer.Plan and, on the TCP workload,
// transport.Endpoint. It edits no program code.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload rj2-rebalance --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// reports the per-layer metrics of a traced run, with the untraced run it
// is compared against for the tracing overhead. Every run first checks the
// program's output: an unplanned replay must match an in-process
// single-shard reference engine period by period. The last line of
// standard output is the result as one JSON object; the full record (run
// environment, sample counts, failures) and, when traced, the spans are
// written under --out.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/controller"
	"repro/internal/engine"
)

const (
	// setupRepeats is the number of set-ups whose median is setup_s.
	setupRepeats = 15
	// minPeriods keeps an untraced run going past its time budget until
	// period_ms_p95 has four windows.
	minPeriods = 4 * tailWindow
	// qualityPeriods is the fixed number of measured periods the quality
	// metrics average over.
	qualityPeriods = minPeriods
	// hardStopAfter ends a measurement that cannot reach minPeriods.
	hardStopAfter = 100 * time.Second
	// watchdog ends a run that hangs, without printing a result.
	watchdog = 170 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result records and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "benchmark: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	rec, err := execute(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rec.Seconds = *seconds
	rec.Failed = len(rec.Failures)
	rec.FailedOpsRatio = ratio(float64(rec.Failed), float64(rec.Attempted))
	if err := rec.save(*outDir); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rec.print(stdout)
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// execute runs one benchmark invocation: the output check, then either the
// untraced measurement or the traced one.
func execute(w *Workload, seed int64, budget time.Duration, traced bool, outDir string) (*record, error) {
	rec := &record{Workload: w, Seed: seed, Trace: boolCount(traced), Env: environment()}

	c, _, err := timedSetup(w, seed, nil)
	if err != nil {
		return nil, err
	}
	n, bad, err := replayCheck(w, seed, c)
	c.stop()
	if err != nil {
		return nil, err
	}
	rec.Attempted += n
	rec.Failures = append(rec.Failures, bad...)

	if !traced {
		var setups []float64
		for len(setups) < setupRepeats-1 {
			c, d, err := timedSetup(w, seed, nil)
			if err != nil {
				return nil, err
			}
			c.stop()
			setups = append(setups, d.Seconds())
		}
		c, d, err := timedSetup(w, seed, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		p := measure(w, seed, c, budget, minPeriods, false, nil)
		rec.add(p)
		rec.Metrics = endToEnd(p, setups)
		return rec, nil
	}

	// Traced: an untraced reference run, then the traced run, then where
	// the workload asks for it the same run on one thread.
	phases := 2
	if w.SingleThreadBaseline {
		phases = 3
	}
	share := budget / time.Duration(phases)
	c, _, err = timedSetup(w, seed, nil)
	if err != nil {
		return nil, err
	}
	u := measure(w, seed, c, share, 2*window, false, nil)
	rec.add(u)

	tap := &sendTap{}
	c, _, err = timedSetup(w, seed, tap)
	if err != nil {
		return nil, err
	}
	mesh := c.mesh
	t := measure(w, seed, c, share, tailWindow, true, tap)
	rec.add(t)

	procs1 := exact("engine.procs1_tuples_per_s", 0, "tuples/s", 0)
	if phases == 3 {
		prev := runtime.GOMAXPROCS(1)
		c, _, err = timedSetup(w, seed, nil)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			return nil, err
		}
		s := measure(w, seed, c, share, 2*window, false, nil)
		runtime.GOMAXPROCS(prev)
		rec.add(s)
		tps, n := s.tuplesPerSecond()
		procs1 = exact("engine.procs1_tuples_per_s", tps, "tuples/s", n)
	}
	rec.Metrics = perLayer(t, u, float64(mesh)/1e6, procs1, genNsPerTuple(w, seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := t.tr.write(filepath.Join(outDir, rec.base()+"-spans.json")); err != nil {
		return nil, err
	}
	return rec, nil
}

// timedSetup builds the workload's engine and returns how long that took:
// topology build and engine construction, plus cluster formation over TCP.
func timedSetup(w *Workload, seed int64, tap *sendTap) (*cluster, time.Duration, error) {
	t0 := time.Now()
	c, err := w.setup(seed, tap)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return c, time.Since(t0), nil
}

// measure drives the controller over c until the budget has passed and at
// least minP periods are measured, then takes the live heap after a forced
// GC and shuts c down.
func measure(w *Workload, seed int64, c *cluster, budget time.Duration, minP int, traced bool, tap *sendTap) *probe {
	defer c.stop()
	p := &probe{
		budget:     budget,
		minPeriods: minP,
		planner:    w.Balance,
		tap:        tap,
	}
	if traced {
		p.tr = newTracer()
	}
	opt := w.controllerOptions(seed)
	if opt.Balancer != nil {
		opt.Balancer = &probedBalancer{inner: opt.Balancer, p: p}
	}
	opt.OnPeriod = p.report
	_, err := controller.New(&probedEngine{Engine: c.eng, p: p}, opt).Run(context.Background(), 0)
	if err != nil && !errors.Is(err, errStop) {
		p.fail("run: %v", err)
	}
	// The second collection empties what sync.Pool caches kept through the
	// first, so that only live data remains.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.heap = m.HeapAlloc
	return p
}

// genNsPerTuple times the job's seeded source generator on its own, into
// an emit that only counts.
func genNsPerTuple(w *Workload, seed int64) metric {
	gen := w.source(seed)
	var tuples int64
	emit := func(*engine.Tuple) { tuples++ }
	t0 := time.Now()
	for period := 1; period <= 20 || time.Since(t0) < 300*time.Millisecond; period++ {
		gen(period, 0, 1, emit)
	}
	return exact("workload.gen_ns_per_tuple", ratio(float64(time.Since(t0).Nanoseconds()), float64(tuples)), "ns", int(tuples))
}

// record is everything one invocation reports.
type record struct {
	Workload *Workload `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  int       `json:"seconds"`
	Trace    int       `json:"trace"`
	Env      env       `json:"env"`
	// MeasuredPeriods counts the measured periods of every run made;
	// QualityPeriods and Migrations describe the quality window of the
	// first one.
	MeasuredPeriods    []int `json:"measured_periods"`
	QualityPeriods     int   `json:"quality_periods"`
	Migrations         int   `json:"migrations"`
	ReconfigSuperseded int   `json:"reconfig_superseded"`
	ReconfigPending    int   `json:"reconfig_pending_at_end"`
	// PeriodMs and LoadDistance are the first run's per-period series.
	PeriodMs       []float64 `json:"period_ms"`
	LoadDistance   []float64 `json:"load_distance"`
	Metrics        []metric  `json:"metrics"`
	Attempted      int       `json:"attempted"`
	Failed         int       `json:"failed"`
	FailedOpsRatio float64   `json:"failed_ops_ratio"`
	Failures       []string  `json:"failures,omitempty"`
}

// add folds one run's operation counts and run facts into the record.
func (r *record) add(p *probe) {
	if len(r.MeasuredPeriods) == 0 {
		_, _, r.Migrations, r.QualityPeriods = p.quality()
		r.ReconfigSuperseded = p.reconfig.superseded
		r.ReconfigPending = len(p.reconfig.pending)
		r.PeriodMs = p.periodMs()
		for _, m := range p.measured() {
			r.LoadDistance = append(r.LoadDistance, m.LoadDistance)
		}
	}
	r.MeasuredPeriods = append(r.MeasuredPeriods, len(p.measured()))
	r.Attempted += p.attempted
	r.Failures = append(r.Failures, p.failures...)
}

func (r *record) base() string {
	return fmt.Sprintf("%s-seed%d-trace%d", r.Workload.Name, r.Seed, r.Trace)
}

func (r *record) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.base()+".json"), b, 0o644)
}

// print writes a readable table and then, as the last line, the result
// object.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d trace %d: nproc %d GOMAXPROCS %d %s commit %s\n",
		r.Workload.Name, r.Seed, r.Trace, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit)
	fmt.Fprintf(w, "measured periods %v, quality over %d periods, %d migrations\n", r.MeasuredPeriods, r.QualityPeriods, r.Migrations)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-40s %14.6g %-9s samples %d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "  %-40s %14.6g %-9s attempted %d failed %d\n", "failed_ops_ratio", r.FailedOpsRatio, "ratio", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  failure:", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out) // plain strings and finite numbers only
	fmt.Fprintln(w, string(b))
}
