package main

import (
	"context"
	"errors"
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/engine"
)

// errStop ends a controller run once the probe has measured enough.
var errStop = errors.New("benchmark: measurement complete")

// periodRec is what the probe keeps about one period. Durations are in
// nanoseconds.
type periodRec struct {
	Period   int
	Measured bool
	// Data runs from the previous observe hook's return to this barrier;
	// Interval from the previous barrier to this one; Pause is this
	// period's observe hook.
	Data, Interval, Pause int64
	// Time spent inside the hook in the wrapped seams.
	Snapshot, Plan, Apply, Checkpoint int64

	TuplesIn, TuplesOut                    int64
	BytesIn, BytesCross, SrcBytes, Batches int64
	Allocs, AllocBytes                     uint64
	Migrations, Deferred                   int
	Precopy, Delta                         int64
	StateBytes                             int64

	HasQuality                bool
	LoadDistance, Collocation float64

	// Transport sends between the previous hook's return and this one's.
	Frames, FrameBytes, SendNs int64
}

// planRec is one Balancer.Plan call.
type planRec struct {
	Measured bool
	Ns       int64
	Moves    int
}

// ckptRec is one TakeCheckpoint call.
type ckptRec struct {
	Measured bool
	Ns       int64
	NewBytes int
}

// probe records one controller run from outside the program: the engine,
// balancer and transport wrappers below report into it. Everything but
// the transport tap runs on the control goroutine.
type probe struct {
	budget     time.Duration
	minPeriods int
	planner    bool // a balancer decides at every boundary

	tr  *tracer // nil when untraced
	tap *sendTap

	lastEnd   time.Time // previous hook return (or run start)
	lastBar   time.Time
	measStart time.Time // start of the first measured period
	stopAt    time.Time
	hardStop  time.Time
	gcStart   uint64
	gcDelta   uint64 // GC cycles completed while measuring

	periods  []periodRec
	cur      *periodRec
	pause    int // span index of the open controller.pause
	period   int // span index of the open period
	plans    []planRec
	ckpts    []ckptRec
	reconfig reconfigTracker

	tapFrames, tapBytes, tapNs int64

	// heap is the live heap after a forced GC at the end of the run.
	heap uint64

	// Operations attempted and failed: periods, plans, checkpoints and
	// output checks.
	attempted int
	failures  []string
}

func (p *probe) measuring() bool { return p.cur != nil && p.cur.Measured }

func (p *probe) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// start marks the moment the engine begins its first period.
func (p *probe) start() {
	p.lastEnd = time.Now()
	if p.tr != nil {
		p.tr.t0 = p.lastEnd
	}
}

// barrier runs at observe-hook entry: the period has just ended.
func (p *probe) barrier(ps *engine.PeriodStats) {
	now := time.Now()
	rec := periodRec{
		Period:     ps.Period,
		Measured:   ps.Period > warmupPeriods,
		Data:       int64(now.Sub(p.lastEnd)),
		TuplesIn:   ps.TuplesIn,
		TuplesOut:  ps.TuplesOut,
		BytesIn:    ps.BytesCrossNodeIn,
		BytesCross: ps.BytesCrossNode,
		SrcBytes:   ps.SrcBytesCrossNode,
		Batches:    ps.BatchesCrossNode,
		Allocs:     ps.Allocs,
		AllocBytes: ps.AllocBytes,
		Migrations: ps.Migrations,
		Deferred:   ps.DeferredMoves,
		Precopy:    ps.PrecopyBytes,
		Delta:      ps.MigratedDeltaBytes,
	}
	if !p.lastBar.IsZero() {
		rec.Interval = int64(now.Sub(p.lastBar))
	}
	for _, b := range ps.StateBytes {
		rec.StateBytes += int64(b)
	}
	p.lastBar = now
	p.attempted += 2 // the period and its byte-accounting check
	if want := ps.BytesCrossNode + ps.SrcBytesCrossNode; ps.BytesCrossNodeIn != want {
		p.fail("period %d: BytesCrossNodeIn = %d, want BytesCrossNode+SrcBytesCrossNode = %d",
			ps.Period, ps.BytesCrossNodeIn, want)
	}
	p.reconfig.barrier(now, ps.GroupNode)
	p.periods = append(p.periods, rec)
	p.cur = &p.periods[len(p.periods)-1]
	if !p.planner {
		// Without a planner every control pause is a decision with nothing
		// to move; it is live at the next barrier.
		p.reconfig.decided(now, nil, rec.Measured)
	}
	if p.tr != nil {
		p.period = p.tr.add(spanPeriod, ps.Period, p.lastEnd, time.Time{}, -1)
		p.tr.add(spanData, ps.Period, p.lastEnd, now, p.period)
		p.pause = p.tr.add(spanPause, ps.Period, now, time.Time{}, p.period)
		p.tr.open = p.pause
	}
}

// hookDone runs when the observe hook returns and reports whether the
// measurement is complete.
func (p *probe) hookDone() bool {
	now := time.Now()
	rec := p.cur
	rec.Pause = int64(now.Sub(p.lastBar))
	if p.tap != nil {
		f, b, ns := p.tap.frames.Load(), p.tap.bytes.Load(), p.tap.ns.Load()
		rec.Frames, rec.FrameBytes, rec.SendNs = f-p.tapFrames, b-p.tapBytes, ns-p.tapNs
		p.tapFrames, p.tapBytes, p.tapNs = f, b, ns
	}
	if p.tr != nil {
		p.tr.finish(p.pause, now)
		p.tr.finish(p.period, now)
		p.tr.open = -1
	}
	p.lastEnd = now
	if rec.Period == warmupPeriods {
		p.measStart = now
		p.stopAt = now.Add(p.budget)
		p.hardStop = now.Add(hardStopAfter)
		p.gcStart = gcCycles()
	}
	if p.measStart.IsZero() {
		return false
	}
	measured := rec.Period - warmupPeriods
	if (measured >= p.minPeriods && !now.Before(p.stopAt)) || !now.Before(p.hardStop) {
		p.gcDelta = gcCycles() - p.gcStart
		return true
	}
	return false
}

// child times one call the controller makes inside its observe hook and
// adds the duration to *acc. The returned function ends the call.
func (p *probe) child(name string, acc func(*periodRec) *int64) func() time.Duration {
	start := time.Now()
	idx := -1
	if p.tr != nil && p.tr.open >= 0 {
		idx = p.tr.add(name, p.cur.Period, start, time.Time{}, p.tr.open)
	}
	return func() time.Duration {
		end := time.Now()
		if idx >= 0 {
			p.tr.finish(idx, end)
		}
		d := end.Sub(start)
		if p.cur != nil {
			*acc(p.cur) += int64(d)
		}
		return d
	}
}

// report is the controller's OnPeriod hook: the period's quality metrics.
func (p *probe) report(rep controller.PeriodReport) {
	if p.cur == nil || !rep.HasSnapshot {
		return
	}
	p.cur.HasQuality = true
	p.cur.LoadDistance = rep.LoadDistance
	p.cur.Collocation = rep.Collocation
}

func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// probedEngine is the engine as the controller sees it in the benchmark:
// *engine.Engine with the seams the controller calls timed. Embedding keeps
// every optional interface the controller type-asserts
// (CheckpointEngine, SubPeriodEngine, WeightedScaleEngine).
type probedEngine struct {
	*engine.Engine
	p *probe
}

var _ controller.Engine = (*probedEngine)(nil)

// Run wraps the observe hook with the barrier and hook-return probes and
// stops the run once the probe has measured enough.
func (e *probedEngine) Run(ctx context.Context, periods int, observe func(*engine.PeriodStats) error) error {
	e.p.start()
	return e.Engine.Run(ctx, periods, func(ps *engine.PeriodStats) error {
		e.p.barrier(ps)
		err := observe(ps)
		if stop := e.p.hookDone(); err == nil && stop {
			return errStop
		}
		return err
	})
}

func (e *probedEngine) Snapshot() (*core.Snapshot, error) {
	defer e.p.child(spanSnapshot, func(r *periodRec) *int64 { return &r.Snapshot })()
	return e.Engine.Snapshot()
}

func (e *probedEngine) ApplyPlan(groupNode []int) error {
	defer e.p.child(spanApplyPlan, func(r *periodRec) *int64 { return &r.Apply })()
	return e.Engine.ApplyPlan(groupNode)
}

// TakeCheckpoint returns no error: a reply the engine fails to absorb
// surfaces as an error of the next period. A checkpoint that does not carry
// the period that just ended counts as failed.
func (e *probedEngine) TakeCheckpoint() engine.CheckpointStats {
	end := e.p.child(spanCheckpoint, func(r *periodRec) *int64 { return &r.Checkpoint })
	cs := e.Engine.TakeCheckpoint()
	d := end()
	e.p.attempted++
	if cs.Period != e.p.cur.Period {
		e.p.fail("checkpoint after period %d has version %d", e.p.cur.Period, cs.Period)
	}
	e.p.ckpts = append(e.p.ckpts, ckptRec{Measured: e.p.measuring(), Ns: int64(d), NewBytes: cs.NewBytes})
	return cs
}

// probedBalancer times Balancer.Plan and hands each decision to the
// reconfiguration tracker.
type probedBalancer struct {
	inner core.Balancer
	p     *probe
}

func (b *probedBalancer) Name() string { return b.inner.Name() }

func (b *probedBalancer) Plan(ctx context.Context, s *core.Snapshot) (*core.Plan, error) {
	start := time.Now()
	end := b.p.child(spanPlan, func(r *periodRec) *int64 { return &r.Plan })
	plan, err := b.inner.Plan(ctx, s)
	d := end()
	p := b.p
	p.attempted++
	if err != nil {
		p.fail("plan: %v", err)
		return nil, err
	}
	p.plans = append(p.plans, planRec{Measured: p.measuring(), Ns: int64(d), Moves: len(plan.Moves)})
	if len(plan.Moves) > 0 {
		p.reconfig.decided(start, plan.Moves, p.measuring())
	}
	return plan, nil
}
