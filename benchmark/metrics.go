package main

// metric is one reported number. Samples is the count behind it: periods,
// plans, checkpoints, setups or tuples, as the metric's definition says.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	// Supported is false for a percentile with fewer than minBeyond
	// samples beyond it.
	Supported bool `json:"supported"`
}

func exact(name string, v float64, unit string, n int) metric {
	return metric{Name: name, Value: v, Unit: unit, Samples: n, Supported: n > 0}
}

func pct(name string, xs []float64, q float64, unit string) metric {
	v, ok := quantile(xs, q)
	return metric{Name: name, Value: v, Unit: unit, Samples: len(xs), Supported: ok}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// measured returns the probe's measured periods.
func (p *probe) measured() []periodRec {
	var out []periodRec
	for _, r := range p.periods {
		if r.Measured {
			out = append(out, r)
		}
	}
	return out
}

// Timings are medians over windows of consecutive samples, so that a burst
// of contention from outside the benchmark (on a shared host, CPU time
// stolen by other guests) moves a minority of windows rather than the whole
// figure.
const (
	window     = 50  // samples per window of a throughput or median sample
	tailWindow = 200 // periods per window of a p95 sample: ten beyond it
)

// windowed splits xs into consecutive windows of n samples (dropping a
// partial last window), takes each window's q-quantile and returns their
// median. With fewer than n samples it is the q-quantile of all of them.
func windowed(name string, xs []float64, n int, q float64, unit string) metric {
	if len(xs) < n {
		return pct(name, xs, q, unit)
	}
	var per []float64
	for i := 0; i+n <= len(xs); i += n {
		v, _ := quantile(xs[i:i+n], q)
		per = append(per, v)
	}
	v, _ := quantile(per, 0.5)
	return metric{Name: name, Value: v, Unit: unit, Samples: len(xs), Supported: supported(n, q)}
}

// tuplesPerSecond is the median over windows of measured periods of
// Σ TuplesIn divided by the window's barrier-to-barrier wall time (control
// pauses included). It returns the number of windows.
func (p *probe) tuplesPerSecond() (float64, int) {
	recs := p.measured()
	var rates []float64
	for i := 0; i+window <= len(recs); i += window {
		var tuples, ns int64
		for _, r := range recs[i : i+window] {
			tuples += r.TuplesIn
			ns += r.Interval
		}
		rates = append(rates, ratio(float64(tuples), float64(ns)/1e9))
	}
	v, _ := quantile(rates, 0.5)
	return v, len(rates)
}

func (p *probe) periodMs() []float64 {
	var xs []float64
	for _, r := range p.measured() {
		xs = append(xs, ms(r.Interval))
	}
	return xs
}

// quality returns the mean load distance and collocation over the first
// qualityPeriods measured periods, and the migrations executed in them.
// A fixed count keeps the figures a function of the seed alone, however
// many periods the host manages in the measured time.
func (p *probe) quality() (ld, col float64, migrations, n int) {
	for _, r := range p.measured() {
		if n == qualityPeriods {
			break
		}
		if !r.HasQuality {
			continue
		}
		ld += r.LoadDistance
		col += r.Collocation
		migrations += r.Migrations
		n++
	}
	return ratio(ld, float64(n)), ratio(col, float64(n)), migrations, n
}

// endToEnd returns the user-visible metrics of an untraced run.
func endToEnd(p *probe, setupS []float64) []metric {
	tps, n := p.tuplesPerSecond()
	periods := p.periodMs()
	ld, col, _, qn := p.quality()
	return []metric{
		pct("setup_s", setupS, 0.5, "s"),
		exact("tuples_per_s", tps, "tuples/s", n),
		windowed("period_ms_p50", periods, window, 0.5, "ms"),
		windowed("period_ms_p95", periods, tailWindow, 0.95, "ms"),
		windowed("reconfig_ms_p50", p.reconfig.samples, window, 0.5, "ms"),
		exact("load_distance_pct", ld, "pp", qn),
		exact("collocation_pct", col, "%", qn),
		exact("heap_mb", float64(p.heap)/1e6, "MB", 1),
	}
}

// perLayer returns the layer metrics of a traced run t. u is the untraced
// run made just before it (for the tracing overhead), procs1 the
// single-threaded replay's throughput, gen the source generator timed on
// its own.
func perLayer(t, u *probe, mesh float64, procs1 metric, gen metric) []metric {
	recs := t.measured()
	np := float64(len(recs))
	var data, dataPerTuple, pause, self, snaps, sends []float64
	var tuples, bytesIn, wire, batches, frames, frameBytes int64
	var allocs, allocBytes uint64
	var migrations, deferred int
	var precopy, delta int64
	for _, r := range recs {
		data = append(data, ms(r.Data))
		if r.TuplesIn > 0 {
			dataPerTuple = append(dataPerTuple, float64(r.Data)/1e3/float64(r.TuplesIn))
		}
		pause = append(pause, ms(r.Pause))
		self = append(self, ms(r.Pause-r.Snapshot-r.Plan-r.Apply-r.Checkpoint))
		if r.Snapshot > 0 {
			snaps = append(snaps, ms(r.Snapshot))
		}
		if r.Frames > 0 {
			sends = append(sends, float64(r.SendNs)/1e3/float64(r.Frames))
		}
		tuples += r.TuplesIn
		bytesIn += r.BytesIn
		wire += r.BytesCross + r.SrcBytes
		batches += r.Batches
		frames += r.Frames
		frameBytes += r.FrameBytes
		allocs += r.Allocs
		allocBytes += r.AllocBytes
		migrations += r.Migrations
		deferred += r.Deferred
		precopy += r.Precopy
		delta += r.Delta
	}
	var plans []float64
	planned := 0
	for _, pl := range t.plans {
		if pl.Measured {
			plans = append(plans, ms(pl.Ns))
			planned += pl.Moves
		}
	}
	var ckpts []float64
	var ckptBytes int
	for _, c := range t.ckpts {
		if c.Measured {
			ckpts = append(ckpts, ms(c.Ns))
			ckptBytes += c.NewBytes
		}
	}
	var stateBytes int64
	if len(recs) > 0 {
		stateBytes = recs[len(recs)-1].StateBytes
	}
	n := len(recs)
	tTPS, _ := t.tuplesPerSecond()
	uTPS, _ := u.tuplesPerSecond()
	tP50, _ := quantile(t.periodMs(), 0.5)
	uP50, _ := quantile(u.periodMs(), 0.5)

	out := []metric{
		gen,
		pct("engine.data_ms_p50", data, 0.5, "ms"),
		pct("engine.data_us_per_tuple", dataPerTuple, 0.5, "us"),
		exact("engine.cross_bytes_per_tuple", ratio(float64(bytesIn), float64(tuples)), "B", n),
		exact("engine.bytes_per_frame", ratio(float64(wire), float64(batches)), "B", n),
		exact("engine.allocs_per_period", ratio(float64(allocs), np), "count", n),
		exact("engine.alloc_kb_per_period", ratio(float64(allocBytes)/1e3, np), "kB", n),
		exact("runtime.gc_cycles_per_period", ratio(float64(t.gcDelta), np), "count", n),
		exact("engine.state_kb", float64(stateBytes)/1e3, "kB", min(n, 1)),
		pct("engine.snapshot_ms_p50", snaps, 0.5, "ms"),
		pct("core.plan_ms_p50", plans, 0.5, "ms"),
		pct("core.plan_ms_p95", plans, 0.95, "ms"),
		exact("core.moves_per_plan", ratio(float64(planned), float64(len(plans))), "count", len(plans)),
		exact("core.moves_applied_ratio", ratio(float64(migrations), float64(planned)), "ratio", len(plans)),
		exact("engine.migrations_per_period", ratio(float64(migrations), np), "count", n),
		exact("engine.migrated_delta_kb_per_period", ratio(float64(delta)/1e3, np), "kB", n),
		exact("engine.precopy_kb_per_period", ratio(float64(precopy)/1e3, np), "kB", n),
		exact("engine.deferred_moves_per_period", ratio(float64(deferred), np), "count", n),
		pct("engine.checkpoint_ms_p50", ckpts, 0.5, "ms"),
		exact("statestore.ckpt_kb_per_checkpoint", ratio(float64(ckptBytes)/1e3, float64(len(ckpts))), "kB", len(ckpts)),
		pct("controller.pause_ms_p50", pause, 0.5, "ms"),
		pct("controller.self_ms_p50", self, 0.5, "ms"),
		exact("transport.frames_per_period", ratio(float64(frames), np), "count", len(sends)),
		exact("transport.kb_per_period", ratio(float64(frameBytes)/1e3, np), "kB", len(sends)),
		pct("transport.send_us_p50", sends, 0.5, "us"),
		exact("transport.setup_ms", mesh, "ms", boolCount(mesh > 0)),
		procs1,
		exact("trace.overhead_tuples_per_s_pct", 100*ratio(uTPS-tTPS, uTPS), "%", n),
		exact("trace.overhead_period_ms_p50_pct", 100*ratio(tP50-uP50, uP50), "%", n),
	}
	return append(out, spanSelfTimes(t)...)
}

// spanSelfTimes reports, per span name, the mean self time per measured
// period.
func spanSelfTimes(t *probe) []metric {
	self := t.tr.selfTimes()
	total := map[string]int64{}
	count := map[string]int{}
	for i, s := range t.tr.spans {
		if s.Period > warmupPeriods {
			total[s.Name] += self[i]
			count[s.Name]++
		}
	}
	np := float64(len(t.measured()))
	var out []metric
	for _, name := range spanNames[1:] { // a period's children cover it
		out = append(out, exact("span."+name+".self_ms_per_period", ratio(ms(total[name]), np), "ms", count[name]))
	}
	return out
}

func boolCount(b bool) int {
	if b {
		return 1
	}
	return 0
}
