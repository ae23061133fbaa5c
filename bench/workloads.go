package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"waran/internal/e2"
	"waran/internal/obs/trace"
	"waran/internal/sched"
)

// system is a built workload: the program under test plus its closed-loop
// driver.
type system interface {
	firstOp() error                       // complete one operation: the end of a cold start
	warm() error                          // run until lazy set-up has finished
	run(d time.Duration, segs int) *phase // the timed closed loop
	verify() error                        // end-of-run correctness oracle
	close()                               // stop every goroutine the build started
}

// variant selects the arm of a workload a build is for.
type variant struct {
	rec    *recorder     // install the harness's decorators
	tracer *trace.Tracer // switch on the program's own tracer (ric_loop)
	obsOff bool          // leave registry and slot ring out (cell_*)
	serial bool          // CellGroupConfig.Parallelism = 1 (cell_*)
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name   string
	Why    string
	Op     string // what one operation is
	lanes  int    // span lanes a traced build needs: one per cell or association
	build  func(seed int64, v variant) (system, error)
	traced func(w *workload, seed int64, d time.Duration, spanDir string) (map[string]float64, *phase, error)
}

// segments is how many equal parts a timed phase is cut into; results are
// medians over them.
const segments = 10

// setupBuilds is how many cold starts setup_s is the median of.
const setupBuilds = 25

func cellWorkload(name, why string, cells, uesPerSlice int) *workload {
	return &workload{
		Name: name, Why: why, Op: "cell-slot",
		lanes: cells,
		build: func(seed int64, v variant) (system, error) {
			o := cellOpts{cells: cells, uesPerSlice: uesPerSlice, par: nproc(), obsOff: v.obsOff, rec: v.rec}
			if v.serial {
				o.par = 1
			}
			return buildCells(seed, o)
		},
		traced: tracedCells,
	}
}

func ricWorkload(name, why, op string, firehose bool) *workload {
	return &workload{
		Name: name, Why: why, Op: op,
		lanes: nproc(),
		build: func(seed int64, v variant) (system, error) {
			return buildRIC(seed, ricOpts{firehose: firehose, cells: nproc(), rec: v.rec, tracer: v.tracer})
		},
		traced: tracedRIC,
	}
}

var workloads = []*workload{
	cellWorkload("cell_sparse",
		"8 cells x 3 slices x 3 UEs (Fig. 5a shape): tiny requests, so host fixed costs (core, pool, ABI crossing, inter-slice, obs) dominate; the only workload with a parallel axis",
		8, 3),
	cellWorkload("cell_dense",
		"1 cell x 3 slices x 32 UEs: over 95% of the slot is inside Schedule, so wasm execution and per-UE ABI work dominate and host fixed costs vanish",
		1, 32),
	ricWorkload("ric_loop",
		"one outstanding KPM report per cell over live loopback TCP to one RIC (sla+steer xApps): latency through e2 codec, transport, synchronous dispatch, xApp invoke and core.Apply",
		"control loop", false),
	ricWorkload("kpm_firehose",
		"same cells and xApps at report period 1 with batch window 8 and overload control on, 64 indications in flight: throughput through batching and the bounded queue instead of latency",
		"answered indication", true),
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// outcome is one run's result in the shape the pipeline reads.
type outcome struct {
	Correct           bool
	Attempted, Failed uint64
	Metrics           map[string]float64
	Reason            string // first correctness failure
	Samples           int    // latency samples behind the percentiles
}

func (o *outcome) fail(why string) {
	o.Correct = false
	if o.Reason == "" {
		o.Reason = why
	}
}

// coldBuilds starts the workload setupBuilds times, each from nothing (text
// assembly, decode/validate/compile, pool instantiation, association and
// subscription all happen again) up to its first completed operation, so
// work a later change defers from the build to first use still counts. It
// returns the last build and the median start time in seconds.
func coldBuilds(w *workload, seed int64) (system, float64, error) {
	var times []float64
	var sys system
	for i := 0; i < setupBuilds; i++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		start := time.Now()
		built, err := w.build(seed, variant{})
		if err != nil {
			return nil, 0, fmt.Errorf("build: %w", err)
		}
		if err := built.firstOp(); err != nil {
			built.close()
			return nil, 0, fmt.Errorf("first operation: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		sys = built
	}
	return sys, median(times), nil
}

// runEndToEnd is a --trace 0 run: every end-to-end metric, tracing off.
func runEndToEnd(w *workload, seed int64, d time.Duration) (*outcome, error) {
	sys, setup, err := coldBuilds(w, seed)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	if err := sys.warm(); err != nil {
		return nil, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := sys.run(d, segments)
	runtime.ReadMemStats(&after)

	out := &outcome{Correct: true, Attempted: p.attempted, Failed: p.failed}
	if p.failed > 0 {
		out.fail(p.failure)
	}
	lat := p.latency()
	out.Samples = lat.Samples
	ops, rate := p.ops(), p.rate()
	if ops == 0 {
		return nil, fmt.Errorf("no operation completed in %v", d)
	}
	p = nil // the live heap below is the program's, not the harness's samples
	heapMB, failed := liveHeapMB(sys)
	if failed > 0 {
		out.Failed += failed
		out.fail("operations failed after the timed phase")
	}
	if err := sys.verify(); err != nil {
		out.fail(err.Error())
		if out.Failed == 0 {
			out.Failed = 1
		}
	}
	out.Metrics = map[string]float64{
		"setup_s":       setup,
		"ops_per_s":     rate,
		"op_p50_us":     lat.P50,
		"allocs_per_op": float64(after.Mallocs-before.Mallocs) / ops,
		"live_heap_mb":  heapMB,
	}
	return out, nil
}

// heapSamples readings, heapGap of running apart. The RIC's KPM ring retains
// between one history and about one and a half, depending on where its
// backing array is in its grow-and-reslice cycle (a few hundred loops long),
// so one reading lands anywhere in a band about 7% wide. Readings much closer
// together than a cycle, averaged over several cycles, give the band's centre.
const (
	heapSamples = 12
	heapGap     = 20 * time.Millisecond
)

// liveHeapMB is HeapAlloc after a forced collection: the mean of heapSamples
// readings with the system kept running in between. It returns the
// operations that failed while doing so.
func liveHeapMB(sys system) (mb float64, failed uint64) {
	for i := 0; i < heapSamples; i++ {
		failed += sys.run(heapGap, 1).failed
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		mb += float64(m.HeapAlloc) / (1 << 20) / heapSamples
	}
	return mb, failed
}

// runTraced is a --trace 1 run: every per-layer metric. Layers the workload
// does not exercise read 0. Spans and the table are left under spanDir.
func runTraced(w *workload, seed int64, d time.Duration, spanDir string) (*outcome, error) {
	table, p, err := w.traced(w, seed, d, spanDir)
	if err != nil {
		return nil, err
	}
	out := &outcome{Correct: true, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]float64{}}
	if p.failed > 0 {
		out.fail(p.failure)
	}
	for _, def := range perLayer {
		out.Metrics[def.Name] = table[def.Name]
	}
	for name := range table {
		if _, ok := findMetric(perLayer, name); !ok {
			return nil, fmt.Errorf("traced run produced undeclared metric %q", name)
		}
	}
	if e := table["bench.closure_error"]; e > 0.10 {
		out.fail(fmt.Sprintf("per-layer self times miss the operation wall by %.1f%%", 100*e))
		out.Failed++
	}
	return out, nil
}

// arm builds one variant, warms it, runs it for d, verifies it, and hands the
// still-open system to read (for Stats snapshots) before closing it.
func arm(w *workload, seed int64, v variant, d time.Duration, read func(system) error) (*phase, error) {
	sys, err := w.build(seed, v)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	if err := sys.warm(); err != nil {
		return nil, err
	}
	p := sys.run(d, segments)
	if err := sys.verify(); err != nil {
		p.failed++
		if p.failure == "" {
			p.failure = err.Error()
		}
	}
	if read != nil {
		if err := read(sys); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// share cuts the traced run's time budget.
func share(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// addStages fills the guest set-up stage timings, the same five guests on
// every workload.
func addStages(table map[string]float64) error {
	st, err := measureStages([]string{"mt", "rr", "pf", "steer", "sla"}, 5)
	if err != nil {
		return err
	}
	table["wat.compile_us"] = st.WAT
	table["wasm.decode_us"] = st.Decode
	table["wasm.validate_us"] = st.Validate
	table["wasm.compile_us"] = st.Compile
	table["wasm.instantiate_us"] = st.Instantiate
	return nil
}

// durationsOf returns the durations (us) of every span of one kind, sorted.
func durationsOf(spans []span, kind spanKind) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Kind == kind {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// perOpUs converts an attributed nanosecond total to microseconds per op.
func perOpUs(totalNs float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return totalNs / 1e3 / float64(ops)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// spansComplete refuses a traced run whose table would be computed without
// one of its layers.
func spansComplete(att attribution, want ...spanKind) error {
	if miss := att.missing(want...); len(miss) > 0 {
		return fmt.Errorf("traced run recorded too few %v spans for %d operations", miss, att.Ops)
	}
	return nil
}

// tracedCells is the traced run of a cell_* workload: an untraced baseline
// arm, the decorated arm, a registry-off arm, a serial arm, and the replays.
func tracedCells(w *workload, seed int64, d time.Duration, spanDir string) (map[string]float64, *phase, error) {
	table := map[string]float64{}
	if err := addStages(table); err != nil {
		return nil, nil, err
	}

	// Arm A: the program as it ships; the reference for every ratio below
	// and the source of the Stats-derived counters.
	var shape cellOpts
	base, err := arm(w, seed, variant{}, share(d, 0.25), func(sys system) error {
		s := sys.(*cellSystem)
		shape = s.opts
		var calls, fuel, closure, dirty, records float64
		for _, ps := range s.pools {
			st := ps.Stats()
			calls += float64(st.Calls)
			fuel += float64(st.TotalFuel)
			closure += float64(st.TierClosureCalls)
			dirty += float64(st.ZCDirtyRecords)
			records += float64(st.ZCRecords)
			table["sched.faults"] += float64(st.Faults)
			pst := ps.Pool().Stats()
			table["wabi.pool_waits"] += float64(pst.Waits)
			table["wabi.pool_created"] += float64(pst.Created)
			table["wabi.pool_discards"] += float64(pst.Discards)
		}
		table["wasm.fuel_per_schedule"] = ratio(fuel, calls)
		table["wasm.tier_closure_call_share"] = ratio(closure, calls)
		table["sched.zc_dirty_ratio"] = ratio(dirty, records)
		cache := s.cg.Modules.Stats()
		table["wabi.cache_hits"], table["wabi.cache_misses"] = float64(cache.Hits), float64(cache.Misses)
		var slots, overruns float64
		for _, wd := range s.cg.WatchdogStats() {
			slots += float64(wd.Slots)
			overruns += float64(wd.Overruns)
			if worst := us(wd.Worst); worst > table["core.slot_max_us"] {
				table["core.slot_max_us"] = worst
			}
		}
		table["core.deadline_miss_ratio"] = ratio(overruns, slots)
		table["core.watchdog_overruns"] = overruns
		for c := 0; c < s.opts.cells; c++ {
			for _, sl := range s.cg.Cell(c).Slices.Slices() {
				table["slicing.fallback_slots"] += float64(sl.Stats().FallbackSlots)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	baseLat := base.latency()
	table["core.op_p99_us"] = baseLat.P99

	// Arm B: decorators installed, spans recorded.
	rec := newRecorder(w.lanes)
	requests := map[string][]*sched.Request{}
	traced, err := arm(w, seed, variant{rec: rec}, share(d, 0.35), func(sys system) error {
		for name, box := range sys.(*cellSystem).samples {
			requests[name] = box.samples()
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	spans := rec.all()
	att := attribute(spans, false)
	sch := durationsOf(spans, kindSchedule)
	table["sched.schedule_us_p50"] = percentile(sch, 0.50)
	table["sched.schedule_us_p99"] = percentile(sch, 0.99)
	table["sched.schedule_share"] = ratio(att.Share[kindSchedule], att.RootWall)
	table["sched.interslice_us"] = perOpUs(att.Share[kindInterSlice], att.Ops)
	table["core.self_us"] = perOpUs(att.RootSelf, att.Ops)
	table["bench.closure_error"] = att.closureError()
	table["bench.trace_overhead_ratio"] = ratio(base.rate(), traced.rate())
	if err := spansComplete(att, kindSchedule, kindInterSlice); err != nil {
		return nil, nil, err
	}

	// Arm C: registry and slot ring left out prices the instruments.
	bare, err := arm(w, seed, variant{obsOff: true}, share(d, 0.12), nil)
	if err != nil {
		return nil, nil, err
	}
	table["obs.registry_on_ratio"] = ratio(baseLat.P50, bare.latency().P50)

	// Arm D: the same group stepped serially; base is Parallelism = 1.
	table["core.par_speedup"] = 1
	arms := []*phase{traced, bare}
	if shape.cells > 1 && nproc() > 1 {
		serial, err := arm(w, seed, variant{serial: true}, share(d, 0.12), nil)
		if err != nil {
			return nil, nil, err
		}
		table["core.par_speedup"] = ratio(base.rate(), serial.rate())
		arms = append(arms, serial)
	}

	rep, err := replaySched(requests, share(d, 0.10))
	if err != nil {
		return nil, nil, err
	}
	table["wabi.call_us_p50"] = rep.CallP50Us
	table["wasm.ns_per_instr"] = rep.NsPerInstr
	table["wabi.empty_call_us"] = rep.EmptyCallUs
	table["wabi.pool_get_put_us"] = rep.PoolGetPutUs
	table["sched.abi_encode_us"] = rep.EncodeUs
	table["sched.abi_decode_us"] = rep.DecodeUs
	table["sched.sandbox_tax"] = ratio(rep.PluginP50Us, rep.NativeP50Us)
	table["ran.ue_step_ns"] = replayUEStep(seed, shape.uesPerSlice, fig5aLoad, share(d, 0.02))

	if err := writeSpans(spanDir, w.Name, spans, kindSlot, table); err != nil {
		return nil, nil, err
	}
	return table, mergeVerdicts(base, arms...), nil
}

// mergeVerdicts carries every arm's correctness verdict on the first arm's
// phase: a traced run is correct only if all of its arms were.
func mergeVerdicts(first *phase, rest ...*phase) *phase {
	for _, p := range rest {
		first.attempted += p.attempted
		first.failed += p.failed
		if first.failure == "" {
			first.failure = p.failure
		}
	}
	return first
}

// tracedRIC is the traced run of a ric_* workload: baseline arm, decorated
// arm, an arm with the program's own tracer (ric_loop), and the dispatch
// replay.
func tracedRIC(w *workload, seed int64, d time.Duration, spanDir string) (map[string]float64, *phase, error) {
	table := map[string]float64{}
	if err := addStages(table); err != nil {
		return nil, nil, err
	}
	var firehose bool
	base, err := arm(w, seed, variant{}, share(d, 0.30), func(sys system) error {
		s := sys.(*ricSystem)
		firehose = s.opts.firehose
		st := s.r.Stats()
		table["ric.controls_per_indication"] = ratio(float64(st.Controls), float64(st.Indications))
		table["ric.batch_fill"] = ratio(float64(st.Indications), float64(st.BatchFrames))
		for _, x := range s.r.XApps() {
			xs := x.Stats()
			table["ric.xapp_invocations"] += ratio(float64(xs.Invocations), float64(st.Indications))
			table["ric.xapp_faults"] += float64(xs.Faults)
		}
		var frames, bytes float64
		for _, a := range s.assocs {
			up, down := a.agentC.Stats(), a.ricC.Stats()
			frames += float64(up.Sent + down.Sent)
			bytes += float64(up.BytesSent + down.BytesSent)
		}
		table["e2.frames_per_indication"] = ratio(frames, float64(st.Indications))
		table["e2.bytes_per_indication"] = ratio(bytes, float64(st.Indications))
		if ov, on := s.r.OverloadStats(); on {
			table["ric.queue_dispatch_p99_ms"] = ov.DispatchP99Ms
			table["ric.shed_total"] = float64(ov.ShedOverflow + ov.ShedStale + ov.ShedTeardown)
			table["ric.refused_total"] = float64(ov.RefusedLate + ov.BusyAdmission + ov.RefusedSubscriptions)
			table["ric.brownout_transitions"] = float64(ov.BrownoutTransitions)
		}
		cache := s.cg.Modules.Stats()
		rcache := s.r.Modules.Stats()
		table["wabi.cache_hits"] = float64(cache.Hits + rcache.Hits)
		table["wabi.cache_misses"] = float64(cache.Misses + rcache.Misses)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	baseLat := base.latency()
	table["core.op_p99_us"] = baseLat.P99

	rec := newRecorder(w.lanes)
	var inds []*e2.Indication
	var opts ricOpts
	traced, err := arm(w, seed, variant{rec: rec}, share(d, 0.35), func(sys system) error {
		s := sys.(*ricSystem)
		opts = s.opts
		inds = s.samples.samples()
		var writes, frames float64
		for _, a := range s.assocs {
			writes += float64(a.agentRaw.writes.Load() + a.ricRaw.writes.Load())
			frames += float64(a.agentC.Stats().Sent + a.ricC.Stats().Sent)
		}
		table["e2.write_calls_per_frame"] = ratio(writes, frames)
		table["ric.inflight_p50"] = median(s.inflight.samples())
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	spans := rec.all()
	att := attribute(spans, true)
	// On ric_loop operations do not overlap on a lane, so attributed shares
	// are the loop's wall split by layer and must close. On kpm_firehose
	// loops are pipelined; the plain busy time per answered indication is
	// reported instead and no closure is claimed.
	per := func(kind spanKind) float64 {
		if firehose {
			return perOpUs(att.Busy[kind], att.Ops)
		}
		return perOpUs(att.Share[kind], att.Ops)
	}
	table["core.snapshot_us"] = per(kindSnapshot)
	table["core.apply_us"] = per(kindApply)
	table["e2.encode_us"] = per(kindE2Encode)
	table["e2.decode_us"] = per(kindE2Decode)
	table["e2.write_us"] = per(kindE2Write)
	table["ric.dispatch_insitu_us"] = per(kindRICDispatch)
	want := []spanKind{kindSnapshot, kindApply, kindE2Encode, kindE2Decode, kindE2Write}
	if !firehose {
		want = append(want, kindRICDispatch)
	}
	if err := spansComplete(att, want...); err != nil {
		return nil, nil, err
	}
	if !firehose {
		table["e2.wire_us"] = perOpUs(att.RootSelf, att.Ops)
		table["bench.closure_error"] = att.closureError()
	}
	table["bench.trace_overhead_ratio"] = ratio(base.rate(), traced.rate())

	verdict := mergeVerdicts(base, traced)
	if !firehose {
		// The program's own tracer, switched on through public config only.
		tracer := trace.NewTracer(8192)
		withTracer, err := arm(w, seed, variant{tracer: tracer}, share(d, 0.20), nil)
		if err != nil {
			return nil, nil, err
		}
		table["obs.tracer_on_ratio"] = ratio(withTracer.latency().P50, baseLat.P50)
		for _, h := range trace.HopStats(tracer.Snapshot()) {
			if _, ok := findMetric(perLayer, hopMetric(h.Name)); ok {
				table[hopMetric(h.Name)] = h.P50Us
			}
		}
		verdict = mergeVerdicts(verdict, withTracer)
	}

	opts.rec, opts.tracer = nil, nil
	if table["ric.dispatch_us_p50"], err = replayDispatch(opts, inds, share(d, 0.08)); err != nil {
		return nil, nil, err
	}
	table["ran.ue_step_ns"] = replayUEStep(seed, ricUEsPerSlice, ricLoad, share(d, 0.02))
	if err := writeSpans(spanDir, w.Name, spans, kindLoop, table); err != nil {
		return nil, nil, err
	}
	return table, verdict, nil
}
