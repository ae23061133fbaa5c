package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/obs/trace"
	"waran/internal/ric"
	"waran/internal/sched"
)

// smokeSeconds is long enough for every workload to complete operations in
// every segment, short enough to ride in `go test ./...`.
const smokeSeconds = 200 * time.Millisecond

// TestWorkloadsSmoke runs every workload's untraced run for ~200 ms with the
// correctness checks only: no timing is asserted.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			out, err := runEndToEnd(w, 7, smokeSeconds)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %s", out.Correct, out.Attempted, out.Failed, out.Reason)
			}
			for _, def := range endToEnd {
				if v, ok := out.Metrics[def.Name]; !ok || v <= 0 || math.IsNaN(v) {
					t.Errorf("%s = %v, want a positive number", def.Name, v)
				}
			}
		})
	}
}

// TestTracedSmoke runs every workload's traced run briefly: every declared
// per-layer metric is produced, nothing undeclared is, and the per-layer
// table closes on the workloads that claim closure.
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs build each workload four times")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			out, err := runTraced(w, 7, 10*smokeSeconds, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 {
				t.Fatalf("correct=%v failed=%d: %s", out.Correct, out.Failed, out.Reason)
			}
			if len(out.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, %d declared", len(out.Metrics), len(perLayer))
			}
			if e := out.Metrics["bench.closure_error"]; e > 0.10 {
				t.Errorf("closure error %.3f", e)
			}
			if out.Metrics["bench.trace_overhead_ratio"] <= 0 {
				t.Error("no trace overhead ratio")
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty set must read 0")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
	if q1, _, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("single value: %v %v", q1, q3)
	}
}

// TestSegmentMedian: one wild segment moves neither the median nor the p99
// the phase reports.
func TestSegmentMedian(t *testing.T) {
	var samples []float64
	var bounds []int
	for seg := 0; seg < 5; seg++ {
		bounds = append(bounds, len(samples))
		for i := 0; i < 100; i++ {
			v := 10.0
			if seg == 2 {
				v = 1000
			}
			samples = append(samples, v)
		}
	}
	st := summariseSegments(samples, bounds)
	if st.P50 != 10 || st.P99 != 10 || st.Samples != 500 {
		t.Errorf("got %+v", st)
	}
}

func TestPhaseRateAndMerge(t *testing.T) {
	mk := func(ops float64) *phase {
		p := newPhase(2)
		p.bounds = []int{0, 1}
		p.samples = []float64{ops, 2 * ops}
		p.segOps = []float64{ops, ops}
		p.segWall = []time.Duration{time.Second, time.Second}
		p.attempted = uint64(2 * ops)
		return p
	}
	cut := mk(50) // a driver that failed in its second segment
	cut.segWall, cut.failed, cut.failure = cut.segWall[:1], 1, "association ended"
	if m := mergePhases([]*phase{mk(10), cut}); m.failed != 1 || m.segOps[0] != 60 || m.segOps[1] != 10 {
		t.Errorf("short phase: failed %d segOps %v", m.failed, m.segOps)
	}
	m := mergePhases([]*phase{mk(10), mk(30)})
	if m.rate() != 40 || m.ops() != 80 || m.attempted != 80 {
		t.Errorf("rate %v ops %v attempted %v", m.rate(), m.ops(), m.attempted)
	}
	if !reflect.DeepEqual(m.samples, []float64{10, 30, 20, 60}) || !reflect.DeepEqual(m.bounds, []int{0, 2}) {
		t.Errorf("samples %v bounds %v", m.samples, m.bounds)
	}
}

// TestSpanSelfTime covers the three shapes the tables are built from:
// children in series, children that overlap, and a child leaking past its
// root.
func TestSpanSelfTime(t *testing.T) {
	root := span{Op: 1, Kind: kindSlot, Start: 0, End: 100}
	series := attribute([]span{root,
		{Op: 1, Kind: kindInterSlice, Start: 10, End: 20},
		{Op: 1, Kind: kindSchedule, Start: 20, End: 60},
	}, false)
	if series.RootSelf != 50 || series.Share[kindInterSlice] != 10 || series.Share[kindSchedule] != 40 {
		t.Errorf("series: %+v", series)
	}
	overlap := attribute([]span{root,
		{Op: 1, Lane: 0, Kind: kindSchedule, Start: 0, End: 60},
		{Op: 1, Lane: 1, Kind: kindSchedule, Start: 40, End: 100},
		{Op: 1, Lane: 1, Kind: kindInterSlice, Start: 40, End: 60},
	}, false)
	// [40,60) is shared three ways; the rest belongs to one schedule span.
	wantSched := 40 + 40 + 2*20.0/3
	if overlap.RootSelf != 0 || math.Abs(overlap.Share[kindSchedule]-wantSched) > 1e-9 || overlap.Busy[kindSchedule] != 120 {
		t.Errorf("overlap: %+v", overlap)
	}
	leak := attribute([]span{root,
		{Op: 1, Kind: kindSchedule, Start: 90, End: 150},
		{Op: 1, Kind: kindSchedule, Start: 200, End: 300},
	}, false)
	if leak.RootSelf != 90 || leak.Share[kindSchedule] != 10 || leak.Count[kindSchedule] != 1 {
		t.Errorf("leak: %+v", leak)
	}
	for name, a := range map[string]attribution{"series": series, "overlap": overlap, "leak": leak} {
		if e := a.closureError(); e > 1e-9 {
			t.Errorf("%s: closure error %v", name, e)
		}
	}
	// Loops group by lane: the same op number on two lanes is two operations.
	loops := attribute([]span{
		{Op: 1, Lane: 0, Kind: kindLoop, Start: 0, End: 10},
		{Op: 1, Lane: 1, Kind: kindLoop, Start: 0, End: 30},
		{Op: 1, Lane: 1, Kind: kindApply, Start: 5, End: 10},
	}, true)
	if loops.Ops != 2 || loops.RootWall != 40 || loops.RootSelf != 35 {
		t.Errorf("loops: %+v", loops)
	}
}

// TestClosureCheckFails: a table that does not account for the operation
// wall is refused, as is a span set with a layer missing.
func TestClosureCheckFails(t *testing.T) {
	a := attribution{Ops: 10, RootWall: 1000, RootSelf: 100}
	a.Share[kindSchedule] = 500
	if e := a.closureError(); e < 0.39 || e > 0.41 {
		t.Errorf("closure error %v, want 0.4", e)
	}
	a.Count[kindSchedule] = 10
	a.Count[kindInterSlice] = 9
	if miss := a.missing(kindSchedule, kindInterSlice); !reflect.DeepEqual(miss, []string{"sched.interslice"}) {
		t.Errorf("missing = %v", miss)
	}
	if err := spansComplete(a, kindSchedule, kindInterSlice); err == nil {
		t.Error("a table without its inter-slice spans was accepted")
	}
}

// TestRecorderStopsEverywhereWhenFull: once one lane fills, no lane records,
// so every traced operation has all of its spans or none.
func TestRecorderStopsEverywhereWhenFull(t *testing.T) {
	rec := newRecorder(2)
	rec.lanes[1].add(kindApply, 0, 1)
	for i := 0; i < maxSpansPerLane; i++ {
		rec.lanes[0].add(kindApply, 0, 1)
	}
	rec.lanes[0].add(kindApply, 0, 1)
	rec.lanes[1].add(kindApply, 0, 1)
	if n := len(rec.all()); n != maxSpansPerLane+1 {
		t.Errorf("%d spans kept, want %d", n, maxSpansPerLane+1)
	}
}

func TestCompareRule(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	noisy := []float64{100, 140, 70, 100, 150, 60, 100, 130, 80, 100}
	cases := []struct {
		name     string
		def      metricDef
		old, new []float64
		want     string
	}{
		{"faster wins every pair", lower, base, shift(base, 0.8), verdictGain},
		{"throughput gain", higher, base, shift(base, 1.3), verdictGain},
		{"slower past the bound", lower, base, shift(base, 1.2), verdictRegression},
		{"throughput loss past the bound", higher, base, shift(base, 0.8), verdictRegression},
		{"within the bound", lower, base, shift(base, 1.05), verdictUnchanged},
		{"same numbers", lower, base, base, verdictUnchanged},
		{"old too noisy to call", lower, noisy, shift(noisy, 1.02), verdictUnresolved},
		{"noisy, every new run beats every old run, gap over old's quartile spread", lower, noisy, shift(base, 0.3), verdictGain},
		{"noisy, every new run beats every old run, gap inside it: resolved, no regression", lower, noisy, shift(base, 0.5), verdictUnchanged},
		{"better but inside old's quartile spread", lower, noisy, shift(noisy, 0.97), verdictUnresolved},
	}
	for _, c := range cases {
		if got := compareMetric(c.def, c.old, c.new); got.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
	if got := compareMetric(lower, base[:5], shift(base[:5], 0.8)); got.Verdict != verdictUnchanged {
		t.Errorf("five pairs may not claim a gain: %q", got.Verdict)
	}
	tie := compareMetric(lower, []float64{1, 2, 3}, []float64{1, 2, 2})
	if tie.Wins != 1 || tie.Losses != 0 || tie.Pairs != 3 {
		t.Errorf("ties must count for neither side: %+v", tie)
	}
}

// TestCompareRunsFailureShare: a gain bought with failed operations is a
// regression.
func TestCompareRunsFailureShare(t *testing.T) {
	mk := func(v float64, failed uint64) []runRecord {
		var out []runRecord
		for i := 0; i < 10; i++ {
			m := map[string]metricValue{}
			for _, d := range endToEnd {
				m[d.Name] = metricValue{Value: v + float64(i%3), Unit: d.Unit}
			}
			out = append(out, runRecord{Workload: "cell_dense", resultLine: resultLine{Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: m}})
		}
		return out
	}
	verdictOf := func(cs []comparison, metric string) string {
		for _, c := range cs {
			if c.Metric == metric {
				return c.Verdict
			}
		}
		return ""
	}
	if v := verdictOf(compareRuns(mk(100, 0), mk(50, 0)), "op_p50_us"); v != verdictGain {
		t.Errorf("clean halving: %q", v)
	}
	if v := verdictOf(compareRuns(mk(100, 0), mk(50, 5)), "op_p50_us"); v != verdictRegression {
		t.Errorf("halving with failures: %q", v)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps the declared contract and the code
// that produces the metrics in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness default %d", decl.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the catalogue")
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d built", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %q, code %q", i, decl.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if _, ok := findMetric(endToEnd, "setup_s"); !ok {
		t.Error("setup_s missing")
	}
}

// TestCodecDecoratorKeepsAppendEncoder: the decorator offers AppendEncode
// exactly when the wrapped codec does, so e2.Conn.Send takes the same branch
// traced and untraced.
func TestCodecDecoratorKeepsAppendEncoder(t *testing.T) {
	rec := newRecorder(1)
	probe := &codecProbe{lane: rec.lanes[0]}
	fast := traceCodec(e2.BinaryCodec{}, probe)
	app, ok := fast.(e2.AppendEncoder)
	if !ok {
		t.Fatal("decorated BinaryCodec lost AppendEncoder")
	}
	if _, ok := traceCodec(e2.JSONCodec{}, probe).(e2.AppendEncoder); ok {
		t.Fatal("decorated JSONCodec gained AppendEncoder")
	}
	msg := &e2.Message{Type: e2.TypeHeartbeat}
	want, err := e2.BinaryCodec{}.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := app.AppendEncode([]byte{0xAA}, msg)
	if err != nil || !reflect.DeepEqual(got, append([]byte{0xAA}, want...)) {
		t.Fatalf("AppendEncode = %x, %v", got, err)
	}
	if m, err := fast.Decode(want); err != nil || m.Type != e2.TypeHeartbeat {
		t.Fatalf("Decode = %+v, %v", m, err)
	}
	if att := rec.all(); len(att) != 2 || att[0].Kind != kindE2Encode || att[1].Kind != kindE2Decode {
		t.Errorf("spans %+v", att)
	}
}

// fakeRAN records which entry point a control arrived through.
type fakeRAN struct {
	applied, traced int
	fail            bool
}

func (f *fakeRAN) Snapshot(cell uint32) *e2.Indication { return &e2.Indication{Cell: cell} }
func (f *fakeRAN) Apply(*e2.ControlRequest) error {
	f.applied++
	if f.fail {
		return errors.New("refused")
	}
	return nil
}

type fakeTracedRAN struct{ fakeRAN }

func (f *fakeTracedRAN) ApplyTraced(*e2.ControlRequest, trace.Context) error {
	f.traced++
	return nil
}

// TestProbeForwardsApplyTraced: a traced control reaches the target's own
// ApplyTraced through the probe, and falls back to Apply when the target has
// none, which is what the agent would have done without the probe.
func TestProbeForwardsApplyTraced(t *testing.T) {
	ctx := trace.NewContext()
	full := &fakeTracedRAN{}
	p := &ranProbe{inner: full, expected: 1}
	p.Snapshot(1)
	if err := p.ApplyTraced(&e2.ControlRequest{}, ctx); err != nil {
		t.Fatal(err)
	}
	if full.traced != 1 || full.applied != 0 {
		t.Errorf("traced target: traced=%d applied=%d", full.traced, full.applied)
	}
	plain := &fakeRAN{}
	p = &ranProbe{inner: plain, expected: 1}
	p.Snapshot(1)
	if err := p.ApplyTraced(&e2.ControlRequest{}, ctx); err != nil {
		t.Fatal(err)
	}
	if plain.applied != 1 {
		t.Errorf("plain target: applied=%d", plain.applied)
	}
	var gnb ric.RANControl = &core.GNB{}
	if _, ok := gnb.(ric.TracedRANControl); !ok {
		t.Fatal("core.GNB no longer implements ric.TracedRANControl; the probe's forwarding is untested against the real target")
	}
}

// TestProbeCountsLoops: the probe answers an indication on its last expected
// control, in order, and counts failed applies.
func TestProbeCountsLoops(t *testing.T) {
	rec := newRecorder(1)
	var latencies []time.Duration
	ran := &fakeRAN{}
	p := &ranProbe{inner: ran, expected: 3, lane: rec.lanes[0], onAnswer: func(d time.Duration) { latencies = append(latencies, d) }}
	p.Snapshot(1)
	p.Snapshot(1)
	for i := 0; i < 5; i++ {
		_ = p.Apply(&e2.ControlRequest{})
	}
	if answered, failures, pending := p.counts(); answered != 1 || failures != 0 || pending != 1 {
		t.Errorf("after 5 applies: answered=%d failures=%d pending=%d", answered, failures, pending)
	}
	ran.fail = true
	_ = p.Apply(&e2.ControlRequest{})
	if answered, failures, pending := p.counts(); answered != 2 || failures != 1 || pending != 0 || len(latencies) != 2 {
		t.Errorf("after 6 applies: answered=%d failures=%d pending=%d latencies=%d", answered, failures, pending, len(latencies))
	}
	att := attribute(rec.all(), true)
	if att.Ops != 2 || att.Count[kindApply] == 0 || att.Count[kindSnapshot] == 0 {
		t.Errorf("spans: %+v", att)
	}
}

// The tests below make each correctness oracle fail.

func slotWith(slices map[uint32]core.SliceSlot) core.SlotResult {
	return core.SlotResult{PerSlice: slices}
}

func TestSlotOracleFails(t *testing.T) {
	ok := slotWith(map[uint32]core.SliceSlot{1: {BudgetPRBs: 10, GrantedPRBs: 10}, 2: {BudgetPRBs: 20, GrantedPRBs: 5}, 3: {BudgetPRBs: 22}})
	if why := checkSlot(ok, 52); why != "" {
		t.Fatalf("clean slot refused: %s", why)
	}
	bad := map[string]core.SlotResult{
		"over the cell": slotWith(map[uint32]core.SliceSlot{1: {BudgetPRBs: 30, GrantedPRBs: 30}, 2: {BudgetPRBs: 30, GrantedPRBs: 23}, 3: {}}),
		"over budget":   slotWith(map[uint32]core.SliceSlot{1: {BudgetPRBs: 10, GrantedPRBs: 11}, 2: {}, 3: {}}),
		"fallback":      slotWith(map[uint32]core.SliceSlot{1: {BudgetPRBs: 10, GrantedPRBs: 10, UsedFallback: true}, 2: {}, 3: {}}),
		"slice missing": slotWith(map[uint32]core.SliceSlot{1: {BudgetPRBs: 10, GrantedPRBs: 10}}),
	}
	for name, r := range bad {
		if checkSlot(r, 52) == "" {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReplayOracleFails(t *testing.T) {
	req := &sched.Request{SliceID: 1, Slot: 9, PRBBudget: 20, UEs: []sched.UEInfo{
		{ID: 1, MCS: 10, BitsPerPRB: 200, BufferBytes: 90000, AvgTputBps: 5e6},
		{ID: 2, MCS: 28, BitsPerPRB: 800, BufferBytes: 90000, AvgTputBps: 1e6},
		{ID: 3, MCS: 20, BitsPerPRB: 500, BufferBytes: 90000, AvgTputBps: 9e6},
	}}
	for _, name := range []string{"mt", "rr", "pf"} {
		if err := checkReplay(name, []*sched.Request{req}); err != nil {
			t.Errorf("%s: plugin and native disagree: %v", name, err)
		}
	}
	mt, _ := sched.ByName("mt")
	rr, _ := sched.ByName("rr")
	if err := sameDecisions(mt, rr, []*sched.Request{req}); err == nil {
		t.Error("max-throughput and round-robin decisions compared equal")
	}
}

func TestLedgerOracleFails(t *testing.T) {
	if err := checkLedger(ric.OverloadStats{Offered: 100, Delivered: 100}, 100); err != nil {
		t.Fatalf("clean ledger refused: %v", err)
	}
	bad := map[string]ric.OverloadStats{
		"leak":        {Offered: 100, Delivered: 99},
		"shed":        {Offered: 100, Delivered: 99, ShedOverflow: 1},
		"refused":     {Offered: 100, Delivered: 99, RefusedLate: 1},
		"lost on way": {Offered: 99, Delivered: 99},
		"brownout":    {Offered: 100, Delivered: 100, BrownoutTransitions: 1},
	}
	for name, ov := range bad {
		if checkLedger(ov, 100) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRICOracleFails breaks a live ric_loop system three ways: an indication
// the agent never sent, a control the RAN refuses, and an answer that never
// arrives.
func TestRICOracleFails(t *testing.T) {
	build := func(t *testing.T) *ricSystem {
		s, err := buildRIC(3, ricOpts{cells: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.close)
		if err := s.firstOp(); err != nil {
			t.Fatal(err)
		}
		if err := s.verify(); err != nil {
			t.Fatalf("clean system refused: %v", err)
		}
		return s
	}
	t.Run("count mismatch", func(t *testing.T) {
		s := build(t)
		s.assocs[0].sent++
		if s.verify() == nil {
			t.Error("accepted an indication that was never sent")
		}
	})
	t.Run("failed control", func(t *testing.T) {
		s := build(t)
		if err := s.assocs[0].probe.Apply(&e2.ControlRequest{Action: e2.ActionSetSliceWeight, SliceID: 99, Value: 1}); err == nil {
			t.Fatal("control for an unknown slice applied")
		}
		if s.verify() == nil {
			t.Error("accepted a failed control")
		}
	})
	t.Run("unanswered", func(t *testing.T) {
		s := build(t)
		s.assocs[0].probe.Snapshot(1)
		if s.verify() == nil {
			t.Error("accepted a pending indication")
		}
	})
}

// TestCellOracleFails: a scheduler fault shows up in verify.
func TestCellOracleFails(t *testing.T) {
	s, err := buildCells(3, cellOpts{cells: 1, uesPerSlice: 3, par: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.firstOp(); err != nil {
		t.Fatal(err)
	}
	if err := s.verify(); err != nil {
		t.Fatalf("clean system refused: %v", err)
	}
	// A request for a UE list the plugin's memory cannot hold faults it.
	huge := &sched.Request{SliceID: 1, PRBBudget: 10, UEs: make([]sched.UEInfo, 1<<20)}
	if _, err := s.pools[0].Schedule(huge); err == nil {
		t.Skip("oversized request did not fault the plugin")
	}
	if s.verify() == nil {
		t.Error("accepted a faulted scheduler")
	}
}
