package exp

import (
	"fmt"
	"net"
	"sync"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/obs"
	"waran/internal/obs/trace"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/ric"
	"waran/internal/sched"
	"waran/internal/wabi"
	"waran/internal/wasm"
)

// TraceLatConfig parameterizes the control-loop tracing experiment: a
// multi-cell gNB group and a live RIC joined over loopback, both ends
// tracing every association, plus the wasm fuel profiler
// attached to both sched plugins and xApps.
type TraceLatConfig struct {
	// Cells is the gNB group size (default 4).
	Cells int
	// Slots is how many MAC slots to run before the settle phase
	// (default 1200).
	Slots int
	// ReportPeriodMs is the indication cadence (default 10; 1 ms slots).
	ReportPeriodMs uint32
	// Seed selects the jitter schedules (0 behaves as 1).
	Seed int64
	// Pacing is slept after every slot so the live associations get
	// wall-clock room (default 200 us).
	Pacing time.Duration
	// SpanCap is each plane's span-ring capacity (default 8192).
	SpanCap int
	// Obs, when non-nil, receives the RIC's and the cell group's
	// instruments, and the result embeds its snapshot.
	Obs *obs.Registry
}

func (c TraceLatConfig) withDefaults() TraceLatConfig {
	if c.Cells <= 0 {
		c.Cells = 4
	}
	if c.Slots <= 0 {
		c.Slots = 1200
	}
	if c.ReportPeriodMs == 0 {
		c.ReportPeriodMs = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Pacing <= 0 {
		c.Pacing = 200 * time.Microsecond
	}
	if c.SpanCap <= 0 {
		c.SpanCap = 8192
	}
	return c
}

// TraceLatResult reports the experiment outcome: the per-hop latency
// distribution of the control loop and the hottest plugin functions by fuel.
type TraceLatResult struct {
	Cells int `json:"cells"`
	Slots int `json:"slots"`
	// Spans is how many spans the tracer retained across both planes.
	Spans int `json:"spans"`

	Indications  uint64 `json:"indications_sent"`
	ControlsOK   uint64 `json:"controls_applied"`
	ControlsFail uint64 `json:"controls_failed"`

	// DistinctHopKinds counts span names seen anywhere; MaxTraceHopKinds is
	// the deepest single decision — the experiment fails below 7 (a full
	// indication → control → apply → effect loop).
	DistinctHopKinds int `json:"distinct_hop_kinds"`
	MaxTraceHopKinds int `json:"max_trace_hop_kinds"`
	// SwapInjected reports whether the mid-run scheduler swap joined a live
	// trace (adding swap.canary as the 8th hop kind).
	SwapInjected bool `json:"swap_injected"`

	// Hops is the per-hop latency distribution (p50/p99/max) in canonical
	// span order.
	Hops []trace.HopStat `json:"hops"`
	// TopFunctions is the top-10 plugin functions by self fuel, across
	// sched plugins and xApps (tags disambiguate).
	TopFunctions []wasm.FuncProfile `json:"top_functions"`

	Obs map[string]any `json:"obs,omitempty"`
}

// RunTraceLat runs the end-to-end control-loop tracing experiment: Cells
// gNB cells with a supervised, profiled scheduler plugin each hold one
// traced association to a RIC running the SLA-assurance xApp. The slice
// target is set far above the offered load, so the xApp emits controls every
// report period and each one's full causal chain — indication.encode,
// transport, ric.decode, xapp.invoke, control.encode, transport, gnb.apply,
// slot.effect — lands in the span rings. Mid-run a scheduler swap is
// injected parented to the latest decision, adding swap.canary to the tree.
func RunTraceLat(cfg TraceLatConfig) (*TraceLatResult, error) {
	cfg = cfg.withDefaults()

	profile := wasm.NewProfile()
	tracer := trace.NewTracer(cfg.SpanCap)

	// The gNB side: Cells cells, one tenant slice each, supervised pooled
	// round-robin plugin, profiler attached through the group env. The SLA
	// target is deliberately unreachable so the xApp never goes quiet.
	cg, err := core.NewCellGroup(ran.CellConfig{}, core.CellGroupConfig{
		Cells: cfg.Cells, Parallelism: cfg.Cells,
	})
	if err != nil {
		return nil, err
	}
	const sliceID = 1
	for c := 0; c < cfg.Cells; c++ {
		gnb := cg.Cell(c)
		if _, err := gnb.Slices.AddSlice(sliceID, "tenant", 100e6, sched.RoundRobin{}, nil); err != nil {
			return nil, err
		}
		for k := 0; k < 2; k++ {
			ue := ran.NewUE(uint32(1+k), sliceID, 20+2*k)
			ue.Traffic = ran.NewCBR(3e6)
			if err := gnb.AttachUE(ue); err != nil {
				return nil, err
			}
		}
	}
	cg.PluginEnv = wabi.Env{Profile: profile}
	if _, err := cg.InstallPooledScheduler(sliceID, "rr", wabi.Policy{}, cfg.Cells); err != nil {
		return nil, err
	}
	cg.EnableTracing(tracer)
	if cfg.Obs != nil {
		cg.EnableObservability(cfg.Obs, nil)
	}

	// The RIC side: tracer + shared profiler, SLA xApp.
	r, err := ric.New(ric.Config{
		ReportPeriodMs: cfg.ReportPeriodMs,
		Tracer:         tracer,
		Profile:        profile,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		// The cell group registered its module cache already; the plane
		// label keeps the RIC's series distinct.
		r.Register(cfg.Obs, obs.L("plane", trace.PlaneRIC))
	}
	if _, err := r.AddXAppWAT("sla", plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
		return nil, err
	}

	lis, err := e2.Listen("127.0.0.1:0", e2.BinaryCodec{})
	if err != nil {
		return nil, err
	}
	defer lis.Close()

	// One ServeConn goroutine per accepted association (one per cell); the
	// conns are retained so the swap injection can ride an existing
	// traced association.
	stop := make(chan struct{})
	var mu sync.Mutex
	var conns []*e2.Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = r.ServeConn(conn, stop)
				conn.Close()
			}()
		}
	}()

	addr := lis.Addr().String()
	dial := func() (*e2.Conn, error) {
		raw, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, err
		}
		return e2.NewConn(raw, e2.BinaryCodec{}), nil
	}
	sessions := make([]*ric.AgentSession, cfg.Cells)
	for i := range sessions {
		sessions[i], err = ric.NewAgentSession(ric.AgentSessionConfig{
			Dial:    dial,
			RAN:     cg.Cell(i),
			Agent:   ric.AgentConfig{Cell: uint32(i), Tracer: tracer},
			Backoff: ric.Backoff{Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond},
			Seed:    cfg.Seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		sessions[i].Start()
	}

	step := func(slot uint64) {
		cg.StepAll()
		for _, s := range sessions {
			s.Tick(slot)
		}
		time.Sleep(cfg.Pacing)
	}

	res := &TraceLatResult{Cells: cfg.Cells, Slots: cfg.Slots}

	// Main phase, with the swap injected once past the midpoint (as soon as
	// a traced decision exists to parent it to): an operator-style
	// swap-scheduler control that goes through the supervisor's shadow
	// validation on a supervised slice — the swap.canary hop.
	slot := uint64(0)
	for ; slot < uint64(cfg.Slots); slot++ {
		step(slot)
		if !res.SwapInjected && slot >= uint64(cfg.Slots/2) {
			parent := r.LastIndicationTrace()
			mu.Lock()
			var conn *e2.Conn
			if len(conns) > 0 {
				conn = conns[0]
			}
			mu.Unlock()
			if parent.Valid() && conn != nil {
				ctrl := []e2.ControlRequest{{Action: e2.ActionSwapScheduler, SliceID: sliceID, Text: "pf"}}
				if err := r.SendControl(conn, 9000, ctrl, parent); err == nil {
					res.SwapInjected = true
				}
			}
		}
	}

	// Settle phase: keep the loop alive (bounded) until the deepest trace
	// shows the full hop chain, so the claim below is measured on a
	// completed decision rather than a half-landed one.
	want := 7
	if res.SwapInjected {
		want = 8
	}
	extra := uint64(cfg.Slots) * 4
	for i := uint64(0); i < extra; i++ {
		if i%50 == 0 && trace.MaxTraceHopKinds(tracer.Snapshot()) >= want {
			break
		}
		step(slot)
		slot++
	}

	for _, s := range sessions {
		s.Stop()
	}
	close(stop)
	lis.Close() // unblock Accept
	wg.Wait()

	for _, s := range sessions {
		ind, ok, fail, _ := s.Counters()
		res.Indications += ind
		res.ControlsOK += ok
		res.ControlsFail += fail
	}
	spans := tracer.Snapshot()
	res.Spans = len(spans)
	res.Hops = trace.HopStats(spans)
	res.DistinctHopKinds = trace.DistinctHopKinds(spans)
	res.MaxTraceHopKinds = trace.MaxTraceHopKinds(spans)
	res.TopFunctions = profile.Top(10)
	if cfg.Obs != nil {
		res.Obs = cfg.Obs.Snapshot()
	}
	if res.MaxTraceHopKinds < 7 {
		return res, fmt.Errorf("exp: tracelat: deepest trace has %d hop kinds, want >= 7", res.MaxTraceHopKinds)
	}
	return res, nil
}
