package ric

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/obs"
	"waran/internal/obs/trace"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/sched"
	"waran/internal/wabi"
)

// CitySimConfig parameterizes the city-scale experiment: one striped cell
// group with aggregate UE populations on the gNB side, a sharded RIC with
// windowed KPM batching on the other, joined by Cells x Sectors live E2
// associations over loopback.
type CitySimConfig struct {
	// Cells is the fleet size (default 256).
	Cells int
	// UEsPerCell is each cell's modeled population (default 4096).
	UEsPerCell int
	// Sectors is the number of E2 associations per cell — one agent per
	// sector, all observing the same cell MAC (default 4, so the default
	// fleet holds 1024 concurrent associations).
	Sectors int
	// Slots is how many MAC slots to run (default 1500).
	Slots int
	// RICShards is the RIC association shard count (default 16).
	RICShards int
	// BatchWindow is the agent-side KPM batching window in report periods
	// (default 8; 0 or 1 disables batching).
	BatchWindow int
	// ReportPeriodMs is the indication cadence (default 20; 1 ms slots).
	ReportPeriodMs uint32
	// ActiveK is each cell fleet's per-slot scheduling window (default 32).
	ActiveK int
	// FlushInterval bounds a partial batch window's dwell (default 30 s —
	// effectively count-driven windows: at city scale one simulated slot
	// can cost tens of wall milliseconds, so a wall deadline sized to the
	// simulated cadence would truncate every window and measure nothing).
	FlushInterval time.Duration
	// Seed selects per-cell population draws (0 behaves as 1).
	Seed int64
	// Pacing is slept after every slot so association goroutines get
	// wall-clock room on saturated boxes (default 50 us).
	Pacing time.Duration
	// SpanCap is each plane's span-ring capacity (default 32768).
	SpanCap int
	// Obs, when non-nil, receives the RIC's instruments (per-shard series
	// included) and the result embeds its snapshot.
	Obs *obs.Registry
}

func (c CitySimConfig) withDefaults() CitySimConfig {
	if c.Cells <= 0 {
		c.Cells = 256
	}
	if c.UEsPerCell <= 0 {
		c.UEsPerCell = 4096
	}
	if c.Sectors <= 0 {
		c.Sectors = 4
	}
	if c.Slots <= 0 {
		c.Slots = 1500
	}
	if c.RICShards <= 0 {
		c.RICShards = 16
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 8
	}
	if c.ReportPeriodMs == 0 {
		c.ReportPeriodMs = 20
	}
	if c.ActiveK <= 0 {
		c.ActiveK = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Pacing <= 0 {
		c.Pacing = 50 * time.Microsecond
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 30 * time.Second
	}
	if c.SpanCap <= 0 {
		c.SpanCap = 1 << 15
	}
	return c
}

// CitySimResult reports the sustained city-scale throughput and the
// tracer-derived control-loop latency.
type CitySimResult struct {
	Cells        int   `json:"cells"`
	UEsPerCell   int   `json:"ues_per_cell"`
	ModeledUEs   int   `json:"modeled_ues"`
	Sectors      int   `json:"sectors"`
	Associations int64 `json:"associations_live"`
	RICShards    int   `json:"ric_shards"`
	BatchWindow  int   `json:"batch_window"`
	Slots        int   `json:"slots"`

	WallMs          float64 `json:"wall_ms"`
	SlotsPerSec     float64 `json:"slots_per_sec"`
	CellSlotsPerSec float64 `json:"cell_slots_per_sec"`

	Indications         uint64  `json:"indications_processed"`
	IndicationsPerSec   float64 `json:"indications_per_sec"`
	BatchFrames         uint64  `json:"batch_frames"`
	IndicationsPerBatch float64 `json:"indications_per_batch"`
	Controls            uint64  `json:"controls_emitted"`
	Refused             uint64  `json:"associations_refused"`

	// ShardSpreadMin/Max are the smallest and largest per-RIC-shard
	// association counts — the hash spreading the fan-in.
	ShardSpreadMin uint64 `json:"shard_assoc_min"`
	ShardSpreadMax uint64 `json:"shard_assoc_max"`

	FleetDeliveredBits int64 `json:"fleet_delivered_bits"`
	FleetDroppedBits   int64 `json:"fleet_dropped_bits"`

	// P99ControlLoopUs is the p99 of complete traced control loops
	// (indication.encode through slot.effect) over CompleteLoops samples.
	// At batch window W it includes up to W report periods of agent-side
	// coalescing dwell by construction — the latency cost batching trades
	// for fan-in throughput.
	P99ControlLoopUs float64 `json:"p99_control_loop_us"`
	// P99RICLoopUs is the p99 of the dwell-free tail of the same loops:
	// RIC-side decode through the slot.effect close — the machinery's own
	// latency at scale.
	P99RICLoopUs  float64 `json:"p99_ric_loop_us"`
	CompleteLoops int     `json:"complete_loops"`
	// Hops is the per-hop latency distribution across all spans retained.
	Hops []trace.HopStat `json:"hops"`

	// Overload is the RIC's shed ledger and brownout accounting.
	Overload OverloadStats `json:"overload"`

	Obs map[string]any `json:"obs,omitempty"`
}

// RunCitySim runs the city-scale experiment: Cells cells each modeling
// UEsPerCell UEs through a ran.UEFleet, stepped by one core.CellGroup over
// GOMAXPROCS stripes; Cells x Sectors E2 agents hold concurrent associations
// to one sharded RIC running the SLA-assurance xApp, coalescing KPM reports
// into batched frames. The result reports sustained slots/sec,
// indications/sec and the tracer-derived p99 control-loop latency.
func RunCitySim(cfg CitySimConfig) (*CitySimResult, error) {
	cfg = cfg.withDefaults()
	tracer := trace.NewTracer(cfg.SpanCap)

	// --- gNB side: the striped cell group --------------------------------
	cg, err := core.NewCellGroup(ran.CellConfig{}, core.CellGroupConfig{Cells: cfg.Cells})
	if err != nil {
		return nil, err
	}
	const (
		iotSlice = 1
		mbbSlice = 2
	)
	for c := 0; c < cfg.Cells; c++ {
		gnb := cg.Cell(c)
		if _, err := gnb.Slices.AddSlice(iotSlice, "iot", 100e6, sched.RoundRobin{}, nil); err != nil {
			return nil, err
		}
		if _, err := gnb.Slices.AddSlice(mbbSlice, "mbb", 100e6, sched.RoundRobin{}, nil); err != nil {
			return nil, err
		}
		uf, err := ran.NewUEFleet(ran.FleetConfig{
			UEs:      cfg.UEsPerCell,
			ActiveK:  cfg.ActiveK,
			SliceIDs: []uint32{iotSlice, mbbSlice},
			Seed:     cfg.Seed + int64(c),
		})
		if err != nil {
			return nil, err
		}
		if err := gnb.AttachFleet(uf); err != nil {
			return nil, err
		}
	}
	// The iot slice runs one pooled Wasm scheduler group-wide (the pool
	// grows to one instance per concurrently stepping stripe); mbb keeps
	// the native fallback so the slot budget carries both kinds of cost.
	if _, err := cg.InstallPooledScheduler(iotSlice, "rr", wabi.Policy{}, cfg.Cells); err != nil {
		return nil, err
	}
	cg.EnableTracing(tracer)

	// --- RIC side: sharded fan-in, KPM store off, batching on ------------
	r, err := New(Config{
		ReportPeriodMs: cfg.ReportPeriodMs,
		Shards:         cfg.RICShards,
		KPMHistory:     NoKPMHistory,
		Tracer:         tracer,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
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
	stop := make(chan struct{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- r.Serve(lis, stop) }()

	// --- associations: Sectors agents per cell ---------------------------
	nAssoc := cfg.Cells * cfg.Sectors
	agents := make([]*Agent, 0, nAssoc)
	conns := make([]*e2.Conn, 0, nAssoc)
	addr := lis.Addr().String()
	batch := BatchConfig{Window: cfg.BatchWindow, FlushInterval: cfg.FlushInterval}
	for c := 0; c < cfg.Cells; c++ {
		for s := 0; s < cfg.Sectors; s++ {
			var agent *Agent
			var conn *e2.Conn
			// The fleet bring-up itself runs through the admission gate: a
			// TypeBusy refusal is honored by
			// sleeping out the retry-after hint, exactly as a supervised
			// agent session would, so the 1024-association dial burst enters
			// as a ramp instead of failing the run.
			for attempt := 0; ; attempt++ {
				raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
				if err != nil {
					return nil, fmt.Errorf("ric: citysim: association %d: %w", len(agents), err)
				}
				conn = e2.NewConn(raw, e2.BinaryCodec{})
				agent, err = NewAgent(conn, cg.Cell(c), AgentConfig{
					Cell:   uint32(c*cfg.Sectors + s),
					Tracer: tracer,
					Batch:  batch,
				})
				if err != nil {
					conn.Close()
					return nil, err
				}
				if _, err = agent.Start(); err == nil {
					break
				}
				conn.Close()
				var busy *e2.BusyError
				if errors.As(err, &busy) && attempt < 60 {
					time.Sleep(busy.RetryAfter)
					continue
				}
				return nil, fmt.Errorf("ric: citysim: association %d: %w", len(agents), err)
			}
			agents = append(agents, agent)
			conns = append(conns, conn)
		}
	}
	defer func() {
		close(stop)
		for _, conn := range conns {
			conn.Close()
		}
		lis.Close()
		<-serveDone
	}()

	// Wait for the subscription handshake to land on every association
	// before measuring.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if live := r.Stats().LiveAssociations; live >= int64(nAssoc) {
			subscribed := 0
			for _, a := range agents {
				if a.Period() > 0 {
					subscribed++
				}
			}
			if subscribed == nAssoc {
				break
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("ric: citysim: only %d/%d associations subscribed in time",
				r.Stats().LiveAssociations, nAssoc)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// --- the measured slot loop ------------------------------------------
	start := time.Now()
	for slot := uint64(0); slot < uint64(cfg.Slots); slot++ {
		cg.StepAll()
		for _, a := range agents {
			_ = a.Tick(slot) // a dead association shows up in live counts
		}
		time.Sleep(cfg.Pacing)
	}
	wall := time.Since(start)

	// Flush partial batch windows, then give in-flight controls a moment.
	for _, a := range agents {
		_ = a.Flush()
	}
	time.Sleep(200 * time.Millisecond)

	// --- results ----------------------------------------------------------
	st := r.Stats()
	res := &CitySimResult{
		Cells:        cfg.Cells,
		UEsPerCell:   cfg.UEsPerCell,
		ModeledUEs:   cfg.Cells * cfg.UEsPerCell,
		Sectors:      cfg.Sectors,
		Associations: st.LiveAssociations,
		RICShards:    cfg.RICShards,
		BatchWindow:  cfg.BatchWindow,
		Slots:        cfg.Slots,

		WallMs:          float64(wall.Milliseconds()),
		SlotsPerSec:     float64(cfg.Slots) / wall.Seconds(),
		CellSlotsPerSec: float64(cfg.Slots) * float64(cfg.Cells) / wall.Seconds(),

		Indications:       st.Indications,
		IndicationsPerSec: float64(st.Indications) / wall.Seconds(),
		BatchFrames:       st.BatchFrames,
		Controls:          st.Controls,
		Refused:           st.RefusedAssociations,
	}
	if st.BatchFrames > 0 {
		res.IndicationsPerBatch = float64(st.Indications) / float64(st.BatchFrames)
	}
	shards := r.ShardStats()
	res.ShardSpreadMin = ^uint64(0)
	for _, sh := range shards {
		if sh.Associations < res.ShardSpreadMin {
			res.ShardSpreadMin = sh.Associations
		}
		if sh.Associations > res.ShardSpreadMax {
			res.ShardSpreadMax = sh.Associations
		}
	}
	for c := 0; c < cfg.Cells; c++ {
		fs := cg.Cell(c).Fleet().Stats()
		res.FleetDeliveredBits += fs.DeliveredBits
		res.FleetDroppedBits += fs.DroppedBits
	}
	res.Overload, _ = r.OverloadStats()
	spans := tracer.Snapshot()
	res.Hops = trace.HopStats(spans)
	res.P99ControlLoopUs, res.P99RICLoopUs, res.CompleteLoops = controlLoopP99(spans)
	if cfg.Obs != nil {
		res.Obs = cfg.Obs.Snapshot()
	}

	if res.Associations < int64(nAssoc) {
		return res, fmt.Errorf("ric: citysim: %d/%d associations alive at the end", res.Associations, nAssoc)
	}
	if res.Indications == 0 || res.Controls == 0 {
		return res, fmt.Errorf("ric: citysim: control loop never closed (ind=%d ctrl=%d)",
			res.Indications, res.Controls)
	}
	if cfg.BatchWindow > 1 && res.BatchFrames == 0 {
		return res, fmt.Errorf("ric: citysim: batching negotiated but no batch frame arrived")
	}
	return res, nil
}

// controlLoopP99 computes the p99 wall time of complete control loops: for
// every trace that retained both its first gNB-side indication.encode span
// and a closing slot.effect span, the full loop latency is last span end
// minus first span start, and the RIC-side loop latency is the same end
// minus the first ric.decode start (excluding agent-side batching dwell).
// Incomplete traces (ring-evicted heads, still-open loops) are excluded
// rather than skewing the tail.
func controlLoopP99(spans []*trace.Span) (fullP99us, ricP99us float64, complete int) {
	type window struct {
		startNs, endNs int64
		decodeNs       int64
		hasEncode      bool
		hasDecode      bool
		hasEffect      bool
	}
	byTrace := make(map[uint64]*window)
	for _, sp := range spans {
		w := byTrace[sp.TraceID]
		if w == nil {
			w = &window{startNs: sp.StartNs, endNs: sp.StartNs + sp.DurNs}
			byTrace[sp.TraceID] = w
		}
		if sp.StartNs < w.startNs {
			w.startNs = sp.StartNs
		}
		if end := sp.StartNs + sp.DurNs; end > w.endNs {
			w.endNs = end
		}
		switch sp.Name {
		case trace.SpanIndicationEncode:
			w.hasEncode = true
		case trace.SpanRICDecode:
			if !w.hasDecode || sp.StartNs < w.decodeNs {
				w.decodeNs = sp.StartNs
			}
			w.hasDecode = true
		case trace.SpanSlotEffect:
			w.hasEffect = true
		}
	}
	var full, ricSide []float64
	for _, w := range byTrace {
		if !w.hasEncode || !w.hasEffect {
			continue
		}
		full = append(full, float64(w.endNs-w.startNs)/1e3)
		if w.hasDecode {
			ricSide = append(ricSide, float64(w.endNs-w.decodeNs)/1e3)
		}
	}
	if len(full) == 0 {
		return 0, 0, 0
	}
	p99 := func(v []float64) float64 {
		sort.Float64s(v)
		return v[int(0.99*float64(len(v)-1))]
	}
	fullP99us = p99(full)
	if len(ricSide) > 0 {
		ricP99us = p99(ricSide)
	}
	return fullP99us, ricP99us, len(full)
}
