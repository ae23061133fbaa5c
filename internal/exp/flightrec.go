package exp

// The flight-recorder experiment (waranbench -fig flightrec): replay a
// seeded overload + plugin-fault storm against a flight-armed RIC and
// verify the three promises DESIGN.md §18 makes:
//
//  1. causal chain — the anomaly-triggered diagnostic bundles collectively
//     contain the storm's full causal chain as journal events: the brownout
//     shift, the shed ledger entries around it, and the slow xApp's breaker
//     trip, in seq order;
//  2. trigger pipeline — at least one bundle was captured by an anomaly
//     trigger (not the final sweep), proving detectors and trigger classes
//     actually page the capturer;
//  3. idle path — a recorder attached to a clean slot loop journals only
//     on the rare edge: exactly one event per watchdog overrun (none on a
//     quiet box). The wall-clock cost of the attached recorder is reported
//     as overhead_pct, not asserted: it is a ratio of two short timed loops
//     and scheduler noise alone moves it by tens of percent.

import (
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/guard"
	"waran/internal/obs"
	"waran/internal/obs/flight"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/ric"
	"waran/internal/sched"
	"waran/internal/wabi"
)

// FlightRecConfig parameterizes the flight-recorder experiment.
type FlightRecConfig struct {
	// Agents is the reporting fleet size (default 16).
	Agents int
	// QueueDepth bounds each association's indication queue (default 4 —
	// deliberately shallow so the stall overflows into the shed ledger
	// within milliseconds).
	QueueDepth int
	// StallIters is the slow xApps' spin length per dispatch (default
	// 400_000).
	StallIters int
	// Dwell is the storm window (default 1.5 s).
	Dwell time.Duration
	// Pacing is the simulated slot interval (default 1 ms).
	Pacing time.Duration
	// OverheadSlots sizes the journal-overhead measurement loops (default
	// 2000 slots per arm).
	OverheadSlots int
	// Seed selects the (deterministic) storm schedule (default 1).
	Seed int64
	// Dir is where diagnostic bundles land (empty = temp dir).
	Dir string
	// Obs, when non-nil, receives the RIC's and recorder's instruments and
	// the result embeds its snapshot.
	Obs *obs.Registry
}

func (c FlightRecConfig) withDefaults() FlightRecConfig {
	if c.Agents <= 0 {
		c.Agents = 16
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4
	}
	if c.StallIters <= 0 {
		c.StallIters = 400_000
	}
	if c.Dwell <= 0 {
		c.Dwell = 1500 * time.Millisecond
	}
	if c.Pacing <= 0 {
		c.Pacing = time.Millisecond
	}
	if c.OverheadSlots <= 0 {
		c.OverheadSlots = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// FlightRecResult is the flight-recorder experiment's report.
type FlightRecResult struct {
	Agents int `json:"agents"`

	// Flight is the journal digest: per-class event counts, the on-disk
	// bundle index, and coverage of the causal-chain classes across them.
	Flight *flight.Summary `json:"flight"`
	// Detectors is the final state of every SLO burn-rate detector.
	Detectors []flight.DetectorState `json:"detectors"`

	// CausalChain reports that the captured bundles collectively contain
	// the storm's causal chain — brownout shift, shed entries, breaker
	// open — as journal events.
	CausalChain bool `json:"causal_chain"`
	// TriggeredBundles counts bundles captured by an anomaly trigger
	// (reason "class:..."), as opposed to the final sweep.
	TriggeredBundles int `json:"triggered_bundles"`
	// DetectorFires counts slo.detector_fire events in the journal.
	DetectorFires uint64 `json:"detector_fires"`

	// Ledger is the RIC's quiescent overload snapshot; LedgerConserved is
	// the exact conservation check on it.
	Ledger          ric.OverloadStats `json:"ledger"`
	LedgerConserved bool              `json:"ledger_conserved"`

	// BaselineNsPerSlot / FlightNsPerSlot time a clean single-cell slot
	// loop without and with an attached (idle) recorder; OverheadPct is
	// the relative difference, reported for the reader and not bounded.
	BaselineNsPerSlot float64 `json:"baseline_ns_per_slot"`
	FlightNsPerSlot   float64 `json:"flight_ns_per_slot"`
	OverheadPct       float64 `json:"overhead_pct"`

	Obs map[string]any `json:"obs,omitempty"`
}

// flightrecChain is the causal chain the storm must leave in the bundles.
var flightrecChain = []flight.Class{flight.EvBrownoutShift, flight.EvShed, flight.EvBreakerOpen}

// RunFlightRec runs the flight-recorder experiment. A non-nil error flags a
// hard invariant violation (no causal chain in the bundles, ledger
// imbalance, an idle recorder journaling on clean slots); the partial result
// is still returned for inspection.
func RunFlightRec(cfg FlightRecConfig) (*FlightRecResult, error) {
	cfg = cfg.withDefaults()
	res := &FlightRecResult{Agents: cfg.Agents}

	rec := flight.NewRecorder(4096)
	if cfg.Obs != nil {
		rec.Register(cfg.Obs)
	}

	// The storm RIC: shallow queues so the saturated dispatch overflows
	// into the shed ledger, a low-sample breaker so the stuck xApp trips on
	// its second fault (backoff past the dwell keeps half-open probes — and
	// their faults — out of the run). The first overflow asks for critical
	// brownout, so the shift lands inside the dwell.
	r, err := ric.New(ric.Config{
		ReportPeriodMs: 1,
		KPMHistory:     ric.NoKPMHistory,
		Flight:         rec,
		Overload: &ric.OverloadConfig{
			AdmitRate:  -1,
			BusyPause:  -1,
			QueueDepth: cfg.QueueDepth,
			StaleAfter: 50 * time.Millisecond,
			Breaker: guard.BreakerConfig{
				Window: 64, MinSamples: 2,
				Backoff: cfg.Dwell + time.Second,
			},
		},
	})
	if err != nil {
		return res, err
	}
	if cfg.Obs != nil {
		r.Register(cfg.Obs)
	}

	// The shed-ratio SLO burns against the RIC's own overload ledger; the
	// multi-window detector fires once both the 250 ms and 750 ms windows
	// burn past threshold, journaling slo.detector_fire — itself a bundle
	// trigger.
	fdet := flight.NewDetectorSet(rec)
	fdet.MustAdd(flight.SLO{
		Name:      "shed-ratio",
		Objective: 0.01,
		Bad: func() uint64 {
			s, _ := r.OverloadStats()
			return s.ShedOverflow + s.ShedStale + s.ShedTeardown + s.RefusedLate
		},
		Total: func() uint64 {
			s, _ := r.OverloadStats()
			return s.Offered
		},
	}, flight.DetectorConfig{Short: 250 * time.Millisecond, Long: 750 * time.Millisecond, Burn: 2})

	rec.SetTriggers(flight.EvBrownoutShift, flight.EvBreakerOpen, flight.EvDetectorFire)
	dir := cfg.Dir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "waran-flight-"); err != nil {
			return res, err
		}
	}
	fcap, err := flight.NewCapturer(rec, flight.CapturerConfig{
		Dir: dir, Debounce: 150 * time.Millisecond, GoroutineDump: -1,
		Registry: cfg.Obs, Detectors: fdet,
	})
	if err != nil {
		return res, err
	}
	fstop := make(chan struct{})
	go fcap.Run(fstop)
	go fdet.Run(fstop, 50*time.Millisecond)

	// Two bad xApps, one failure mode each. "stuck" gets less fuel than its
	// stall needs, so every call traps with FailFuel and the low-sample
	// breaker opens on the second fault, a trip the journal records. "lag"
	// gets fuel to spare, so the same
	// stall *succeeds*: the breaker stays closed and every dispatch keeps
	// paying the stall for the whole dwell, which is what saturates
	// dispatch and overflows the shallow queues into the shed ledger.
	slowSrc := fmt.Sprintf(slowXAppWATTemplate, cfg.StallIters)
	if _, err := r.AddXAppWAT("stuck", slowSrc, slowXAppCutoff(cfg.StallIters)); err != nil {
		close(fstop)
		return res, err
	}
	if _, err := r.AddXAppWAT("lag", slowSrc, wabi.Policy{Fuel: 1 << 30}); err != nil {
		close(fstop)
		return res, err
	}
	if _, err := r.AddXAppWAT("sla", plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
		close(fstop)
		return res, err
	}

	if err := flightrecStorm(cfg, r, rec); err != nil {
		close(fstop)
		return res, err
	}
	close(fstop)

	res.Ledger, _ = r.OverloadStats()
	res.LedgerConserved = res.Ledger.LedgerConserved()
	fdet.Eval(time.Now())
	res.Detectors = fdet.States()
	res.DetectorFires = rec.Count(flight.EvDetectorFire)

	// Sweep the journal tail into a final bundle (events inside the last
	// debounce window land here), then verify the chain across the bundle
	// sequence — consecutive bundles carry disjoint journal windows, so the
	// union is exactly what an operator pulling the bundle directory sees.
	if _, err := fcap.CaptureNow("flightrec-final"); err != nil {
		return res, err
	}
	sum, ok, err := flight.Summarize(rec, fcap, flightrecChain...)
	if err != nil {
		return res, err
	}
	res.Flight = sum
	res.CausalChain = ok
	for _, info := range sum.Bundles {
		if strings.HasPrefix(info.Reason, "class:") {
			res.TriggeredBundles++
		}
	}

	// Idle path: a clean slot loop with a recorder attached journals only
	// deadline misses, so the journal must hold exactly as many events as
	// the watchdog counted overruns. The two arms are also timed; the storm
	// leaves GC and scheduler residue behind, so each runs twice,
	// interleaved, and keeps its minimum.
	res.BaselineNsPerSlot, res.FlightNsPerSlot = math.Inf(1), math.Inf(1)
	for pass := 0; pass < 2; pass++ {
		ns, _, err := flightrecSlotNs(nil, cfg.OverheadSlots)
		if err != nil {
			return res, err
		}
		res.BaselineNsPerSlot = math.Min(res.BaselineNsPerSlot, ns)
		idle := flight.NewRecorder(4096)
		ns, overruns, err := flightrecSlotNs(idle, cfg.OverheadSlots)
		if err != nil {
			return res, err
		}
		res.FlightNsPerSlot = math.Min(res.FlightNsPerSlot, ns)
		if idle.Seq() != overruns {
			return res, fmt.Errorf("exp: flightrec: idle recorder journaled %d events on a clean slot loop with %d watchdog overruns",
				idle.Seq(), overruns)
		}
	}
	if res.BaselineNsPerSlot > 0 {
		res.OverheadPct = (res.FlightNsPerSlot - res.BaselineNsPerSlot) / res.BaselineNsPerSlot * 100
	}

	if cfg.Obs != nil {
		res.Obs = cfg.Obs.Snapshot()
	}

	if !res.CausalChain {
		return res, fmt.Errorf("exp: flightrec: bundles in %s do not cover the causal chain %v (coverage %v)",
			dir, flightrecChain, sum.Coverage)
	}
	if res.TriggeredBundles == 0 {
		return res, fmt.Errorf("exp: flightrec: no bundle was captured by an anomaly trigger")
	}
	if !res.LedgerConserved {
		return res, fmt.Errorf("exp: flightrec: shed ledger violated: %+v", res.Ledger)
	}
	return res, nil
}

// flightrecStorm drives the reporting fleet against the flight-armed RIC
// for the dwell window, then quiesces it.
func flightrecStorm(cfg FlightRecConfig, r *ric.RIC, rec *flight.Recorder) error {
	ran := &overloadRAN{}
	lis, err := e2.Listen("127.0.0.1:0", e2.BinaryCodec{})
	if err != nil {
		return err
	}
	lis.SetFlightRecorder(rec)
	stop := make(chan struct{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- r.Serve(lis, stop) }()

	agents := make([]*ric.Agent, 0, cfg.Agents)
	conns := make([]*e2.Conn, 0, cfg.Agents)
	defer func() {
		close(stop)
		for _, c := range conns {
			c.Close()
		}
		<-serveDone
	}()
	for i := 0; i < cfg.Agents; i++ {
		conn, err := e2.Dial(lis.Addr().String(), e2.BinaryCodec{})
		if err != nil {
			return err
		}
		conns = append(conns, conn)
		a, err := ric.NewAgent(conn, ran, ric.AgentConfig{Cell: uint32(i)})
		if err != nil {
			return err
		}
		if _, err := a.Start(); err != nil {
			return err
		}
		agents = append(agents, a)
	}

	end := time.Now().Add(cfg.Dwell)
	for slot := uint64(1); time.Now().Before(end); slot++ {
		for _, a := range agents {
			_ = a.Tick(slot)
		}
		time.Sleep(cfg.Pacing)
	}
	return nil
}

// flightrecSlotNs times a clean single-cell slot loop (native round-robin
// scheduler, one CBR UE) with the given recorder attached (nil = detached)
// and returns nanoseconds per slot plus the slot-deadline overruns the
// group's watchdog counted over the whole run, warm-up included.
func flightrecSlotNs(rec *flight.Recorder, slots int) (nsPerSlot float64, overruns uint64, err error) {
	cg, err := core.NewCellGroup(ran.CellConfig{}, core.CellGroupConfig{Cells: 1})
	if err != nil {
		return 0, 0, err
	}
	gnb := cg.Cell(0)
	if _, err := gnb.Slices.AddSlice(1, "tenant", 50e6, sched.RoundRobin{}, nil); err != nil {
		return 0, 0, err
	}
	ue := ran.NewUE(1, 1, 20)
	ue.Traffic = ran.NewCBR(3e6)
	if err := gnb.AttachUE(ue); err != nil {
		return 0, 0, err
	}
	cg.SetFlightRecorder(rec)
	for i := 0; i < 100; i++ { // warm pools and caches off the clock
		cg.StepAll()
	}
	start := time.Now()
	for i := 0; i < slots; i++ {
		cg.StepAll()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(slots), cg.WatchdogStats()[0].Overruns, nil
}
