package ric

// The overload chaos experiment (waranbench -fig overload): kill and restart
// the RIC under a live agent fleet and sweep the offered load past dispatch
// capacity, measuring the three things DESIGN.md §17 promises:
//
//  1. mass recovery — after the restart the reconnect stampede is admitted
//     as a controlled ramp (time-to-99%-reassociation, and how concentrated
//     the retry waves are);
//  2. shed accounting — the ledger conserves exactly at quiescence
//     (offered == delivered + shed_overflow + shed_stale + shed_teardown +
//     refused_late) on both the killed and the restarted RIC;
//  3. slow-xApp isolation — a stalling xApp is trapped at its dispatch
//     deadline, its breaker opens (before the consecutive-fault quarantine)
//     and it is skipped, so the fan-in keeps moving: the healthy xApp behind
//     it keeps producing controls and the agents' ticks stay flat.

import (
	"fmt"
	"os"
	"sort"
	"time"

	"waran/internal/e2"
	"waran/internal/guard"
	"waran/internal/metrics"
	"waran/internal/obs"
	"waran/internal/obs/flight"
	"waran/internal/plugins"
	"waran/internal/wabi"
)

// slowXAppWATTemplate is a deliberately slow but *successful* xApp: it spins
// for a configured number of iterations, then returns a valid empty control
// list. Bounded (unlike an infinite loop) and given fuel to finish, so only
// the explicit per-xApp dispatch deadline cuts it off — it just dwells, which
// is exactly the failure mode the deadline and the breaker exist to contain.
const slowXAppWATTemplate = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (func (export "on_indication") (result i32)
    (local $i i32)
    (block $done
      (loop $spin
        (br_if $done (i32.ge_u (local.get $i) (i32.const %d)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $spin)))
    ;; empty control list: u16 count = 0
    (i32.store16 (i32.const 32768) (i32.const 0))
    (call $output_write (i32.const 32768) (i32.const 2))
    (i32.const 0))
)`

// OverloadExpConfig parameterizes the overload chaos experiment.
type OverloadExpConfig struct {
	// Agents is the reconnect-storm fleet size (default 1024 — the citysim
	// association count).
	Agents int
	// Shards is the RIC association shard count (default 16).
	Shards int
	// AdmitRate / AdmitBurst tune the per-shard admission token bucket the
	// restarted RIC ramps the stampede through (defaults 64/s and 8 — low
	// enough that a default fleet visibly queues behind the gate).
	AdmitRate  float64
	AdmitBurst int
	// RetryAfter is the hint floor on TypeBusy admission refusals (default
	// DefaultRetryAfter).
	RetryAfter time.Duration
	// ReportPeriodMs is the subscription cadence in slots (default 20).
	ReportPeriodMs uint32
	// Warmup is how long the fleet runs before the kill (default 500 ms).
	Warmup time.Duration
	// Outage is how long the RIC stays down (default 250 ms).
	Outage time.Duration
	// RampBound bounds the post-restart reassociation wait (default 30 s).
	RampBound time.Duration
	// Pacing is the simulated slot interval for the tick driver (default
	// 1 ms).
	Pacing time.Duration
	// Dwell is the slow-xApp measurement window (default 3 s).
	Dwell time.Duration
	// DwellAgents is the dwell arm's fleet size (default 32; it measures
	// xApp isolation, not admission).
	DwellAgents int
	// StallIters is the slow xApp's spin length in loop iterations (default
	// 1e6 — far past any sane dispatch deadline at interpreter speed).
	StallIters int
	// XAppDeadline is the dwell arm's per-dispatch wall-clock bound (default
	// 1 ms, well under one StallIters spin).
	XAppDeadline time.Duration
	// Seed spreads the session jitter schedules (default 1; session i uses
	// Seed+i).
	Seed int64
	// Obs, when non-nil, receives the restarted RIC's instruments and the
	// result embeds its snapshot.
	Obs *obs.Registry
	// Flight arms the flight recorder across every arm: the storm's
	// admission refusals and the guarded dwell's breaker trip are journaled
	// and must reach a diagnostic bundle, or the run fails.
	Flight bool
	// FlightDir is where diagnostic bundles land (empty = temp dir).
	FlightDir string
}

func (c OverloadExpConfig) withDefaults() OverloadExpConfig {
	if c.Agents <= 0 {
		c.Agents = 1024
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.AdmitRate == 0 {
		c.AdmitRate = 64
	}
	if c.AdmitBurst <= 0 {
		c.AdmitBurst = 8
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	if c.ReportPeriodMs == 0 {
		c.ReportPeriodMs = 20
	}
	if c.Warmup <= 0 {
		c.Warmup = 500 * time.Millisecond
	}
	if c.Outage <= 0 {
		c.Outage = 250 * time.Millisecond
	}
	if c.RampBound <= 0 {
		c.RampBound = 30 * time.Second
	}
	if c.Pacing <= 0 {
		c.Pacing = time.Millisecond
	}
	if c.Dwell <= 0 {
		c.Dwell = 3 * time.Second
	}
	if c.DwellAgents <= 0 {
		c.DwellAgents = 32
	}
	if c.StallIters <= 0 {
		c.StallIters = 1_000_000
	}
	if c.XAppDeadline <= 0 {
		c.XAppDeadline = time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// OverloadDwell is the slow-xApp isolation arm's report.
type OverloadDwell struct {
	// TickP99Ms is the p99 wall time of one full fleet tick (every agent's
	// Tick called once): flat as long as the stall never backs the TCP
	// stream up into the agents.
	TickP99Ms float64 `json:"tick_p99_ms"`
	TickMaxMs float64 `json:"tick_max_ms"`
	Ticks     int     `json:"ticks"`
	// ControlsPerSec is the rate of control actions applied at the RAN
	// during the window — the fan-in's useful throughput around the stall.
	ControlsPerSec float64 `json:"controls_per_sec"`
	// SlowInvocations / SlowSkipped / SlowBreaker describe what happened to
	// the stalling xApp itself.
	SlowInvocations uint64 `json:"slow_invocations"`
	SlowSkipped     uint64 `json:"slow_skipped"`
	SlowFaults      uint64 `json:"slow_faults"`
	SlowBreaker     string `json:"slow_breaker"`
	SlowDisabled    bool   `json:"slow_disabled"`
}

// OverloadResult is the overload chaos experiment's report.
type OverloadResult struct {
	Agents int `json:"agents"`
	Shards int `json:"shards"`

	// --- reconnect storm ---------------------------------------------------
	// Reassoc99Ms / Reassoc100Ms are the post-restart times until 99% / 100%
	// of the fleet held a live association again (-1 if never inside
	// RampBound).
	Reassoc99Ms  float64 `json:"reassoc_99_ms"`
	Reassoc100Ms float64 `json:"reassoc_100_ms"`
	Reassociated int     `json:"reassociated"`
	// MaxWaveFraction is the largest fraction of the fleet whose reconnects
	// landed inside one WaveBucketMs-wide bucket — near 1.0 means the storm
	// re-arrived as a synchronized wave, small means it ramped.
	MaxWaveFraction float64 `json:"max_wave_fraction"`
	WaveBucketMs    float64 `json:"wave_bucket_ms"`
	BusyRefusals    uint64  `json:"busy_refusals"`
	Reconnects      uint64  `json:"reconnects"`
	DroppedInd      uint64  `json:"dropped_indications"`

	// --- shed ledgers ------------------------------------------------------
	// LedgerPreKill is the killed RIC's quiescent overload snapshot;
	// Ledger is the restarted RIC's. LedgerConserved reports that both
	// satisfy offered == delivered + sheds + refused_late exactly.
	LedgerPreKill   OverloadStats `json:"ledger_pre_kill"`
	Ledger          OverloadStats `json:"ledger"`
	LedgerConserved bool          `json:"ledger_conserved"`

	// --- slow-xApp isolation ----------------------------------------------
	GuardOn OverloadDwell `json:"guard_on"`

	// Flight is the incident-journal digest when the experiment ran with
	// the flight recorder armed.
	Flight *flight.Summary `json:"flight,omitempty"`

	Obs map[string]any `json:"obs,omitempty"`
}

// ledgerConserved checks the exact shed-ledger invariant on a quiescent
// overload snapshot.
func ledgerConserved(s OverloadStats) bool {
	return s.Offered == s.Delivered+s.ShedOverflow+s.ShedStale+s.ShedTeardown+s.RefusedLate
}

// overloadRAN is the experiment's synthetic RAN control surface: every
// snapshot carries one under-SLA slice (so the SLA-assurance xApp emits a
// control per indication — a countable unit of useful RIC work) plus a UE
// vector bulky enough that transport buffers fill quickly once dispatch
// stalls.
type overloadRAN struct {
	applies metrics.Counter
}

func (o *overloadRAN) Snapshot(cell uint32) *e2.Indication {
	ues := make([]e2.UEMeasurement, 32)
	for i := range ues {
		ues[i] = e2.UEMeasurement{UEID: uint32(i + 1), SliceID: 1, MCS: 20, BufferBytes: 4096, TputBps: 1e6}
	}
	return &e2.Indication{
		Cell: cell,
		UEs:  ues,
		Slices: []e2.SliceMeasurement{
			{SliceID: 1, TargetBps: 10e6, ServedBps: 1e6},    // starved: boosted every report
			{SliceID: 2, TargetBps: 10e6, ServedBps: 10.5e6}, // healthy: inside the dead band
		},
	}
}

func (o *overloadRAN) Apply(c *e2.ControlRequest) error {
	o.applies.Inc()
	return nil
}

// RunOverload runs the overload chaos experiment: a reconnect-storm arm
// (kill + restart under admission control) followed by the slow-xApp dwell
// arm. A non-nil error flags a hard invariant violation (warmup or
// reassociation failure, ledger imbalance); the partial result is still
// returned for inspection.
func RunOverload(cfg OverloadExpConfig) (*OverloadResult, error) {
	cfg = cfg.withDefaults()
	res := &OverloadResult{
		Agents:       cfg.Agents,
		Shards:       cfg.Shards,
		Reassoc99Ms:  -1,
		Reassoc100Ms: -1,
		WaveBucketMs: 100,
	}

	// With the flight knob armed, one recorder journals every arm (the
	// restarted storm RIC and the dwell RIC share it) and anomaly
	// triggers capture bundles along the way; the run fails unless the
	// storm's admission refusals and the guarded dwell's breaker trip are
	// both covered by a bundle.
	var frec *flight.Recorder
	var fcap *flight.Capturer
	if cfg.Flight {
		frec = flight.NewRecorder(8192)
		frec.SetTriggers(flight.EvBreakerOpen, flight.EvBrownoutShift, flight.EvAdmissionRefused)
		dir := cfg.FlightDir
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "waran-flight-"); err != nil {
				return res, err
			}
		}
		var err error
		fcap, err = flight.NewCapturer(frec, flight.CapturerConfig{
			Dir: dir, Debounce: 200 * time.Millisecond, GoroutineDump: -1,
			Registry: cfg.Obs,
		})
		if err != nil {
			return res, err
		}
		fstop := make(chan struct{})
		defer close(fstop)
		go fcap.Run(fstop)
	}

	if err := runOverloadStorm(cfg, res, frec); err != nil {
		return res, err
	}

	var err error
	if res.GuardOn, err = runOverloadDwell(cfg, frec); err != nil {
		return res, err
	}
	if fcap != nil {
		if _, err := fcap.CaptureNow("overload-final"); err != nil {
			return res, err
		}
		sum, ok, serr := flight.Summarize(frec, fcap, flight.EvAdmissionRefused, flight.EvBreakerOpen)
		if serr != nil {
			return res, serr
		}
		res.Flight = sum
		if !ok {
			return res, fmt.Errorf("ric: overload: flight recorder produced no bundle covering %s and %s",
				flight.EvAdmissionRefused, flight.EvBreakerOpen)
		}
	}
	if cfg.Obs != nil {
		res.Obs = cfg.Obs.Snapshot()
	}
	return res, nil
}

// runOverloadStorm is the kill/restart arm: warm the fleet up against one
// RIC, kill it, restart on the same address, and measure
// how the stampede re-admits.
func runOverloadStorm(cfg OverloadExpConfig, res *OverloadResult, frec *flight.Recorder) error {
	ran := &overloadRAN{}
	ovCfg := &OverloadConfig{
		AdmitRate:  cfg.AdmitRate,
		AdmitBurst: cfg.AdmitBurst,
		RetryAfter: cfg.RetryAfter,
	}
	newRIC := func() (*RIC, error) {
		return New(Config{
			ReportPeriodMs: cfg.ReportPeriodMs,
			Shards:         cfg.Shards,
			KPMHistory:     NoKPMHistory,
			Overload:       ovCfg,
			Flight:         frec,
		})
	}

	r1, err := newRIC()
	if err != nil {
		return err
	}
	if _, err := r1.AddXAppWAT("sla", plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
		return err
	}
	lis1, err := e2.Listen("127.0.0.1:0", e2.BinaryCodec{})
	if err != nil {
		return err
	}
	addr := lis1.Addr().String()
	stop1 := make(chan struct{})
	serve1 := make(chan error, 1)
	go func() { serve1 <- r1.Serve(lis1, stop1) }()

	// The shared metrics ledger every session folds into.
	am := &AssocMetrics{}
	sessions := make([]*AgentSession, cfg.Agents)
	for i := range sessions {
		s, err := NewAgentSession(AgentSessionConfig{
			Dial:  func() (*e2.Conn, error) { return e2.Dial(addr, e2.BinaryCodec{}) },
			RAN:   ran,
			Agent: AgentConfig{Cell: uint32(i)},
			// Full jitter is the point: each round of a synchronized retry
			// storm spreads uniformly over the whole backoff ceiling.
			Backoff: Backoff{Initial: 30 * time.Millisecond, Max: 2 * time.Second, FullJitter: true},
			Metrics: am,
			Seed:    cfg.Seed + int64(i),
		})
		if err != nil {
			return err
		}
		sessions[i] = s
		s.Start()
	}
	stopSessions := func() {
		for _, s := range sessions {
			s.Stop()
		}
	}

	// Tick driver: a simulated slot loop that keeps running through the kill
	// and the outage — degraded sessions count their shed slots instead of
	// stalling, exactly as a real gNB slot loop would.
	tickQuit := make(chan struct{})
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		slot := uint64(0)
		for {
			select {
			case <-tickQuit:
				return
			default:
			}
			slot++
			for _, s := range sessions {
				s.Tick(slot)
			}
			time.Sleep(cfg.Pacing)
		}
	}()
	defer func() {
		close(tickQuit)
		<-tickDone
	}()

	// Warmup: every session associated, then a measured interval of load.
	deadline := time.Now().Add(cfg.RampBound)
	for {
		n := 0
		for _, s := range sessions {
			if s.Connected() {
				n++
			}
		}
		if n == cfg.Agents {
			break
		}
		if time.Now().After(deadline) {
			stopSessions()
			close(stop1)
			<-serve1
			return fmt.Errorf("ric: overload: only %d/%d sessions associated during warmup", n, cfg.Agents)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(cfg.Warmup)

	// Kill. Serve's supervisor closes every association's conn, so the RIC
	// quiesces and its shed ledger must balance (teardown drains count).
	assocBefore := make([]uint64, cfg.Agents)
	for i, s := range sessions {
		assocBefore[i] = s.Associations()
	}
	close(stop1)
	<-serve1
	res.LedgerPreKill, _ = r1.OverloadStats()

	time.Sleep(cfg.Outage)

	// Restart on the same address — the fleet's dial target never changes.
	r2, err := newRIC()
	if err != nil {
		stopSessions()
		return err
	}
	if cfg.Obs != nil {
		r2.Register(cfg.Obs)
		am.Register(cfg.Obs)
	}
	if _, err := r2.AddXAppWAT("sla", plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
		stopSessions()
		return err
	}
	var lis2 *e2.Listener
	for attempt := 0; ; attempt++ {
		lis2, err = e2.Listen(addr, e2.BinaryCodec{})
		if err == nil {
			break
		}
		if attempt > 200 {
			stopSessions()
			return fmt.Errorf("ric: overload: cannot rebind %s: %w", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop2 := make(chan struct{})
	serve2 := make(chan error, 1)
	go func() { serve2 <- r2.Serve(lis2, stop2) }()
	restart := time.Now()

	// Watch the ramp: per-session first-reassociation times at 2 ms
	// resolution feed both the 99%/100% marks and the wave-alignment
	// histogram.
	reassocAt := make([]time.Duration, cfg.Agents)
	for i := range reassocAt {
		reassocAt[i] = -1
	}
	need99 := (cfg.Agents*99 + 99) / 100 // ceil(0.99 * Agents)
	count := 0
	rampEnd := restart.Add(cfg.RampBound)
	for count < cfg.Agents && time.Now().Before(rampEnd) {
		now := time.Since(restart)
		for i, s := range sessions {
			if reassocAt[i] < 0 && s.Associations() > assocBefore[i] {
				reassocAt[i] = now
				count++
			}
		}
		if res.Reassoc99Ms < 0 && count >= need99 {
			res.Reassoc99Ms = float64(now.Nanoseconds()) / 1e6
		}
		if count == cfg.Agents {
			res.Reassoc100Ms = float64(now.Nanoseconds()) / 1e6
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	res.Reassociated = count

	// Wave alignment: bucket the reassociation times and report the biggest
	// bucket's share of the fleet.
	bucket := time.Duration(res.WaveBucketMs) * time.Millisecond
	waves := map[int64]int{}
	for _, d := range reassocAt {
		if d >= 0 {
			waves[int64(d/bucket)]++
		}
	}
	for _, n := range waves {
		if f := float64(n) / float64(cfg.Agents); f > res.MaxWaveFraction {
			res.MaxWaveFraction = f
		}
	}

	// Quiesce: stop the fleet first (each Stop flushes and folds counters),
	// then the RIC, then check both ledgers.
	stopSessions()
	close(stop2)
	<-serve2
	res.Ledger, _ = r2.OverloadStats()
	st := am.Stats()
	res.BusyRefusals = st.BusyRefusals
	res.Reconnects = st.Reconnects
	res.DroppedInd = st.DroppedIndications
	res.LedgerConserved = ledgerConserved(res.LedgerPreKill) && ledgerConserved(res.Ledger)

	if res.Reassociated < need99 {
		return fmt.Errorf("ric: overload: only %d/%d sessions reassociated within %v (need %d)",
			res.Reassociated, cfg.Agents, cfg.RampBound, need99)
	}
	if !res.LedgerConserved {
		return fmt.Errorf("ric: overload: shed ledger violated: pre-kill %+v, post %+v",
			res.LedgerPreKill, res.Ledger)
	}
	return nil
}

// runOverloadDwell runs the slow-xApp isolation arm: DwellAgents agents
// report every slot into a RIC hosting a stalling xApp ahead of the SLA
// xApp.
func runOverloadDwell(cfg OverloadExpConfig, frec *flight.Recorder) (OverloadDwell, error) {
	var dw OverloadDwell
	ran := &overloadRAN{}
	r, err := New(Config{
		ReportPeriodMs: 1, // report every slot: offered load well past a stalled dispatcher
		Shards:         4,
		KPMHistory:     NoKPMHistory,
		Overload: &OverloadConfig{
			// The dwell arm isolates the xApp guard: admission and source
			// backpressure are the storm arm's subject, so they are disabled
			// here.
			AdmitRate:    -1,
			BusyPause:    -1,
			XAppDeadline: cfg.XAppDeadline,
			// MinSamples below the consecutive-fault quarantine so the
			// breaker opens (recoverable) before the blunt disable fires, and
			// a probe backoff past the window so measurements see a cleanly
			// open breaker rather than probe churn.
			Breaker: guard.BreakerConfig{MinSamples: 2, Backoff: cfg.Dwell + time.Second},
		},
		Flight: frec,
	})
	if err != nil {
		return dw, err
	}
	slowSrc := fmt.Sprintf(slowXAppWATTemplate, cfg.StallIters)
	// Installed first, the stall sits in front of the SLA xApp in dispatch
	// order: until its breaker opens every indication pays it before any
	// useful work happens.
	slow, err := r.AddXAppWAT("slow", slowSrc, wabi.Policy{Fuel: 1 << 30})
	if err != nil {
		return dw, err
	}
	if _, err := r.AddXAppWAT("sla", plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
		return dw, err
	}

	lis, err := e2.Listen("127.0.0.1:0", e2.BinaryCodec{})
	if err != nil {
		return dw, err
	}
	stop := make(chan struct{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- r.Serve(lis, stop) }()

	agents := make([]*Agent, 0, cfg.DwellAgents)
	conns := make([]*e2.Conn, 0, cfg.DwellAgents)
	defer func() {
		close(stop)
		for _, c := range conns {
			c.Close()
		}
		<-serveDone
	}()
	for i := 0; i < cfg.DwellAgents; i++ {
		conn, err := e2.Dial(lis.Addr().String(), e2.BinaryCodec{})
		if err != nil {
			return dw, err
		}
		conns = append(conns, conn)
		a, err := NewAgent(conn, ran, AgentConfig{Cell: uint32(i)})
		if err != nil {
			return dw, err
		}
		if _, err := a.Start(); err != nil {
			return dw, err
		}
		agents = append(agents, a)
	}

	// The measured loop: each tick sends one indication per agent.
	var ticks []float64
	start := time.Now()
	end := start.Add(cfg.Dwell)
	for slot := uint64(1); time.Now().Before(end); slot++ {
		t0 := time.Now()
		for _, a := range agents {
			_ = a.Tick(slot)
		}
		d := float64(time.Since(t0).Nanoseconds()) / 1e6
		ticks = append(ticks, d)
		if d > dw.TickMaxMs {
			dw.TickMaxMs = d
		}
		time.Sleep(cfg.Pacing)
	}
	wall := time.Since(start)

	dw.Ticks = len(ticks)
	if len(ticks) > 0 {
		sort.Float64s(ticks)
		dw.TickP99Ms = ticks[int(0.99*float64(len(ticks)-1))]
	}
	dw.ControlsPerSec = float64(ran.applies.Value()) / wall.Seconds()
	ss := slow.Stats()
	dw.SlowInvocations = ss.Invocations
	dw.SlowSkipped = ss.Skipped
	dw.SlowFaults = ss.Faults
	dw.SlowBreaker = ss.BreakerState
	dw.SlowDisabled = ss.Disabled
	return dw, nil
}
