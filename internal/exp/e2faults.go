package exp

import (
	"fmt"
	"net"
	"sync"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/obs"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/ric"
	"waran/internal/wabi"
)

// E2FaultsConfig parameterizes the association-resilience experiment: a
// gNB and a RIC joined over loopback, with the agent's connections wrapped
// in a fault-injecting transport.
type E2FaultsConfig struct {
	// Slots is how many MAC slots to run (default 2000).
	Slots int
	// ReportPeriodMs is the indication cadence (default 10; 1 ms slots).
	ReportPeriodMs uint32
	// Heartbeat is the RIC's heartbeat interval (default 5 ms).
	Heartbeat time.Duration
	// LivenessTimeout is the agent-side silence bound (default
	// 4*Heartbeat).
	LivenessTimeout time.Duration
	// Drop is the per-write drop probability used by the default fault
	// schedule; zero drops nothing (the e2faults experiment runs 0.05).
	Drop float64
	// ResetAfterWrites forces a reset on the Nth write in the default
	// fault schedule; zero never resets (the e2faults experiment runs 25).
	ResetAfterWrites int
	// Faults is the storm, in order: each FaultConfig is given to the
	// agent's next connection, and again to the one after if that
	// connection ended before the fault fired (wall-clock liveness on a
	// stalled box can end any association early), so every fault is
	// exercised however the timing falls. Connections dialled after the
	// last fault has fired are clean, so recovery is observable.
	// When empty, a default two-connection storm is used: the first
	// association goes half-open (blackhole — only heartbeat liveness can
	// catch it), the second drops frames at Drop and is forcibly reset
	// after ResetAfterWrites writes, and the third onward is clean.
	Faults []e2.FaultConfig
	// Seed selects the fault and jitter schedules (0 behaves as 1).
	Seed int64
	// Pacing is slept after every slot so heartbeat/backoff timers get
	// wall-clock room (default 200 us).
	Pacing time.Duration
	// Obs, when non-nil, receives the RIC's and the shared association
	// metrics' instruments, and the result embeds its snapshot.
	Obs *obs.Registry
}

func (c E2FaultsConfig) withDefaults() E2FaultsConfig {
	if c.Slots <= 0 {
		c.Slots = 2000
	}
	if c.ReportPeriodMs == 0 {
		c.ReportPeriodMs = 10
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 5 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Pacing <= 0 {
		c.Pacing = 200 * time.Microsecond
	}
	return c
}

// E2FaultsResult reports the experiment outcome.
type E2FaultsResult struct {
	Slots           int     `json:"slots"`
	DropProb        float64 `json:"drop_prob"`
	ResetAfter      int     `json:"reset_after_writes"`
	FaultyConns     int     `json:"faulty_conns"`
	FaultsInjected  uint64  `json:"faults_injected"`
	FaultDrops      uint64  `json:"fault_drops"`
	FaultResets     uint64  `json:"fault_resets"`
	FaultBlackholes uint64  `json:"fault_blackholes"`

	Associations uint64         `json:"associations"`
	Assoc        ric.AssocStats `json:"assoc"`

	Indications  uint64 `json:"indications_sent"`
	ControlsOK   uint64 `json:"controls_applied"`
	ControlsFail uint64 `json:"controls_failed"`
	Resubscribes uint64 `json:"resubscribes"`
	// FinalAssocControlsOK is the number of controls applied on the
	// association that was live when the run ended — the proof that
	// control delivery resumed after the fault storm.
	FinalAssocControlsOK uint64 `json:"final_assoc_controls_ok"`

	// Obs is the metric-registry snapshot taken as the run ended, present
	// when the experiment was instrumented (E2FaultsConfig.Obs).
	Obs map[string]any `json:"obs,omitempty"`
}

// RunE2Faults runs the association-resilience experiment: a RIC with the
// SLA-assurance xApp supervises associations from a RANControl whose slot
// loop the caller drives via step; the agent side dials through FaultConn
// so drops and resets tear associations down mid-flight. The result shows
// the association re-established with backoff, the subscription renewed,
// and controls applied again on the surviving association, while step is
// called for every slot regardless (the gNB never stalls).
func RunE2Faults(cfg E2FaultsConfig, ran ric.RANControl, step func(slot uint64)) (*E2FaultsResult, error) {
	cfg = cfg.withDefaults()
	// Derived from knobs the caller may have set after the defaults.
	if cfg.LivenessTimeout <= 0 {
		cfg.LivenessTimeout = 4 * cfg.Heartbeat
	}
	if len(cfg.Faults) == 0 {
		// Every Send is one write, so the blackhole lands on a frame
		// boundary whatever its threshold and the association goes cleanly
		// silent — the half-open case only liveness catches — rather than
		// desynchronizing the peer's framing.
		cfg.Faults = []e2.FaultConfig{
			{BlackholeAfterWrites: 41},
			{DropProb: cfg.Drop, ResetAfterWrites: cfg.ResetAfterWrites},
		}
	}

	shared := &ric.AssocMetrics{}
	r, err := ric.New(ric.Config{
		ReportPeriodMs:    cfg.ReportPeriodMs,
		HeartbeatInterval: cfg.Heartbeat,
		Assoc:             shared,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		r.Register(cfg.Obs)
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
	ricSess, err := ric.NewSession(ric.SessionConfig{
		RIC:     r,
		Connect: lis.Accept,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	ricDone := make(chan struct{})
	go func() {
		defer close(ricDone)
		ricSess.Run(stop)
	}()

	// Each dial gets the next fault that has not fired yet (see
	// E2FaultsConfig.Faults); per-dial seeds keep each connection's schedule
	// deterministic yet distinct.
	var mu sync.Mutex
	var faultConns []*e2.FaultConn
	pending := 0 // index of the first fault that has not fired
	addr := lis.Addr().String()
	dial := func() (*e2.Conn, error) {
		raw, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		if n := len(faultConns); n > 0 && pending < len(cfg.Faults) && faultConns[n-1].Stats().Total() > 0 {
			pending++
		}
		if pending == len(cfg.Faults) {
			return e2.NewConn(raw, e2.BinaryCodec{}), nil
		}
		fcfg := cfg.Faults[pending]
		if fcfg.Seed == 0 {
			fcfg.Seed = cfg.Seed + int64(len(faultConns)+1)
		}
		fc := e2.NewFaultConn(raw, fcfg)
		faultConns = append(faultConns, fc)
		return e2.NewConn(fc, e2.BinaryCodec{}), nil
	}
	stormOver := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return pending == len(cfg.Faults)
	}

	sess, err := ric.NewAgentSession(ric.AgentSessionConfig{
		Dial:    dial,
		RAN:     ran,
		Agent:   ric.AgentConfig{Cell: 1, LivenessTimeout: cfg.LivenessTimeout},
		Backoff: ric.Backoff{Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond},
		Metrics: shared,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	sess.Start()

	// Drive the MAC slot loop. The gNB steps every slot no matter what the
	// association is doing — degradation must never stall it.
	slot := uint64(0)
	for ; slot < uint64(cfg.Slots); slot++ {
		step(slot)
		sess.Tick(slot)
		time.Sleep(cfg.Pacing)
	}

	// Keep stepping (bounded) until the storm is over — every fault has
	// fired, and the clean association dialled after the last one is live
	// and has delivered at least one control — so the "recovered" claim in
	// the result is measured, not assumed.
	res := &E2FaultsResult{
		Slots:       cfg.Slots,
		DropProb:    cfg.Drop,
		ResetAfter:  cfg.ResetAfterWrites,
		FaultyConns: len(cfg.Faults),
	}
	extra := uint64(cfg.Slots) * 4
	for i := uint64(0); i < extra; i++ {
		_, controlsOK, live := sess.LiveCounters()
		if live && controlsOK > 0 && stormOver() {
			res.FinalAssocControlsOK = controlsOK
			break
		}
		step(slot)
		sess.Tick(slot)
		slot++
		time.Sleep(cfg.Pacing)
	}

	sess.Stop()
	close(stop)
	lis.Close() // unblock the RIC session's Accept
	<-ricDone

	res.Associations = sess.Associations()
	res.Assoc = shared.Stats()
	res.Indications, res.ControlsOK, res.ControlsFail, res.Resubscribes = sess.Counters()
	mu.Lock()
	for _, fc := range faultConns {
		st := fc.Stats()
		res.FaultsInjected += st.Total()
		res.FaultDrops += st.Drops
		res.FaultResets += st.Resets
		res.FaultBlackholes += st.Blackholes
	}
	mu.Unlock()
	if cfg.Obs != nil {
		res.Obs = cfg.Obs.Snapshot()
	}
	if res.Associations == 0 {
		return res, fmt.Errorf("exp: e2faults: no association was ever established")
	}
	return res, nil
}

// runE2FaultsOnGNB builds the experiment's standard gNB — one tenant slice
// on the round-robin plugin with a deliberately over-ambitious SLA, so the
// SLA-assurance xApp keeps emitting controls and control delivery after
// recovery is observable — and runs the fault storm against it.
func runE2FaultsOnGNB(cfg E2FaultsConfig) (*E2FaultsResult, error) {
	gnb, err := core.NewGNB(ran.CellConfig{})
	if err != nil {
		return nil, err
	}
	rr, err := core.NewPluginScheduler("rr", wabi.Policy{})
	if err != nil {
		return nil, err
	}
	if _, err := gnb.Slices.AddSlice(1, "tenant", 100e6, rr, nil); err != nil {
		return nil, err
	}
	if _, err := gnb.Supervise(1); err != nil {
		return nil, err
	}
	ue := ran.NewUE(1, 1, 20)
	ue.Traffic = ran.NewCBR(3e6)
	if err := gnb.AttachUE(ue); err != nil {
		return nil, err
	}
	return RunE2Faults(cfg, gnb, func(uint64) { gnb.Step() })
}
