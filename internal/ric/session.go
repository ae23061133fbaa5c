package ric

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"waran/internal/e2"
	"waran/internal/obs"
)

// sessionSeq desynchronizes zero-seeded sessions. Seed==0 used to collapse
// onto schedule 1, so a fleet of default-configured agents drew *identical*
// jitter and retried in lock-step — the exact thundering herd jitter exists
// to prevent. Each zero-seeded session now derives a unique seed instead.
var sessionSeq atomic.Int64 // metric-exempt: seed derivation, not telemetry

func deriveSeed(seed int64) int64 {
	if seed != 0 {
		return seed
	}
	seq := uint64(sessionSeq.Add(1))
	return int64(uint64(time.Now().UnixNano()) ^ (seq * 0x9E3779B97F4A7C15))
}

// AssocMetrics aggregates association-resilience counters. All methods and
// fields are safe for concurrent use; one instance may be shared by a
// RIC-side Session and the RIC itself (each side increments the events it
// observes).
type AssocMetrics struct {
	// Reconnects counts associations established beyond the first.
	Reconnects obs.Counter
	// MissedHeartbeats counts heartbeat intervals with no inbound frame.
	MissedHeartbeats obs.Counter
	// DeadAssociations counts liveness-declared association deaths.
	DeadAssociations obs.Counter
	// DroppedIndications counts indications not delivered because the
	// association was down or their write failed (every indication of a
	// lost batch window).
	DroppedIndications obs.Counter
	// BusyRefusals counts connect attempts the RIC refused with a busy
	// frame (admission control or brownout-critical subscription refusal).
	BusyRefusals obs.Counter
	// BusyBackpressure counts mid-association busy frames received.
	BusyBackpressure obs.Counter
	// ShedPaused counts due-slot indications shed at the source while a
	// busy-frame backpressure pause was in effect.
	ShedPaused obs.Counter

	degradedNs atomic.Int64 // time spent without an association
}

// AssocStats is the flat snapshot of AssocMetrics.
type AssocStats struct {
	Reconnects         uint64  `json:"reconnects"`
	MissedHeartbeats   uint64  `json:"missed_heartbeats"`
	DeadAssociations   uint64  `json:"dead_associations"`
	DroppedIndications uint64  `json:"dropped_indications"`
	BusyRefusals       uint64  `json:"busy_refusals"`
	BusyBackpressure   uint64  `json:"busy_backpressure"`
	ShedPaused         uint64  `json:"shed_paused"`
	DegradedMs         float64 `json:"degraded_ms"`
}

// Stats captures the counters.
func (m *AssocMetrics) Stats() AssocStats {
	return AssocStats{
		Reconnects:         m.Reconnects.Value(),
		MissedHeartbeats:   m.MissedHeartbeats.Value(),
		DeadAssociations:   m.DeadAssociations.Value(),
		DroppedIndications: m.DroppedIndications.Value(),
		BusyRefusals:       m.BusyRefusals.Value(),
		BusyBackpressure:   m.BusyBackpressure.Value(),
		ShedPaused:         m.ShedPaused.Value(),
		DegradedMs:         float64(m.degradedNs.Load()) / 1e6,
	}
}

// Register exposes the association-resilience counters on reg under
// waran_e2_assoc_*.
func (m *AssocMetrics) Register(reg *obs.Registry, labels ...obs.Label) {
	reg.MustRegister("waran_e2_assoc", "E2 association resilience counters", obs.Func{
		Kind: obs.KindUntyped,
		Collect: func() []obs.Sample {
			s := m.Stats()
			return []obs.Sample{
				{Suffix: "_reconnects_total", Value: float64(s.Reconnects)},
				{Suffix: "_missed_heartbeats_total", Value: float64(s.MissedHeartbeats)},
				{Suffix: "_dead_associations_total", Value: float64(s.DeadAssociations)},
				{Suffix: "_dropped_indications_total", Value: float64(s.DroppedIndications)},
				{Suffix: "_busy_refusals_total", Value: float64(s.BusyRefusals)},
				{Suffix: "_busy_backpressure_total", Value: float64(s.BusyBackpressure)},
				{Suffix: "_shed_paused_total", Value: float64(s.ShedPaused)},
				{Suffix: "_degraded_ms", Value: s.DegradedMs},
			}
		},
		JSON: func() any { return m.Stats() },
	}, labels...)
}

// assocDriver is the I/O half of one association: it steps the core under
// one mutex, keeps one timer on the core's deadline, and carries out the
// other actions outside the mutex, so a write blocked on a full peer never
// stalls another event. Data frames never reach it.
type assocDriver struct {
	mu    sync.Mutex
	core  assocCore
	timer *time.Timer // created on the first arm
	conn  *e2.Conn
	do    func(action)
}

// step feeds ev to the core and carries out its actions; it reports
// whether the association ended, and why.
func (d *assocDriver) step(ev assocEvent) (ended bool, err error) {
	d.mu.Lock()
	acts := d.core.Step(time.Now(), ev, nil)
	d.mu.Unlock()
	for _, a := range acts {
		d.do(a) // before a close wakes the reader, so it sees what do counted
		switch a.kind {
		case actClose:
			d.conn.Close()
		case actEnd:
			ended, err = true, a.err
		}
	}
	// Re-point the timer at the core's deadline, whatever order steps end in.
	d.mu.Lock()
	defer d.mu.Unlock()
	switch at := d.core.deadline; {
	case d.timer != nil && at.IsZero():
		d.timer.Stop()
	case d.timer != nil:
		d.timer.Reset(time.Until(at))
	case !at.IsZero():
		d.timer = time.AfterFunc(time.Until(at), func() {
			d.step(assocEvent{kind: evTimer, frames: d.conn.Stats().Received})
		})
	}
	return ended, err
}

// watch ends the association when stop closes; unwatch stops watching and
// waits for the watcher to leave.
func (d *assocDriver) watch(stop <-chan struct{}) (unwatch func()) {
	if stop == nil {
		return func() {}
	}
	done, left := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(left)
		select {
		case <-stop:
			d.step(assocEvent{kind: evStop})
		case <-done:
		}
	}()
	return func() { close(done); <-left }
}

// runAssociations is the reconnect loop of both ends: until stop closes it
// connects and serves. A failed connect, or an association that never came
// up, waits the schedule's next delay; one that came up resets it.
func runAssociations(s *retrySchedule, connect func() (*e2.Conn, error),
	serve func(*e2.Conn) (up bool, err error), stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		conn, err := connect()
		if err == nil {
			var up bool
			if up, err = serve(conn); up {
				s.reset()
				continue
			}
		}
		t := time.NewTimer(s.next(err))
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// SessionConfig is the validated construction surface of a Session.
type SessionConfig struct {
	RIC *RIC
	// Connect obtains the next association — typically a Listener's Accept
	// or an e2.Dial closure. Run returns when stop is closed; a blocked
	// Connect must be unblocked externally (close the listener).
	Connect func() (*e2.Conn, error)
	// Metrics, when set, receives the reconnect counter. Share it with
	// Config.Assoc to aggregate both sides' observations in one place.
	Metrics *AssocMetrics
	// Seed selects the jitter schedule (0 derives a unique per-session seed).
	Seed int64
	// OnAssociation, when set, observes each established association and
	// may return a teardown hook run after it ends (either may be nil).
	OnAssociation func(conn *e2.Conn) func()
	// OnEnd, when set, observes each association's terminal error.
	OnEnd func(err error)
}

// Validate checks the configuration.
func (c SessionConfig) Validate() error {
	if c.RIC == nil {
		return errors.New("ric: session needs a RIC")
	}
	if c.Connect == nil {
		return errors.New("ric: session needs a Connect function")
	}
	return nil
}

// Session supervises the RIC side of an association: it serves each
// connection from Connect (an accept or a dial) until it dies, backing off
// on Connect failures. The RIC's xApp state persists across associations,
// so a reconnecting gNB is re-subscribed and controlled by the same
// policies without operator action.
type Session struct {
	cfg SessionConfig
}

// NewSession creates a session supervisor from a validated configuration.
func NewSession(cfg SessionConfig) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Session{cfg: cfg}, nil
}

// Run supervises associations until stop closes.
func (s *Session) Run(stop <-chan struct{}) {
	associations := 0
	serve := func(conn *e2.Conn) (bool, error) {
		associations++
		if associations > 1 && s.cfg.Metrics != nil {
			s.cfg.Metrics.Reconnects.Inc()
		}
		var teardown func()
		if s.cfg.OnAssociation != nil {
			teardown = s.cfg.OnAssociation(conn)
		}
		err := s.cfg.RIC.ServeConn(conn, stop)
		conn.Close()
		if teardown != nil {
			teardown()
		}
		if s.cfg.OnEnd != nil {
			s.cfg.OnEnd(err)
		}
		// A refused or failed association says nothing about the next
		// peer, so the RIC goes straight back to Connect.
		return true, err
	}
	runAssociations(newRetrySchedule(Backoff{}, deriveSeed(s.cfg.Seed)), s.cfg.Connect, serve, stop)
}

// AgentSessionConfig is the validated construction surface of an
// AgentSession.
type AgentSessionConfig struct {
	// Dial obtains the next connection, e.g. an e2.Dial closure.
	Dial func() (*e2.Conn, error)
	RAN  RANControl
	// Agent configures each Agent the session runs (cell, liveness bound,
	// tracer, batching).
	Agent AgentConfig
	// Backoff schedules reconnect attempts.
	Backoff Backoff
	// Metrics, when set, receives reconnect/drop/degraded-time counters.
	Metrics *AssocMetrics
	// Seed selects the jitter schedule (0 derives a unique per-session seed).
	Seed int64
}

// Validate checks the configuration.
func (c AgentSessionConfig) Validate() error {
	if c.Dial == nil {
		return errors.New("ric: agent session needs a Dial function")
	}
	if c.RAN == nil {
		return errors.New("ric: agent session needs a RAN control surface")
	}
	return c.Agent.Validate()
}

// AgentSession supervises the gNB side of an association: it dials with
// backoff, runs an Agent per association, and when the association dies it
// degrades gracefully — Tick keeps returning instantly (counting the
// indications that could not be sent) so the MAC slot loop continues on
// the gNB's native inter-slice configuration instead of stalling, the same
// escape hatch a plugin slice's native fallback is.
type AgentSession struct {
	cfg AgentSessionConfig

	// tickMu is held across each Tick, so retiring an agent waits out a
	// Tick still running on it.
	tickMu sync.Mutex

	mu           sync.Mutex
	agent        *Agent // live agent, nil while degraded
	retiring     *Agent // the agent being torn down, until its counters fold
	lastPeriod   uint64 // retained across teardowns for drop accounting
	degradedAt   time.Time
	associations uint64
	// Totals accumulated from dead agents; Counters adds the live one.
	indications, controlsOK, controlsFail, resubscribes uint64

	stop chan struct{}
	done chan struct{}
}

// NewAgentSession creates an agent-side association supervisor from a
// validated configuration.
func NewAgentSession(cfg AgentSessionConfig) (*AgentSession, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &AssocMetrics{}
	}
	return &AgentSession{cfg: cfg}, nil
}

// Start launches the supervisor. Call Stop to shut it down.
func (s *AgentSession) Start() {
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		runAssociations(newRetrySchedule(s.cfg.Backoff, deriveSeed(s.cfg.Seed)), s.cfg.Dial, s.serve, s.stop)
	}()
}

// Stop shuts the supervisor down, ending any live association, and waits
// for it to exit.
func (s *AgentSession) Stop() {
	close(s.stop)
	<-s.done
}

// serve runs one agent on conn until the association dies or Stop; it
// reports whether the association came up (was subscribed).
func (s *AgentSession) serve(conn *e2.Conn) (bool, error) {
	agent, _ := NewAgent(conn, s.cfg.RAN, s.cfg.Agent) // validated in NewAgentSession
	agent.stop = s.stop
	recvErr, err := agent.Start()
	if err != nil {
		conn.Close()
		var busy *e2.BusyError
		if errors.As(err, &busy) {
			s.cfg.Metrics.BusyRefusals.Inc()
		}
		return false, err
	}

	s.mu.Lock()
	s.associations++
	reconnect := s.associations > 1
	s.agent = agent
	if !s.degradedAt.IsZero() {
		s.cfg.Metrics.degradedNs.Add(int64(time.Since(s.degradedAt)))
		s.degradedAt = time.Time{}
	}
	s.mu.Unlock()
	if reconnect {
		s.cfg.Metrics.Reconnects.Inc()
	}

	termErr := <-recvErr
	if errors.Is(termErr, e2.ErrAssociationDead) {
		s.cfg.Metrics.DeadAssociations.Inc()
	}

	// Teardown: retire the agent, so later Ticks count as degraded and none
	// is still running on it, then fold its counters into the totals. The
	// agent has counted every indication its failed writes lost, the
	// window remainder lost with the conn included.
	s.tickMu.Lock()
	s.mu.Lock()
	s.agent, s.retiring = nil, agent
	if p := agent.Period(); p > 0 {
		s.lastPeriod = p
	}
	s.degradedAt = time.Now()
	s.mu.Unlock()
	s.tickMu.Unlock()
	_ = agent.Flush() // don't strand a partial batch window with the conn
	conn.Close()
	ind, ok, fail := agent.Counters()
	rs := agent.Resubscribes()
	bf, ps, lost := agent.OverloadCounters()
	s.cfg.Metrics.BusyBackpressure.Add(bf)
	s.cfg.Metrics.ShedPaused.Add(ps)
	s.cfg.Metrics.DroppedIndications.Add(lost)
	s.mu.Lock()
	s.indications += ind
	s.controlsOK += ok
	s.controlsFail += fail
	s.resubscribes += rs
	s.retiring = nil
	s.mu.Unlock()
	return true, termErr
}

// Tick is called by the owner after each MAC slot. While an association is
// live it forwards to the Agent, which counts what a failed write loses;
// while degraded it counts a due indication as dropped and returns
// immediately — it never stalls or aborts the slot loop.
func (s *AgentSession) Tick(slot uint64) {
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	s.mu.Lock()
	agent := s.agent
	period := s.lastPeriod
	s.mu.Unlock()
	if agent != nil {
		// A failed write means the conn died; the supervisor reconnects
		// shortly.
		_ = agent.Tick(slot)
		return
	}
	if period > 0 && slot%period == 0 {
		s.cfg.Metrics.DroppedIndications.Inc()
	}
}

// Connected reports whether an association is currently live.
func (s *AgentSession) Connected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agent != nil
}

// Associations reports how many associations were established in total.
func (s *AgentSession) Associations() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.associations
}

// LiveCounters reports the current association's indication and
// control-success counts, with live=false (and zeros) while degraded. It
// lets callers prove delivery on the association that survived a fault
// storm, not just in aggregate.
func (s *AgentSession) LiveCounters() (indications, controlsOK uint64, live bool) {
	s.mu.Lock()
	agent := s.agent
	s.mu.Unlock()
	if agent == nil {
		return 0, 0, false
	}
	ind, ok, _ := agent.Counters()
	return ind, ok, true
}

// Counters aggregates indication and control outcomes across every
// association this session has run.
func (s *AgentSession) Counters() (indications, controlsOK, controlsFail, resubscribes uint64) {
	s.mu.Lock()
	agent := s.agent
	if agent == nil {
		agent = s.retiring
	}
	indications, controlsOK, controlsFail, resubscribes =
		s.indications, s.controlsOK, s.controlsFail, s.resubscribes
	s.mu.Unlock()
	if agent != nil {
		ai, ao, af := agent.Counters()
		indications += ai
		controlsOK += ao
		controlsFail += af
		resubscribes += agent.Resubscribes()
	}
	return indications, controlsOK, controlsFail, resubscribes
}
