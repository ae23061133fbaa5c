package guard

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"waran/internal/obs"
	"waran/internal/obs/flight"
	"waran/internal/sched"
	"waran/internal/wabi"
)

// Config tunes a Supervisor. The zero value gets defaults: an 8-request
// shadow-replay ring, a 750 µs per-replay shadow latency budget, a 3× fuel
// bound against the incumbent, and a 256-call post-promotion probation
// window.
type Config struct {
	// Breaker configures the plugin's circuit breaker.
	Breaker BreakerConfig
	// RecordedInputs is how many recent slot requests are retained for
	// shadow validation of hot-swap candidates (default 8).
	RecordedInputs int
	// ShadowLatencyBudget is the per-replay wall-clock cap a candidate must
	// meet during shadow validation (default 750 µs — a decision that slow
	// cannot fit the 1 ms slot alongside the rest of the loop). A candidate
	// is rejected when most of its timed replays exceed it; the first replay
	// is the candidate's warm-up and is not timed.
	ShadowLatencyBudget time.Duration
	// ShadowSlowdown bounds the candidate's mean shadow fuel to this multiple
	// of the incumbent's observed mean fuel (default 3). Only enforced while
	// the incumbent is healthy and metered — a quarantined or native
	// incumbent is no baseline worth defending.
	ShadowSlowdown float64
}

// probationCalls is the post-promotion window during which a breaker trip
// rolls back to the last-known-good scheduler.
const probationCalls = 256

func (c Config) withDefaults() Config {
	if c.RecordedInputs <= 0 {
		c.RecordedInputs = 8
	}
	if c.ShadowLatencyBudget <= 0 {
		c.ShadowLatencyBudget = 750 * time.Microsecond
	}
	if c.ShadowSlowdown <= 0 {
		c.ShadowSlowdown = 3
	}
	return c
}

// Supervisor wraps one slice's intra-slice scheduler with the plugin
// lifecycle: per-class failure metering through a circuit breaker, refusal
// while the breaker is open, half-open recovery probes, canary hot-swap with
// shadow validation against recorded slot inputs, and rollback to the
// last-known-good scheduler if a promoted candidate trips the breaker during
// probation. It owns no fallback: a failed call returns the scheduler's
// error, a refused one an error wrapping sched.ErrRefused, and the slice's
// native fallback (slicing.Manager.Schedule) serves the slot either way.
//
// Supervisor implements sched.IntraSlice and sched.IntoScheduler and is safe
// for concurrent use, so parallel cells sharing one plugin share one
// supervisor — and one breaker, so a failure observed by any cell counts
// exactly once.
type Supervisor struct {
	name    string
	refusal error // returned while the breaker refuses calls, built once
	cfg     Config
	br      *Breaker
	active  atomic.Pointer[incumbent] // read without mu on every call

	// mu is the breaker's lock: a call records its outcome in the breaker
	// and in the fields below in one critical section.
	mu        *sync.Mutex
	flight    *flight.Recorder // nil = lifecycle transitions are unjournaled
	lastGood  sched.IntraSlice
	recorded  []sched.Request // ring of recent requests, reused in place
	recHead   int
	recCount  int
	probation int     // remaining probation calls; 0 = out of probation
	fuelEWMA  float64 // incumbent mean fuel per decision

	calls      uint64
	successes  uint64
	promotions uint64
	rollbacks  uint64
	shadowPass uint64
	shadowFail uint64
}

// incumbent boxes the active scheduler for the atomic pointer.
type incumbent struct{ sched.IntraSlice }

// New supervises active. name labels the supervisor in errors, stats and the
// flight journal; it outlives every scheduler the supervisor runs, so the gNB
// names it after the slice.
func New(name string, active sched.IntraSlice, cfg Config) *Supervisor {
	cfg = cfg.withDefaults()
	s := &Supervisor{
		name:     name,
		refusal:  fmt.Errorf("guard: %s: breaker is not admitting calls: %w", name, sched.ErrRefused),
		cfg:      cfg,
		br:       NewBreaker(cfg.Breaker),
		recorded: make([]sched.Request, cfg.RecordedInputs),
	}
	s.mu = &s.br.mu
	s.active.Store(&incumbent{active})
	return s
}

// Name implements sched.IntraSlice: the active scheduler's name, so slot
// traces and slice stats read "pool:pf" whether or not a supervisor sits in
// front of it.
func (s *Supervisor) Name() string { return s.Active().Name() }

// Breaker exposes the circuit breaker for inspection.
func (s *Supervisor) Breaker() *Breaker { return s.br }

// SetFlightRecorder journals the supervisor's lifecycle into rec: breaker
// state transitions (EvBreakerOpen/HalfOpen/Close), sandbox failures by
// class, promoted canary swaps and probation rollbacks. A nil rec detaches.
func (s *Supervisor) SetFlightRecorder(rec *flight.Recorder) {
	s.mu.Lock()
	s.flight = rec
	s.mu.Unlock()
	if rec == nil {
		s.br.SetTransitionHook(nil)
		return
	}
	s.br.SetTransitionHook(func(from, to State) {
		class := flight.EvBreakerClose
		switch to {
		case Open:
			class = flight.EvBreakerOpen
		case HalfOpen:
			class = flight.EvBreakerHalfOpen
		}
		rec.Record(flight.Event{
			Class: class, Plane: flight.PlaneGNB,
			Detail: s.name + ": " + from.String() + "->" + to.String(),
		})
	})
}

// Active returns the currently promoted scheduler.
func (s *Supervisor) Active() sched.IntraSlice { return s.active.Load().IntraSlice }

// Schedule implements sched.IntraSlice: ScheduleInto on a fresh Response.
func (s *Supervisor) Schedule(req *sched.Request) (*sched.Response, error) {
	return sched.ScheduleInto(s, req, &sched.Response{})
}

// ScheduleInto implements sched.IntoScheduler. The breaker is consulted
// (lock-free while closed); an admitted call runs the active scheduler into
// resp and its outcome is metered, a refused one returns the refusal error.
// Either way the request joins the replay ring, under the one lock the call
// takes.
func (s *Supervisor) ScheduleInto(req *sched.Request, resp *sched.Response) error {
	if !s.br.Allow() {
		s.mu.Lock()
		s.calls++
		s.record(req)
		s.mu.Unlock()
		return s.refusal
	}
	got, err := sched.ScheduleInto(s.Active(), req, resp)
	if err == nil && got != resp {
		resp.Allocs, resp.FuelUsed = append(resp.Allocs, got.Allocs...), got.FuelUsed
	}
	class := wabi.ClassOf(err)

	s.mu.Lock()
	s.br.record(class)
	s.calls++
	s.record(req)
	rec := s.flight
	if err == nil {
		s.successes++
		if fuel := float64(resp.FuelUsed); s.fuelEWMA == 0 {
			s.fuelEWMA = fuel
		} else {
			s.fuelEWMA = 0.9*s.fuelEWMA + 0.1*fuel
		}
		if s.probation > 0 {
			s.probation--
		}
	} else {
		s.maybeRollback()
	}
	s.mu.Unlock()
	if err != nil && rec.Enabled() {
		rec.Record(flight.Event{
			Class: flight.EvSandboxFault, Plane: flight.PlaneWasm, Slot: req.Slot,
			Detail: s.name + ": " + class.String(),
		})
	}
	return err
}

// record copies req into the replay ring; callers hold mu. The copy matters
// — the slot engine reuses request backing arrays across slots — and reuses
// the slot's UE array, so a warm ring records without allocating.
func (s *Supervisor) record(req *sched.Request) {
	r := &s.recorded[s.recHead]
	ues := append(r.UEs[:0], req.UEs...)
	*r = *req
	r.UEs = ues
	s.recHead = (s.recHead + 1) % len(s.recorded)
	if s.recCount < len(s.recorded) {
		s.recCount++
	}
}

// maybeRollback reverts to the last-known-good scheduler when a promoted
// candidate has tripped the breaker inside its probation window; callers
// hold mu.
func (s *Supervisor) maybeRollback() {
	if s.probation == 0 || s.lastGood == nil || s.br.state != Open {
		return
	}
	s.active.Store(&incumbent{s.lastGood})
	s.lastGood = nil
	s.probation = 0
	s.rollbacks++
	s.flight.Record(flight.Event{
		Class: flight.EvRollback, Plane: flight.PlaneGNB,
		Detail: s.name + ": probation breaker trip, reverted to last-good",
	})
	s.br.close()
}

// ShadowReport describes one shadow-validation run of a hot-swap candidate.
// Runs counts the replays run: the first failing one ends the run. Fuel is
// the sandbox fuel per decision: instructions, not wall time, so the gate
// between two candidates reads the same on any machine and under any load.
type ShadowReport struct {
	Runs             int     `json:"runs"`
	Promoted         bool    `json:"promoted"`
	Reason           string  `json:"reason,omitempty"`
	CandidateAvgFuel float64 `json:"candidate_avg_fuel"`
	IncumbentAvgFuel float64 `json:"incumbent_avg_fuel"`
}

// RejectedError is Swap's refusal of a candidate; Report says what the
// shadow replays saw.
type RejectedError struct {
	Supervisor string
	Report     *ShadowReport
}

func (e *RejectedError) Error() string {
	return "guard: " + e.Supervisor + ": candidate rejected: " + e.Report.Reason
}

// Swap shadow-validates candidate against the recorded slot inputs and, on
// pass, promotes it under a fresh breaker and a probation window. The
// incumbent is retained as last-known-good only if it was healthy (closed
// breaker) at swap time — a hot-swap during an open breaker replaces the
// quarantined incumbent, which must never become a rollback target. On
// rejection the incumbent stays active and the error is a *RejectedError.
func (s *Supervisor) Swap(candidate sched.IntraSlice) (*ShadowReport, error) {
	// Copy the ring out oldest-first: the slot path keeps overwriting it.
	s.mu.Lock()
	inputs := make([]sched.Request, s.recCount)
	for i := range inputs {
		inputs[i] = s.recorded[(s.recHead-s.recCount+i+len(s.recorded))%len(s.recorded)]
		inputs[i].UEs = slices.Clone(inputs[i].UEs)
	}
	incumbentFuel := s.fuelEWMA
	s.mu.Unlock()

	rep := &ShadowReport{IncumbentAvgFuel: incumbentFuel}
	healthy := s.br.State() == Closed

	// One failing replay rejects the candidate; running the rest would only
	// stall the caller (a control apply holds its cell) on a hostile guest.
	// Wall time rejects it once most timed replays blow the budget: a slow
	// candidate is slow on every replay, while one preempted replay says
	// nothing about it. The first replay is not timed: it pays the
	// candidate's one-time costs (a new sandbox's first call).
	var fuel int64
	slow, timed := 0, len(inputs)-1
	for i := range inputs {
		req := &inputs[i]
		rep.Runs++
		start := time.Now()
		resp, err := candidate.Schedule(req)
		d := time.Since(start)
		if err != nil {
			rep.Reason = fmt.Sprintf("shadow replay %d/%d (slot %d): %v", rep.Runs, len(inputs), req.Slot, err)
			break
		}
		fuel += resp.FuelUsed
		if i > 0 && d > s.cfg.ShadowLatencyBudget {
			if slow++; 2*slow > timed {
				rep.Reason = fmt.Sprintf("%d of %d timed shadow replays exceed shadow budget %v (replay %d, slot %d: %v)",
					slow, timed, s.cfg.ShadowLatencyBudget, rep.Runs, req.Slot, d)
				break
			}
		}
	}
	if rep.Reason == "" && rep.Runs > 0 {
		rep.CandidateAvgFuel = float64(fuel) / float64(rep.Runs)
	}
	// Enforce the fuel bound only against a healthy incumbent: if the breaker
	// is open the slice is running on fallback and any correct candidate
	// beats it.
	if rep.Reason == "" && healthy && incumbentFuel > 0 && rep.CandidateAvgFuel > s.cfg.ShadowSlowdown*incumbentFuel {
		rep.Reason = fmt.Sprintf("candidate mean fuel %.0f exceeds %.1f× incumbent mean fuel %.0f",
			rep.CandidateAvgFuel, s.cfg.ShadowSlowdown, incumbentFuel)
	}
	if rep.Reason != "" {
		s.mu.Lock()
		s.shadowFail++
		s.mu.Unlock()
		return rep, &RejectedError{Supervisor: s.name, Report: rep}
	}

	s.mu.Lock()
	if healthy {
		s.lastGood = s.Active()
	}
	s.active.Store(&incumbent{candidate})
	s.probation = probationCalls
	s.fuelEWMA = rep.CandidateAvgFuel
	s.promotions++
	s.shadowPass++
	s.br.close()
	rec := s.flight
	s.mu.Unlock()
	if rec.Enabled() {
		rec.Record(flight.Event{
			Class: flight.EvCanarySwap, Plane: flight.PlaneGNB,
			Detail: fmt.Sprintf("%s: promoted after %d shadow replays", s.name, rep.Runs),
			Value:  rep.CandidateAvgFuel,
		})
	}
	rep.Promoted = true
	return rep, nil
}

// SupervisorStats is the flat snapshot of a Supervisor.
type SupervisorStats struct {
	Name       string       `json:"name"`
	Active     string       `json:"active"`
	Calls      uint64       `json:"calls"`
	Successes  uint64       `json:"successes"`
	Promotions uint64       `json:"promotions"`
	Rollbacks  uint64       `json:"rollbacks"`
	ShadowPass uint64       `json:"shadow_pass"`
	ShadowFail uint64       `json:"shadow_fail"`
	Probation  int          `json:"probation"`
	MeanFuel   float64      `json:"mean_fuel"`
	Breaker    BreakerStats `json:"breaker"`
}

// Stats returns current supervisor accounting.
func (s *Supervisor) Stats() SupervisorStats {
	s.mu.Lock()
	st := SupervisorStats{
		Name:       s.name,
		Active:     s.Active().Name(),
		Calls:      s.calls,
		Successes:  s.successes,
		Promotions: s.promotions,
		Rollbacks:  s.rollbacks,
		ShadowPass: s.shadowPass,
		ShadowFail: s.shadowFail,
		Probation:  s.probation,
		MeanFuel:   s.fuelEWMA,
	}
	s.mu.Unlock()
	st.Breaker = s.br.Stats()
	return st
}

// stateValue maps breaker states onto a gauge: 0 closed, 0.5 half-open,
// 1 open — "how quarantined is this plugin".
func stateValue(state string) float64 {
	switch state {
	case "open":
		return 1
	case "half-open":
		return 0.5
	default:
		return 0
	}
}

// Register exposes the supervisor on reg under waran_guard_* with the given
// labels (typically the slice the supervisor protects).
func (s *Supervisor) Register(reg *obs.Registry, labels ...obs.Label) {
	reg.MustRegister("waran_guard", "plugin lifecycle supervisor: breaker state, per-class failures, swaps and rollbacks", obs.Func{
		Kind: obs.KindUntyped,
		Collect: func() []obs.Sample {
			st := s.Stats()
			samples := []obs.Sample{
				{Suffix: "_breaker_state", Value: stateValue(st.Breaker.State)},
				{Suffix: "_health", Value: st.Breaker.Health},
				{Suffix: "_calls_total", Value: float64(st.Calls)},
				{Suffix: "_successes_total", Value: float64(st.Successes)},
				{Suffix: "_opens_total", Value: float64(st.Breaker.Opens)},
				{Suffix: "_reopens_total", Value: float64(st.Breaker.Reopens)},
				{Suffix: "_probes_total", Value: float64(st.Breaker.Probes)},
				{Suffix: "_probe_fails_total", Value: float64(st.Breaker.ProbeFails)},
				{Suffix: "_promotions_total", Value: float64(st.Promotions)},
				{Suffix: "_rollbacks_total", Value: float64(st.Rollbacks)},
				{Suffix: "_shadow_pass_total", Value: float64(st.ShadowPass)},
				{Suffix: "_shadow_fail_total", Value: float64(st.ShadowFail)},
				{Suffix: "_probation_calls", Value: float64(st.Probation)},
			}
			for _, c := range wabi.FailureClasses() {
				samples = append(samples, obs.Sample{
					Suffix: "_failures_total",
					Labels: []obs.Label{obs.L("class", c.String())},
					Value:  float64(s.br.FailureCount(c)),
				})
			}
			return samples
		},
		JSON: func() any { return s.Stats() },
	}, labels...)
}
