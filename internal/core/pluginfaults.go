package core

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"waran/internal/guard"
	"waran/internal/obs/flight"
	"waran/internal/plugins"
	"waran/internal/wabi"
	"waran/internal/wat"
)

// slotClock is the experiment's virtual time source: one tick per group
// slot, 1 ms per tick, injected as the breaker clock so quarantine backoffs
// are measured in slots and the whole fault storm is deterministic.
type slotClock struct {
	slot atomic.Uint64 // metric-exempt: virtual clock, not telemetry
}

// Now implements the guard.BreakerConfig clock.
func (c *slotClock) Now() time.Time {
	return time.Unix(0, 0).Add(time.Duration(c.slot.Load()) * time.Millisecond)
}

// Tick advances virtual time by one slot.
func (c *slotClock) Tick() { c.slot.Add(1) }

// PluginFaultsResult is the plugin-fault-storm experiment outcome: a
// multi-cell group with one chaos-wrapped hostile plugin, reporting how fast
// the breaker contained it, what quarantined operation cost, the shadow-
// validated recovery swap, the sleeper-candidate rollback, and whether the
// supervisor's per-class failure counters exactly match the injected fault
// schedule.
type PluginFaultsResult struct {
	Cells       int   `json:"cells"`
	Parallelism int   `json:"parallelism"`
	Seed        int64 `json:"seed"`

	SlotsTotal  uint64 `json:"slots_total"`
	SlotsToOpen uint64 `json:"slots_to_open"`

	// Deadline containment: overruns before the breaker opened (the hostile
	// plugin was still being called) vs after (quarantined / recovered).
	OverrunsPreOpen  uint64 `json:"overruns_pre_open"`
	OverrunsPostOpen uint64 `json:"overruns_post_open"`
	SlotsPostOpen    uint64 `json:"slots_post_open"`

	// FallbackSlots counts the hostile slice's slots the native fallback
	// served across all cells: the plugin failed them or its breaker refused.
	FallbackSlots uint64 `json:"fallback_slots"`

	HostileChaos wabi.ChaosStats `json:"hostile_chaos"`
	LiarChaos    wabi.ChaosStats `json:"liar_chaos"`

	RecoveryShadow *guard.ShadowReport `json:"recovery_shadow"`
	LiarShadow     *guard.ShadowReport `json:"liar_shadow"`

	Supervisor guard.SupervisorStats `json:"supervisor"`

	// FaultClassesMatch is the ledger check: every injected fault appears in
	// the breaker's per-class counters exactly once, and nothing else does.
	FaultClassesMatch bool   `json:"fault_classes_match"`
	ActiveScheduler   string `json:"active_scheduler"`

	// Flight is the incident-journal digest when the experiment ran with
	// the flight recorder armed (ExpConfig.Flight).
	Flight *flight.Summary `json:"flight,omitempty"`

	Obs map[string]any `json:"obs,omitempty"`
}

// flightBundleDir resolves an experiment's bundle directory, creating a
// temporary one when the caller did not pick a location.
func flightBundleDir(dir string) (string, error) {
	if dir != "" {
		return dir, nil
	}
	return os.MkdirTemp("", "waran-flight-")
}

// BuildSupervisedGroup assembles the Fig. 5a multi-cell deployment the way
// every group is built, one supervised pooled plugin per slice, with gcfg as
// the group's Guard. The slice with hostileID runs its plugin under the given
// chaos schedule; all supervisors share the breaker configuration (and
// therefore its clock).
func BuildSupervisedGroup(cells, par int, hostileID uint32, chaos *wabi.Chaos, gcfg guard.Config, deadline time.Duration) (*CellGroup, error) {
	cg, err := fig5aGroup(CellGroupConfig{Cells: cells, Parallelism: par, SlotDeadline: deadline})
	if err != nil {
		return nil, err
	}
	cg.Guard = gcfg
	for _, sp := range DefaultFig5aSpecs() {
		cg.PluginEnv.Chaos = nil
		if sp.ID == hostileID {
			cg.PluginEnv.Chaos = chaos
		}
		if _, err := cg.InstallPooledScheduler(sp.ID, sp.Scheduler, wabi.Policy{}, cells); err != nil {
			return nil, err
		}
	}
	cg.PluginEnv.Chaos = nil
	return cg, nil
}

// RunPluginFaults storms a multi-cell group with a hostile plugin and walks
// the full supervisor lifecycle: open → quarantine → shadow-validated
// recovery swap → probation → sleeper-candidate rollback → steady state.
func RunPluginFaults(cfg ExpConfig) (*PluginFaultsResult, error) {
	cells := cfg.Cells
	if cells <= 0 {
		cells = 4
	}
	par := cfg.Parallelism
	if par <= 0 {
		par = cells
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 7
	}
	const hostileSlice = 1

	clock := &slotClock{}
	// Every hostile call fails fast — traps, stolen fuel and corrupted
	// outputs, never stalls — so containment costs microseconds, not slots.
	hostileChaos := wabi.NewChaos(wabi.ChaosConfig{
		Seed:          seed,
		TrapProb:      0.5,
		FuelTheftProb: 0.25,
		CorruptProb:   1,
	})
	gcfg := guard.Config{
		Breaker: guard.BreakerConfig{
			Window:         32,
			MinSamples:     8,
			FailureRate:    0.5,
			Backoff:        50 * time.Millisecond, // 50 slots of virtual time
			MaxBackoff:     400 * time.Millisecond,
			ProbeSuccesses: 3,
			Now:            clock.Now,
		},
		RecordedInputs: 32,
		ProbationCalls: 256,
		// Both swaps in this storyline are built to pass shadow validation;
		// the latency budget only guards against a stalling candidate, and
		// the guard default (750 µs) is a per-call wall-clock bound a loaded
		// single-CPU box under the race detector blows spuriously mid-replay.
		ShadowLatencyBudget: 10 * time.Millisecond,
	}
	cg, err := BuildSupervisedGroup(cells, par, hostileSlice, hostileChaos, gcfg, cfg.SlotDeadline)
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		cg.EnableObservability(cfg.Obs, cfg.Trace)
	}
	sup := cg.Supervisor(hostileSlice)
	rep := &PluginFaultsResult{Cells: cells, Parallelism: par, Seed: seed}

	// With the flight knob armed the whole storm is journaled, and the
	// breaker trip and sleeper rollback must each trigger (or be swept into)
	// a diagnostic bundle — the run fails otherwise.
	var frec *flight.Recorder
	var fcap *flight.Capturer
	if cfg.Flight != 0 {
		frec = flight.NewRecorder(4096)
		cg.SetFlightRecorder(frec)
		frec.SetTriggers(flight.EvBreakerOpen, flight.EvRollback)
		dir, err := flightBundleDir(cfg.FlightDir)
		if err != nil {
			return nil, err
		}
		fcap, err = flight.NewCapturer(frec, flight.CapturerConfig{
			Dir: dir, Debounce: 50 * time.Millisecond, GoroutineDump: -1,
			Registry: cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		fstop := make(chan struct{})
		defer close(fstop)
		go fcap.Run(fstop)
	}

	runSlots := func(n int) {
		for i := 0; i < n; i++ {
			cg.StepAll()
			clock.Tick()
		}
	}
	overruns := func() uint64 {
		var total uint64
		for _, st := range cg.WatchdogStats() {
			total += st.Overruns
		}
		return total
	}

	// Phase 1 — fault storm until the breaker opens.
	for i := 0; i < 500 && sup.Breaker().State() != guard.Open; i++ {
		runSlots(1)
	}
	if sup.Breaker().State() != guard.Open {
		return nil, fmt.Errorf("core: pluginfaults: breaker never opened under the fault storm")
	}
	rep.SlotsToOpen = cg.Slot()
	rep.OverrunsPreOpen = overruns()
	atOpen := rep.OverrunsPreOpen

	// Phase 2 — quarantined operation: the hostile slice rides the native
	// fallback; half-open probes keep failing with doubling backoff.
	runSlots(200)

	// Phase 3 — recovery: upload a healthy PF scheduler; the supervisor
	// shadow-validates it against recorded slot inputs and promotes it.
	blob, err := wat.CompileToBinary(plugins.ProportionalFairWAT)
	if err != nil {
		return nil, err
	}
	rep.RecoveryShadow, err = cg.UploadSchedulerAll(hostileSlice, "pf-recovery", blob, wabi.Policy{}, par)
	if err != nil {
		return nil, fmt.Errorf("core: pluginfaults: recovery swap rejected: %w", err)
	}

	// Phase 4 — probation decays while ≥1000 slots run clean on the
	// promoted candidate.
	runSlots(1100)

	// Phase 5 — a sleeper candidate: passes shadow validation (its chaos
	// schedule is inert for more calls than the replay ring holds), then
	// turns 100% hostile inside the probation window. The breaker trip must
	// roll back to the last-known-good PF scheduler.
	liarChaos := wabi.NewChaos(wabi.ChaosConfig{
		Seed:          seed + 1,
		TrapProb:      1,
		ActivateAfter: 64,
	})
	liarBlob, err := wat.CompileToBinary(plugins.MaxThroughputWAT)
	if err != nil {
		return nil, err
	}
	liar, err := cg.BuildPooledCandidate("mt-sleeper", liarBlob, wabi.Policy{}, wabi.Env{Chaos: liarChaos}, par)
	if err != nil {
		return nil, err
	}
	rep.LiarShadow, err = sup.Swap(liar)
	if err != nil {
		return nil, fmt.Errorf("core: pluginfaults: sleeper candidate failed shadow validation it was built to pass: %w", err)
	}
	for i := 0; i < 300 && sup.Stats().Rollbacks == 0; i++ {
		runSlots(1)
	}
	if sup.Stats().Rollbacks == 0 {
		return nil, fmt.Errorf("core: pluginfaults: sleeper candidate never triggered a rollback")
	}

	// Phase 6 — steady state on the restored last-known-good scheduler.
	runSlots(200)

	rep.SlotsTotal = cg.Slot()
	rep.SlotsPostOpen = rep.SlotsTotal - rep.SlotsToOpen
	rep.OverrunsPostOpen = overruns() - atOpen
	rep.HostileChaos = hostileChaos.Stats()
	rep.LiarChaos = liarChaos.Stats()
	rep.Supervisor = sup.Stats()
	for c := 0; c < cells; c++ {
		if s, ok := cg.Cell(c).Slices.Slice(hostileSlice); ok {
			rep.FallbackSlots += s.Stats().FallbackSlots
		}
	}
	rep.ActiveScheduler = sup.Active().Name()

	// Ledger check: injected faults and metered failures must agree per
	// class — every chaos draw was one plugin call, classified exactly once.
	br := sup.Breaker()
	rep.FaultClassesMatch = br.FailureCount(wabi.FailTrap) == rep.HostileChaos.Traps+rep.LiarChaos.Traps &&
		br.FailureCount(wabi.FailFuel) == rep.HostileChaos.FuelThefts+rep.LiarChaos.FuelThefts &&
		br.FailureCount(wabi.FailBadOutput) == rep.HostileChaos.Corruptions+rep.LiarChaos.Corruptions

	if fcap != nil {
		// Sweep the journal tail (rollback events may have landed inside the
		// debounce window) and verify the storm's evidence reached disk.
		if _, err := fcap.CaptureNow("pluginfaults-final"); err != nil {
			return nil, err
		}
		sum, ok, err := flight.Summarize(frec, fcap, flight.EvBreakerOpen, flight.EvRollback)
		if err != nil {
			return nil, err
		}
		rep.Flight = sum
		if !ok {
			return rep, fmt.Errorf("core: pluginfaults: flight recorder produced no bundle covering %s and %s",
				flight.EvBreakerOpen, flight.EvRollback)
		}
	}

	if cfg.Obs != nil {
		rep.Obs = cfg.Obs.Snapshot()
	}
	return rep, nil
}
