package exp

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"waran/internal/core"
	"waran/internal/guard"
	"waran/internal/obs"
	"waran/internal/obs/flight"
	"waran/internal/plugins"
	"waran/internal/sched"
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
// multi-cell group with one hostile chaos guest, reporting how fast the
// breaker contained it, what quarantined operation cost, the shadow-
// validated recovery swap, the sleeper-candidate rollback, and whether the
// supervisor's per-class failure counters exactly match the chaos guests'
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

	// ScheduledFaults is the chaos guests' schedule recomputed in Go, by
	// failure class: each slot, the calls a guest served times the class it
	// produces for that slot.
	ScheduledFaults map[string]uint64 `json:"scheduled_faults"`

	RecoveryShadow *guard.ShadowReport `json:"recovery_shadow"`
	LiarShadow     *guard.ShadowReport `json:"liar_shadow"`

	Supervisor guard.SupervisorStats `json:"supervisor"`

	// FaultClassesMatch is the ledger check: the breaker's per-class
	// counters equal ScheduledFaults for trap, fuel-exhausted and bad-output.
	FaultClassesMatch bool   `json:"fault_classes_match"`
	ActiveScheduler   string `json:"active_scheduler"`

	// Flight is the incident-journal digest when the experiment ran with
	// the flight recorder armed (PluginFaultsConfig.Flight).
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

// chaosFuel is the per-call instruction budget of the experiment's chaos
// guests: ample for a scheduler decision, and a spinning call burns it in
// well under a slot.
const chaosFuel = 100_000

// BuildSupervisedGroup assembles the Fig. 5a multi-cell deployment the way
// every group is built, one supervised pooled plugin per slice, with gcfg as
// the group's Guard. The slice with hostileID runs the hostile bytecode under
// policy instead of its built-in scheduler; all supervisors share the breaker
// configuration (and therefore its clock).
func BuildSupervisedGroup(cells, par int, hostileID uint32, hostile []byte, policy wabi.Policy, gcfg guard.Config, deadline time.Duration) (*core.CellGroup, error) {
	cg, err := fig5aGroup(core.CellGroupConfig{Cells: cells, Parallelism: par, SlotDeadline: deadline})
	if err != nil {
		return nil, err
	}
	cg.Guard = gcfg
	for _, sp := range core.DefaultFig5aSpecs() {
		if sp.ID != hostileID {
			_, err = cg.InstallPooledScheduler(sp.ID, sp.Scheduler, wabi.Policy{}, cells)
		} else {
			err = installHostile(cg, sp.ID, "chaos-"+sp.Scheduler, hostile, policy)
		}
		if err != nil {
			return nil, err
		}
	}
	return cg, nil
}

// installHostile runs bytecode on slice sliceID of every cell as one pool
// under the group's supervisor.
func installHostile(cg *core.CellGroup, sliceID uint32, name string, bin []byte, policy wabi.Policy) error {
	ps, err := cg.BuildPooledCandidate(name, bin, policy, cg.NumCells())
	if err != nil {
		return err
	}
	for c := 0; c < cg.NumCells(); c++ {
		if err := cg.Cell(c).Slices.HotSwap(sliceID, ps); err != nil {
			return err
		}
	}
	_, err = cg.Cell(0).Supervise(sliceID)
	return err
}

// chaosBinary assembles the chaos guest around the built-in scheduler inner.
func chaosBinary(inner string, seed, cleanBefore uint64) ([]byte, error) {
	src, ok := plugins.ChaosWAT(inner, seed, cleanBefore)
	if !ok {
		return nil, fmt.Errorf("exp: unknown built-in scheduler %q", inner)
	}
	return wat.CompileToBinary(src)
}

// PluginFaultsConfig parameterizes the plugin-fault-storm experiment.
type PluginFaultsConfig struct {
	// Cells is the group size (default 4).
	Cells int
	// Parallelism is the group's stripe count (0 = Cells).
	Parallelism int
	// Seed selects the chaos guests' fault schedule. Zero is a seed like any
	// other; the experiment's table binds 7.
	Seed int64
	// SlotDeadline is each cell's wall-clock slot budget (0 = the paper's
	// 1 ms); tests raise it so shared-machine jitter cannot register as a
	// missed deadline.
	SlotDeadline time.Duration
	// Flight journals the whole storm; the breaker trip and the sleeper
	// rollback must reach a diagnostic bundle, or the run fails.
	Flight bool
	// FlightDir is where diagnostic bundles land (empty = temp dir).
	FlightDir string
	// Obs, when non-nil, receives the group's instruments and the result
	// embeds its snapshot.
	Obs *obs.Registry
}

func (c PluginFaultsConfig) withDefaults() PluginFaultsConfig {
	if c.Cells <= 0 {
		c.Cells = 4
	}
	return c
}

// RunPluginFaults storms a multi-cell group with a hostile plugin and walks
// the full supervisor lifecycle: open → quarantine → shadow-validated
// recovery swap → probation → sleeper-candidate rollback → steady state.
func RunPluginFaults(cfg PluginFaultsConfig) (*PluginFaultsResult, error) {
	cfg = cfg.withDefaults()
	cells, par, seed := cfg.Cells, cfg.Parallelism, cfg.Seed
	if par <= 0 {
		par = cells
	}
	const hostileSlice = 1

	clock := &slotClock{}
	// The hostile slice (MVNO-1, MT) runs a chaos guest that faults on every
	// call from slot 0 — traps, spins the meter stops after chaosFuel
	// instructions, corrupt counts — so containment costs well under a slot
	// per call.
	hostile, err := chaosBinary("mt", uint64(seed), 0)
	if err != nil {
		return nil, err
	}
	gcfg := guard.Config{
		Breaker: guard.BreakerConfig{
			Window:     32,
			MinSamples: 8,
			Backoff:    50 * time.Millisecond, // 50 slots of virtual time
			MaxBackoff: 400 * time.Millisecond,
			Now:        clock.Now,
		},
		RecordedInputs: 32,
		// Both swaps in this storyline are built to pass shadow validation;
		// the latency budget only guards against a stalling candidate, and
		// the guard default (750 µs) is a per-call wall-clock bound a loaded
		// single-CPU box under the race detector blows spuriously mid-replay.
		ShadowLatencyBudget: 10 * time.Millisecond,
	}
	cg, err := BuildSupervisedGroup(cells, par, hostileSlice, hostile, wabi.Policy{Fuel: chaosFuel}, gcfg, cfg.SlotDeadline)
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		cg.EnableObservability(cfg.Obs, nil)
	}
	sup := cg.Supervisor(hostileSlice)
	rep := &PluginFaultsResult{Cells: cells, Parallelism: par, Seed: seed, ScheduledFaults: map[string]uint64{}}

	// With the flight knob armed the whole storm is journaled, and the
	// breaker trip and sleeper rollback must each trigger (or be swept into)
	// a diagnostic bundle — the run fails otherwise.
	var frec *flight.Recorder
	var fcap *flight.Capturer
	if cfg.Flight {
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

	// guests are the chaos guests installed so far. Every call a guest
	// serves in a slot fails with the class ChaosFault recomputes for that
	// slot, so the slot adds the calls the guest's own pool served to the
	// schedule under that class.
	type chaosGuest struct {
		ps                *sched.PoolScheduler
		seed, cleanBefore uint64
	}
	guests := []chaosGuest{{sup.Active().(*sched.PoolScheduler), uint64(seed), 0}}
	runSlots := func(n int) {
		for i := 0; i < n; i++ {
			slot, before := cg.Slot(), make([]uint64, len(guests))
			for k, g := range guests {
				before[k] = g.ps.Stats().Calls
			}
			cg.StepAll()
			clock.Tick()
			for k, g := range guests {
				if class := plugins.ChaosFault(g.seed, g.cleanBefore, hostileSlice, slot); class != wabi.FailNone {
					rep.ScheduledFaults[class.String()] += g.ps.Stats().Calls - before[k]
				}
			}
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
		return nil, fmt.Errorf("exp: pluginfaults: breaker never opened under the fault storm")
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
		return nil, fmt.Errorf("exp: pluginfaults: recovery swap rejected: %w", err)
	}

	// Phase 4 — probation decays while ≥1000 slots run clean on the
	// promoted candidate.
	runSlots(1100)

	// Phase 5 — a sleeper candidate: an MT chaos guest that is clean for the
	// recorded slots it is shadow-validated on and for 8 slots after, then
	// faults on every call inside the probation window. The breaker trip must
	// roll back to the last-known-good PF scheduler.
	liarSeed, liarTurns := uint64(seed)+1, cg.Slot()+8
	liarBlob, err := chaosBinary("mt", liarSeed, liarTurns)
	if err != nil {
		return nil, err
	}
	liar, err := cg.BuildPooledCandidate("mt-sleeper", liarBlob, wabi.Policy{Fuel: chaosFuel}, par)
	if err != nil {
		return nil, err
	}
	rep.LiarShadow, err = sup.Swap(liar)
	if err != nil {
		return nil, fmt.Errorf("exp: pluginfaults: sleeper candidate failed shadow validation it was built to pass: %w", err)
	}
	guests = append(guests, chaosGuest{liar, liarSeed, liarTurns})
	for i := 0; i < 300 && sup.Stats().Rollbacks == 0; i++ {
		runSlots(1)
	}
	if sup.Stats().Rollbacks == 0 {
		return nil, fmt.Errorf("exp: pluginfaults: sleeper candidate never triggered a rollback")
	}

	// Phase 6 — steady state on the restored last-known-good scheduler.
	runSlots(200)

	rep.SlotsTotal = cg.Slot()
	rep.SlotsPostOpen = rep.SlotsTotal - rep.SlotsToOpen
	rep.OverrunsPostOpen = overruns() - atOpen
	rep.Supervisor = sup.Stats()
	for c := 0; c < cells; c++ {
		if s, ok := cg.Cell(c).Slices.Slice(hostileSlice); ok {
			rep.FallbackSlots += s.Stats().FallbackSlots
		}
	}
	rep.ActiveScheduler = sup.Active().Name()

	// Ledger check: the breaker metered exactly the recomputed schedule —
	// every faulting call classified once, in the class its guest chose.
	rep.FaultClassesMatch = true
	for _, class := range []wabi.FailureClass{wabi.FailTrap, wabi.FailFuel, wabi.FailBadOutput} {
		if sup.Breaker().FailureCount(class) != rep.ScheduledFaults[class.String()] {
			rep.FaultClassesMatch = false
		}
	}

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
			return rep, fmt.Errorf("exp: pluginfaults: flight recorder produced no bundle covering %s and %s",
				flight.EvBreakerOpen, flight.EvRollback)
		}
	}

	if cfg.Obs != nil {
		rep.Obs = cfg.Obs.Snapshot()
	}
	return rep, nil
}
