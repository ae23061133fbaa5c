package core_test

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"waran/internal/exp"
	"waran/internal/guard"
	"waran/internal/obs"
)

// TestPluginFaultsE2E drives the full supervisor lifecycle end to end on a
// 4-cell group with one hostile plugin: the breaker must open and quarantine
// the slice onto its native fallback, ≥1000 slots must then run without a
// single missed deadline, a healthy candidate must hot-swap in through
// shadow validation, a sleeper candidate must be rolled back inside its
// probation window, and the obs snapshot's per-class failure counters must
// match the chaos guests' recomputed schedule exactly.
func TestPluginFaultsE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-slot chaos run")
	}
	reg := obs.NewRegistry()
	rep, err := exp.RunPluginFaults(exp.PluginFaultsConfig{
		Obs:  reg,
		Seed: 7, // the table's default, which the record holds
		// Every chaos-guest fault ends within its 100 000-instruction fuel,
		// so after the breaker opens a missed deadline could only come from
		// the supervisor path itself. The budget is generous against
		// shared-machine jitter; the CLI run keeps the paper's 1 ms default.
		SlotDeadline: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "pluginfaults", rep, unstable)

	// Containment: the breaker opens within a handful of slots (4 hostile
	// calls per slot, MinSamples 8), and from that point on the group never
	// misses a deadline again.
	if rep.SlotsToOpen > 10 {
		t.Errorf("breaker took %d slots to open, want <= 10", rep.SlotsToOpen)
	}
	if rep.SlotsPostOpen < 1000 {
		t.Errorf("only %d slots ran after the breaker opened, want >= 1000", rep.SlotsPostOpen)
	}
	if rep.OverrunsPostOpen != 0 {
		t.Errorf("%d deadline overruns after the breaker opened, want 0", rep.OverrunsPostOpen)
	}

	// Degraded-but-alive: quarantined slots were served by the native
	// fallback, not dropped.
	if rep.FallbackSlots == 0 {
		t.Error("no slots fell back to the native scheduler during quarantine")
	}

	// Lifecycle: recovery candidate and sleeper both pass shadow validation
	// (2 promotions), the sleeper is rolled back once, and the group ends on
	// the last-known-good recovery scheduler with the breaker closed.
	if rep.RecoveryShadow == nil || !rep.RecoveryShadow.Promoted {
		t.Fatalf("recovery candidate not promoted: %+v", rep.RecoveryShadow)
	}
	if rep.LiarShadow == nil || !rep.LiarShadow.Promoted {
		t.Fatalf("sleeper candidate should pass shadow validation: %+v", rep.LiarShadow)
	}
	s := rep.Supervisor
	if s.Promotions != 2 || s.Rollbacks != 1 || s.ShadowPass != 2 || s.ShadowFail != 0 {
		t.Errorf("lifecycle counters promotions=%d rollbacks=%d shadowPass=%d shadowFail=%d, want 2/1/2/0",
			s.Promotions, s.Rollbacks, s.ShadowPass, s.ShadowFail)
	}
	if rep.ActiveScheduler != "pool:pf-recovery" {
		t.Errorf("active scheduler = %q, want pool:pf-recovery (rollback target)", rep.ActiveScheduler)
	}
	if s.Breaker.State != "closed" {
		t.Errorf("breaker ended %q, want closed", s.Breaker.State)
	}

	// Ledger: every guest fault was classified exactly once, nothing was
	// double-counted across the 4 concurrent cells, and nothing was lost.
	if !rep.FaultClassesMatch {
		t.Errorf("breaker per-class counters diverge from the chaos schedule: breaker=%v scheduled=%v",
			s.Breaker.FailuresByClass, rep.ScheduledFaults)
	}

	// The same counters must surface in the obs snapshot under the hostile
	// slice's guard series.
	raw, ok := rep.Obs[`waran_guard{slice="1"}`]
	if !ok {
		t.Fatalf("obs snapshot lacks the hostile slice's guard series; keys: %d", len(rep.Obs))
	}
	b, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	var snap guard.SupervisorStats
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("guard series does not decode as SupervisorStats: %v", err)
	}
	if snap.Promotions != s.Promotions || snap.Rollbacks != s.Rollbacks {
		t.Errorf("obs snapshot promotions=%d rollbacks=%d, want %d/%d",
			snap.Promotions, snap.Rollbacks, s.Promotions, s.Rollbacks)
	}
	for _, class := range []string{"trap", "fuel-exhausted", "bad-output"} {
		if want, got := rep.ScheduledFaults[class], snap.Breaker.FailuresByClass[class]; got != want {
			t.Errorf("obs failures_by_class[%s] = %d, want %d (scheduled)", class, got, want)
		}
	}
}

// TestPluginFaultsLedgerOddCells: with 3 cells the 32-call breaker window
// is not a whole number of slots, so the sleeper's trip lands mid-slot and
// the rest of that slot runs the restored scheduler. The ledger counts the
// calls each chaos guest served, so it still matches.
func TestPluginFaultsLedgerOddCells(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-slot chaos run")
	}
	rep, err := exp.RunPluginFaults(exp.PluginFaultsConfig{Cells: 3, Seed: 10, SlotDeadline: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FaultClassesMatch {
		t.Errorf("breaker=%v scheduled=%v", rep.Supervisor.Breaker.FailuresByClass, rep.ScheduledFaults)
	}
	if s := rep.Supervisor; s.Rollbacks != 1 || rep.ActiveScheduler != "pool:pf-recovery" {
		t.Errorf("rollbacks=%d active=%q, want 1 and pool:pf-recovery", s.Rollbacks, rep.ActiveScheduler)
	}
}

// pluginFaultsCounts is every count field of a PluginFaultsResult.
type pluginFaultsCounts struct {
	SlotsTotal, SlotsToOpen, SlotsPostOpen, OverrunsPreOpen, OverrunsPostOpen, FallbackSlots uint64
	ScheduledFaults                                                                          map[string]uint64
	RecoveryRuns, LiarRuns                                                                   int
	Calls, Successes, Promotions, Rollbacks, ShadowPass, ShadowFail                          uint64
	Probation                                                                                int
	Opens, Reopens, Probes, ProbeFails, Rejects                                              uint64
	FailuresByClass                                                                          map[string]uint64
	FaultClassesMatch                                                                        bool
	ActiveScheduler                                                                          string
}

func countsOf(r *exp.PluginFaultsResult) pluginFaultsCounts {
	s, b := r.Supervisor, r.Supervisor.Breaker
	return pluginFaultsCounts{
		r.SlotsTotal, r.SlotsToOpen, r.SlotsPostOpen, r.OverrunsPreOpen, r.OverrunsPostOpen, r.FallbackSlots,
		r.ScheduledFaults,
		r.RecoveryShadow.Runs, r.LiarShadow.Runs,
		s.Calls, s.Successes, s.Promotions, s.Rollbacks, s.ShadowPass, s.ShadowFail,
		s.Probation,
		b.Opens, b.Reopens, b.Probes, b.ProbeFails, b.Rejects,
		b.FailuresByClass,
		r.FaultClassesMatch,
		r.ActiveScheduler,
	}
}

// TestPluginFaultsDeterministicLedger locks in that the storm is a function
// of its seed: every count of the result — slots, overruns, fallbacks, the
// scheduled faults, shadow runs, supervisor and breaker counters — reads the
// same on two runs, at Parallelism 1 and at 4. The chaos guests' schedule
// hashes the slot, not the call order, so how the stripes interleave cannot
// change it.
func TestPluginFaultsDeterministicLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-slot chaos run")
	}
	run := func(par int) pluginFaultsCounts {
		rep, err := exp.RunPluginFaults(exp.PluginFaultsConfig{Seed: 11, Parallelism: par, SlotDeadline: 250 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.FaultClassesMatch {
			t.Errorf("parallelism %d: ledger check failed on a seeded run", par)
		}
		return countsOf(rep)
	}
	want := run(1)
	for _, class := range []string{"trap", "fuel-exhausted", "bad-output"} {
		if want.ScheduledFaults[class] == 0 {
			t.Errorf("seed 11 scheduled no %s faults: %v", class, want.ScheduledFaults)
		}
	}
	for _, par := range []int{1, 4, 4} {
		if got := run(par); !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d diverges from the first run:\n got  %+v\n want %+v", par, got, want)
		}
	}
}
