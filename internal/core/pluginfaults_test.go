package core

import (
	"encoding/json"
	"testing"
	"time"

	"waran/internal/guard"
	"waran/internal/obs"
)

// TestPluginFaultsE2E drives the full supervisor lifecycle end to end on a
// 4-cell group with one hostile plugin: the breaker must open and quarantine
// the slice onto its native fallback, ≥1000 slots must then run without a
// single missed deadline, a healthy candidate must hot-swap in through
// shadow validation, a sleeper candidate must be rolled back inside its
// probation window, and the obs snapshot's per-class failure counters must
// match the injected fault schedule exactly.
func TestPluginFaultsE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-slot chaos run")
	}
	reg := obs.NewRegistry()
	rep, err := RunPluginFaults(ExpConfig{
		Obs: reg,
		// Every injected fault fails fast (no stalls), so after the breaker
		// opens a missed deadline could only come from the supervisor path
		// itself. The budget is generous against shared-machine jitter; the
		// CLI run keeps the paper's 1 ms default.
		SlotDeadline: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

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

	// Ledger: every injected fault was classified exactly once, nothing was
	// double-counted across the 4 concurrent cells, and nothing was lost.
	if !rep.FaultClassesMatch {
		t.Errorf("breaker per-class counters diverge from the chaos schedule: breaker=%v hostile=%+v liar=%+v",
			s.Breaker.FailuresByClass, rep.HostileChaos, rep.LiarChaos)
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
	wantByClass := map[string]uint64{
		"trap":           rep.HostileChaos.Traps + rep.LiarChaos.Traps,
		"fuel-exhausted": rep.HostileChaos.FuelThefts + rep.LiarChaos.FuelThefts,
		"bad-output":     rep.HostileChaos.Corruptions + rep.LiarChaos.Corruptions,
	}
	for class, want := range wantByClass {
		if got := snap.Breaker.FailuresByClass[class]; got != want {
			t.Errorf("obs failures_by_class[%s] = %d, want %d (injected)", class, got, want)
		}
	}
}

// TestPluginFaultsDeterministicLedger locks in that two runs with the same
// seed inject byte-identical fault schedules and the breaker meters them
// identically — the chaos PRNG, the breaker clock and the slot engine are
// all deterministic.
func TestPluginFaultsDeterministicLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-slot chaos run")
	}
	run := func() *PluginFaultsResult {
		rep, err := RunPluginFaults(ExpConfig{Seed: 11, SlotDeadline: 250 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.HostileChaos != b.HostileChaos {
		t.Errorf("hostile chaos schedules diverge: %+v vs %+v", a.HostileChaos, b.HostileChaos)
	}
	if a.LiarChaos != b.LiarChaos {
		t.Errorf("liar chaos schedules diverge: %+v vs %+v", a.LiarChaos, b.LiarChaos)
	}
	if !a.FaultClassesMatch || !b.FaultClassesMatch {
		t.Error("ledger check failed on a seeded run")
	}
}
