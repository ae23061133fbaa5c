package ric_test

import (
	"testing"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/exp"
	"waran/internal/obs"
	"waran/internal/ran"
	"waran/internal/wabi"
)

// TestE2FaultsExperimentRegistered checks that the association-resilience
// experiment is in the evaluation's table.
func TestE2FaultsExperimentRegistered(t *testing.T) {
	e, ok := exp.Lookup("e2faults")
	if !ok {
		t.Fatal("e2faults is not in exp.All")
	}
	if e.Desc == "" {
		t.Fatal("e2faults has no description")
	}
}

// TestRunE2FaultsEmbedsSnapshot runs a short, single-fault storm with an
// instrumented config and checks the result carries the registry snapshot
// with the RIC and association instrument classes populated.
func TestRunE2FaultsEmbedsSnapshot(t *testing.T) {
	gnb, err := core.NewGNB(ran.CellConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := core.NewPluginScheduler("rr", wabi.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gnb.Slices.AddSlice(1, "tenant", 100e6, rr, nil); err != nil {
		t.Fatal(err)
	}
	ue := ran.NewUE(1, 1, 20)
	ue.Traffic = ran.NewCBR(3e6)
	if err := gnb.AttachUE(ue); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	res, err := exp.RunE2Faults(exp.E2FaultsConfig{
		Slots:     400,
		Heartbeat: 3 * time.Millisecond,
		Pacing:    100 * time.Microsecond,
		Seed:      3,
		Faults:    []e2.FaultConfig{{ResetAfterWrites: 25}},
		Obs:       reg,
	}, gnb, func(uint64) { gnb.Step() })
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil {
		t.Fatal("result has no registry snapshot")
	}
	for _, key := range []string{"waran_ric", "waran_e2_assoc"} {
		if _, ok := res.Obs[key]; !ok {
			t.Errorf("snapshot missing %q; snapshot: %v", key, res.Obs)
		}
	}
	if res.Assoc.Reconnects == 0 {
		t.Fatalf("no reconnects after a forced reset: %+v", res.Assoc)
	}
}

// TestE2EFaultyAssociationRecovers drives a real gNB and RIC through a
// fault storm — a half-open association, a forced reset, and a lossy
// connection — and asserts the association is re-established with backoff,
// re-subscribed, and delivering control actions again on the surviving
// connection, while the gNB's slot loop never stalls.
func TestE2EFaultyAssociationRecovers(t *testing.T) {
	gnb, err := core.NewGNB(ran.CellConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := core.NewPluginScheduler("rr", wabi.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	// Over-ambitious target so the SLA xApp emits controls every report.
	slice, err := gnb.Slices.AddSlice(1, "tenant", 100e6, rr, nil)
	if err != nil {
		t.Fatal(err)
	}
	ue := ran.NewUE(1, 1, 20)
	ue.Traffic = ran.NewCBR(3e6)
	if err := gnb.AttachUE(ue); err != nil {
		t.Fatal(err)
	}

	// Liveness is wall clock, so a scheduling stall longer than the silence
	// bound kills an association before its fault fires (under -race on one P
	// a 3 ms heartbeat lost nearly every association that way). Each fault
	// therefore triggers within the first handful of writes — the handshake
	// and the first report or two — and the heartbeat leaves 30 ms of silence
	// before either side gives up.
	res, err := exp.RunE2Faults(exp.E2FaultsConfig{
		Slots:     2000,
		Heartbeat: 10 * time.Millisecond,
		Pacing:    100 * time.Microsecond,
		Seed:      7,
		Faults: []e2.FaultConfig{
			{BlackholeAfterWrites: 7}, // half-open: only liveness catches it
			{ResetAfterWrites: 9},     // abrupt reset mid-association
			{DropProb: 0.5},           // lossy: desyncs the RIC's framing
		},
	}, gnb, func(uint64) { gnb.Step() })
	if err != nil {
		t.Fatal(err)
	}

	if res.Associations < 4 {
		t.Fatalf("associations = %d, want >= 4 (three faulty conns plus a clean survivor)", res.Associations)
	}
	if res.Assoc.Reconnects < 3 {
		t.Fatalf("reconnects = %d, want >= 3", res.Assoc.Reconnects)
	}
	const misses = 3 // the RIC's heartbeat-miss limit
	if res.Assoc.MissedHeartbeats < misses {
		t.Fatalf("missed heartbeats = %d, want >= %d (the half-open conn is only catchable by liveness)",
			res.Assoc.MissedHeartbeats, misses)
	}
	if res.Assoc.DeadAssociations < 1 {
		t.Fatalf("dead associations = %d, want >= 1", res.Assoc.DeadAssociations)
	}
	if res.Assoc.DegradedMs <= 0 {
		t.Fatal("no degraded time recorded across three teardowns")
	}
	if res.FaultBlackholes < 1 || res.FaultResets < 1 || res.FaultDrops < 1 {
		t.Fatalf("fault mix not exercised: %+v", res)
	}
	if res.FinalAssocControlsOK == 0 {
		t.Fatal("no control was applied on the surviving association: recovery unproven")
	}
	if res.Resubscribes != 0 {
		// Re-subscription here happens via fresh associations; explicit
		// mid-association re-subscribe is covered by TestAgentResubscribe.
		t.Logf("mid-association resubscribes: %d", res.Resubscribes)
	}
	// The SLA xApp's guidance landed after recovery: the under-target
	// slice runs boosted.
	if w := slice.Weight(); w != 2.0 {
		t.Fatalf("slice weight = %v, want 2.0 (xApp control applied post-recovery)", w)
	}
}
