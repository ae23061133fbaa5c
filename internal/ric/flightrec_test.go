package ric_test

import (
	"testing"
	"time"

	"waran/internal/exp"
	"waran/internal/obs"
	"waran/internal/obs/flight"
)

// TestFlightRecExperiment runs a shortened storm and checks the experiment's
// own hard assertions plus the shape of the digest it reports: the bundles
// must collectively carry the causal chain, at least one of them must have
// been captured by an anomaly trigger, and the ledger must conserve.
func TestFlightRecExperiment(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := exp.RunFlightRec(exp.FlightRecConfig{
		Agents:        8,
		Dwell:         700 * time.Millisecond,
		OverheadSlots: 200,
		Dir:           t.TempDir(),
		Obs:           reg,
	})
	if err != nil {
		t.Fatalf("RunFlightRec: %v", err)
	}
	if !res.CausalChain {
		t.Fatalf("causal chain not covered: %v", res.Flight.Coverage)
	}
	if res.TriggeredBundles == 0 {
		t.Fatalf("no anomaly-triggered bundle (bundles: %+v)", res.Flight.Bundles)
	}
	if !res.LedgerConserved {
		t.Fatalf("ledger not conserved: %+v", res.Ledger)
	}
	if len(res.Flight.Bundles) == 0 {
		t.Fatal("no bundles in the digest")
	}
	for _, cls := range []flight.Class{flight.EvBrownoutShift, flight.EvShed, flight.EvBreakerOpen} {
		if res.Flight.Coverage[cls.String()] == 0 {
			t.Fatalf("class %v missing from bundle coverage: %v", cls, res.Flight.Coverage)
		}
	}
	// The journal's instruments are registered on the experiment registry.
	snap := reg.Snapshot()
	if _, ok := snap["waran_flight_events"]; !ok {
		t.Fatalf("flight instruments not in registry snapshot (keys: %d)", len(snap))
	}
}
