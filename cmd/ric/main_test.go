package main

import (
	"testing"

	"waran/internal/e2"
	"waran/internal/obs/flight"
	"waran/internal/ric"
)

// TestNoOverloadFlag pins that there is one RIC to run: the guards have no
// off switch on the command line.
func TestNoOverloadFlag(t *testing.T) {
	if _, err := parseFlags([]string{"-overload"}); err == nil {
		t.Fatal("-overload still parses; the guarded RIC is the only RIC")
	}
	if _, err := parseFlags([]string{"-flight", "-hb", "50ms"}); err != nil {
		t.Fatalf("ordinary flags rejected: %v", err)
	}
}

// TestDefaultFlagsArmNoWallClockBound builds the RIC exactly as `ric` with no
// arguments does: its xApps are bounded by fuel, the only bound on a call, so
// every dispatch is metered.
func TestDefaultFlagsArmNoWallClockBound(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRIC(o, ric.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.XApps()) != 2 {
		t.Fatalf("default xApps = %d, want steer+sla", len(r.XApps()))
	}
	r.HandleIndication(&e2.Indication{Cell: 1, UEs: []e2.UEMeasurement{{UEID: 7, SliceID: 1, MCS: 2}}})
	for _, x := range r.XApps() {
		pl, err := x.Pool().Get()
		if err != nil {
			t.Fatal(err)
		}
		fuel := pl.LastFuelUsed()
		x.Pool().Put(pl)
		if fuel <= 0 {
			t.Fatalf("xApp %s ran without a fuel meter", x.Name)
		}
	}
}

// TestFlightAlwaysRegistersShedDetector: with -flight on there is always a
// shed ledger to burn the shed-ratio SLO against.
func TestFlightAlwaysRegistersShedDetector(t *testing.T) {
	o, err := parseFlags([]string{"-flight", "-xapps", "sla"})
	if err != nil || !o.flightOn {
		t.Fatalf("parseFlags: %+v, %v", o, err)
	}
	frec := flight.NewRecorder(16)
	r, err := newRIC(o, ric.Config{Flight: frec})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, st := range sloDetectors(frec, r).States() {
		names[st.Name] = true
	}
	if !names["shed-ratio"] {
		t.Fatalf("detectors = %v, want shed-ratio", names)
	}
}
