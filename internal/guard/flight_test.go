package guard_test

import (
	"fmt"
	"testing"
	"time"

	"waran/internal/guard"
	"waran/internal/obs/flight"
	"waran/internal/wabi"
)

// TestBreakerTransitionHook drives one full open → half-open → closed cycle
// and checks the hook observes exactly the transitions, in order, and that
// installing nil detaches it.
func TestBreakerTransitionHook(t *testing.T) {
	clock := newVclock()
	br := guard.NewBreaker(breakerCfg(clock))
	var got []string
	br.SetTransitionHook(func(from, to guard.State) {
		got = append(got, fmt.Sprintf("%s->%s", from, to))
	})

	for i := 0; i < 4; i++ {
		br.Record(wabi.FailTrap)
	}
	clock.Advance(10 * time.Millisecond)
	if !br.Allow() {
		t.Fatal("probe not admitted after backoff")
	}
	br.Record(wabi.FailNone)
	for probe := 2; probe <= 3; probe++ { // three probe successes close it
		if !br.Allow() {
			t.Fatalf("probe %d not admitted", probe)
		}
		br.Record(wabi.FailNone)
	}

	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if len(got) != len(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}

	br.SetTransitionHook(nil)
	for i := 0; i < 4; i++ {
		br.Record(wabi.FailTrap)
	}
	if len(got) != len(want) {
		t.Fatalf("detached hook still observed transitions: %v", got)
	}
}

// TestSupervisorJournalsBreakerTransitions checks the supervisor's flight
// wiring end to end: metered faults through the supervised schedule path
// must land breaker transitions and sandbox faults in the journal on the
// right planes.
func TestSupervisorJournalsBreakerTransitions(t *testing.T) {
	clock := newVclock()
	bad := &fakeSched{name: "bad", script: alwaysFail(errTrap())}
	sup := guard.New("rr", bad, guard.Config{Breaker: breakerCfg(clock)})
	rec := flight.NewRecorder(64)
	sup.SetFlightRecorder(rec)

	for i := 0; i < 4; i++ {
		if _, err := sup.Schedule(testReq(uint64(i))); err == nil {
			t.Fatal("supervised schedule hid the plugin's trap")
		}
	}
	if sup.Breaker().State() != guard.Open {
		t.Fatalf("breaker state = %v, want open", sup.Breaker().State())
	}
	if n := rec.Count(flight.EvBreakerOpen); n != 1 {
		t.Fatalf("breaker.open events = %d, want 1", n)
	}
	if n := rec.Count(flight.EvSandboxFault); n == 0 {
		t.Fatal("no sandbox.fault events journaled for metered faults")
	}
	for _, ev := range rec.Tail(16) {
		switch ev.Class {
		case flight.EvBreakerOpen, flight.EvBreakerHalfOpen, flight.EvBreakerClose:
			if ev.Plane != flight.PlaneGNB {
				t.Fatalf("%v on plane %v, want gnb", ev.Class, ev.Plane)
			}
		case flight.EvSandboxFault:
			if ev.Plane != flight.PlaneWasm {
				t.Fatalf("%v on plane %v, want wasm", ev.Class, ev.Plane)
			}
		}
	}
}
