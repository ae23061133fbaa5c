package core

import (
	"testing"
	"time"

	"waran/internal/obs/flight"
	"waran/internal/ran"
	"waran/internal/sched"
)

// flightTestGroup builds a minimal group: one cell, one native-scheduled
// slice, no UEs — the slot path with nothing anomalous to journal.
func flightTestGroup(t testing.TB, cfg CellGroupConfig) *CellGroup {
	t.Helper()
	if cfg.Cells == 0 {
		cfg.Cells = 1
	}
	cg, err := NewCellGroup(ran.CellConfig{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cg.Cell(0).Slices.AddSlice(1, "tenant", 10e6, sched.RoundRobin{}, nil); err != nil {
		t.Fatal(err)
	}
	return cg
}

// TestDisabledFlightRecorderAddsZeroAllocs pins the nil-is-off contract on
// the hot slot path: a group with a nil recorder attached allocates exactly
// as much per slot as one the recorder wiring never touched. The journal
// sites are a pointer compare when disabled — cellgroup.go relies on this
// test by name.
func TestDisabledFlightRecorderAddsZeroAllocs(t *testing.T) {
	base := flightTestGroup(t, CellGroupConfig{})
	wired := flightTestGroup(t, CellGroupConfig{})
	wired.SetFlightRecorder(nil)
	for i := 0; i < 50; i++ { // warm both groups past first-slot setup
		base.StepAll()
		wired.StepAll()
	}
	baseAllocs := testing.AllocsPerRun(200, func() { base.StepAll() })
	wiredAllocs := testing.AllocsPerRun(200, func() { wired.StepAll() })
	if wiredAllocs > baseAllocs {
		t.Fatalf("nil flight recorder adds allocs to the slot path: %.1f/slot wired vs %.1f/slot bare",
			wiredAllocs, baseAllocs)
	}
}

// TestCellGroupJournalsMissAndPin drives every slot past an impossible
// deadline and checks the gNB plane journals each miss, while the watchdog
// only observes: no overrun streak pins the cell, so every slot still runs
// the slices' plugins rather than their fallbacks.
func TestCellGroupJournalsMissAndPin(t *testing.T) {
	cg, err := NewCellGroup(ran.CellConfig{}, CellGroupConfig{
		Cells:        1,
		SlotDeadline: time.Nanosecond, // everything overruns
	})
	if err != nil {
		t.Fatal(err)
	}
	populateCell(t, cg.Cell(0), 0)
	rec := flight.NewRecorder(64)
	cg.SetFlightRecorder(rec)
	scheduled := 0
	cg.RunSlots(5, func(_ int, r SlotResult) {
		for id, ss := range r.PerSlice {
			if ss.UsedFallback {
				t.Fatalf("slot %d slice %d routed to the fallback", r.Slot, id)
			}
			if ss.BudgetPRBs > 0 {
				scheduled++
			}
		}
	})
	if scheduled == 0 {
		t.Fatal("no slice was scheduled")
	}

	if n := rec.Count(flight.EvSlotDeadlineMiss); n != 5 {
		t.Fatalf("slot deadline misses journaled = %d, want 5", n)
	}
	if st := cg.WatchdogStats()[0]; st.Slots != 5 || st.Overruns != 5 {
		t.Fatalf("watchdog = %+v, want 5 slots, 5 overruns", st)
	}
	for _, ev := range rec.Tail(16) {
		if ev.Plane != flight.PlaneGNB {
			t.Fatalf("event %v journaled on plane %v, want gnb", ev.Class, ev.Plane)
		}
	}
}
