package core

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"waran/internal/obs"
	"waran/internal/ran"
	"waran/internal/sched"
	"waran/internal/wabi"
)

// TestCellGroupObservability drives an instrumented 2-cell group and checks
// that every instrument class populates: slot latency, PRB grants, fuel,
// deadline watchdog, module cache, and the trace ring.
func TestCellGroupObservability(t *testing.T) {
	cg, err := NewCellGroup(ran.CellConfig{}, CellGroupConfig{Cells: 2, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cg.NumCells(); i++ {
		g := cg.Cell(i)
		rr, err := NewPluginScheduler("rr", wabi.Policy{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Slices.AddSlice(1, "tenant", 10e6, rr, nil); err != nil {
			t.Fatal(err)
		}
		ue := ran.NewUE(uint32(100*i+1), 1, 15)
		ue.Traffic = ran.NewCBR(5e6)
		if err := g.AttachUE(ue); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cg.InstallPooledScheduler(1, "rr", wabi.Policy{}, 2); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(256)
	cg.EnableObservability(reg, ring)

	const slots = 50
	cg.RunSlots(slots, nil)

	lat := reg.Histogram("waran_slot_latency_us", "", obs.L("cell", "0")).Stats()
	if lat.Count != slots {
		t.Fatalf("cell 0 slot latency count = %d, want %d", lat.Count, slots)
	}
	grants := reg.Counter("waran_sched_granted_prbs_total", "", obs.L("cell", "1"), obs.L("slice", "1")).Value()
	if grants == 0 {
		t.Fatal("no PRB grants recorded for cell 1 slice 1")
	}
	fuel := reg.Histogram("waran_plugin_fuel_per_call", "", obs.L("cell", "0")).Stats()
	if fuel.Count == 0 || fuel.Min <= 0 {
		t.Fatalf("fuel histogram = %+v, want positive per-call fuel", fuel)
	}
	if ring.Len() != 2*slots {
		t.Fatalf("trace ring has %d events, want %d", ring.Len(), 2*slots)
	}
	ev := ring.Last(1)[0]
	if len(ev.Slices) != 1 || ev.Slices[0].Sched == "" || ev.WallUs <= 0 {
		t.Fatalf("trace event = %+v", ev)
	}

	text := reg.PrometheusText()
	for _, want := range []string{
		"waran_slot_latency_us_count",
		"waran_sched_granted_prbs_total",
		"waran_plugin_fuel_per_call_count",
		`waran_cell_deadline_slots_total{cell="1"}`,
		"waran_wabi_module_cache_misses_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	snap := reg.Snapshot()
	if _, ok := snap[`waran_cell_deadline{cell="0"}`]; !ok {
		t.Fatalf("snapshot missing deadline meter; keys: %v", reg.SeriesNames())
	}
}

// TestGNBObservabilityDeadline checks the overrun counter fires against an
// absurdly small deadline and that parallelism-1 tracing matches slots run.
func TestGNBObservabilityDeadline(t *testing.T) {
	g, err := NewGNB(ran.CellConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewPluginScheduler("rr", wabi.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Slices.AddSlice(1, "t", 10e6, rr, nil); err != nil {
		t.Fatal(err)
	}
	ue := ran.NewUE(1, 1, 15)
	ue.Traffic = ran.NewCBR(5e6)
	if err := g.AttachUE(ue); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(32)
	g.EnableObservability(reg, ring, 0, time.Nanosecond)
	g.RunSlots(20, nil)
	over := reg.Counter("waran_slot_overruns_total", "", obs.L("cell", "0")).Value()
	if over != 20 {
		t.Fatalf("overruns = %d with 1ns deadline, want 20", over)
	}
	for _, ev := range ring.Last(0) {
		if !ev.Overrun {
			t.Fatalf("event not marked overrun: %+v", ev)
		}
	}
}

// TestFuelAttributedToTheCallingCell pins where the fuel figure comes from.
// One PoolScheduler serves every cell, so its LastFuelUsed is the last call
// by any of them: with cells stepped in parallel, a cell that read it after
// Schedule returned could record its neighbour's call. The fuel now rides on
// the response, so a 3-UE and a 32-UE cell sharing one pooled pf scheduler
// account exactly the same fuel whether stepped on one stripe or two.
func TestFuelAttributedToTheCallingCell(t *testing.T) {
	const slots = 500
	ues := []int{3, 32}
	fuelSums := func(parallelism int) []float64 {
		cg, err := NewCellGroup(ran.CellConfig{}, CellGroupConfig{Cells: len(ues), Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		for c, n := range ues {
			g := cg.Cell(c)
			if _, err := g.Slices.AddSlice(1, "tenant", 30e6, sched.RoundRobin{}, nil); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < n; k++ {
				ue := ran.NewUE(uint32(k+1), 1, 16+k%13)
				ue.Traffic = ran.NewCBR(60e6 / float64(n))
				if err := g.AttachUE(ue); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := cg.InstallPooledScheduler(1, "pf", wabi.Policy{}, len(ues)); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		ring := obs.NewTraceRing(len(ues) * slots)
		cg.EnableObservability(reg, ring)
		cg.RunSlots(slots, nil)

		sums := make([]float64, len(ues))
		traced := make([]float64, len(ues))
		for c := range ues {
			st := reg.Histogram("waran_plugin_fuel_per_call", "", obs.L("cell", strconv.Itoa(c))).Stats()
			if st.Count != slots {
				t.Fatalf("par=%d cell %d: %d fuel samples, want %d", parallelism, c, st.Count, slots)
			}
			sums[c] = st.Sum
		}
		for _, ev := range ring.Last(0) {
			traced[ev.Cell] += float64(ev.Slices[0].FuelUsed)
		}
		if !reflect.DeepEqual(traced, sums) {
			t.Fatalf("par=%d: /debug/slots fuel %v, histogram %v", parallelism, traced, sums)
		}
		return sums
	}
	serial := fuelSums(1)
	if serial[1] < 5*serial[0] {
		t.Fatalf("fuel %v: the 32-UE cell should cost several times the 3-UE one", serial)
	}
	if striped := fuelSums(2); !reflect.DeepEqual(striped, serial) {
		t.Fatalf("per-cell fuel at Parallelism 2 = %v, at Parallelism 1 = %v", striped, serial)
	}
}

// TestScrapeWhileStepping runs the two sharing contracts under the race
// detector: the trace ring copies every event into storage it owns (cells
// reuse one SlotEvent each) and each cell's slices own the response their
// shared pooled scheduler fills. A 4-cell group steps on two stripes while a
// scraper reads ring snapshots and every cell's slice list the way
// /debug/slots and the metrics endpoint do.
func TestScrapeWhileStepping(t *testing.T) {
	const cells, slots = 4, 300
	cg, err := NewCellGroup(ran.CellConfig{}, CellGroupConfig{Cells: cells, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cells; c++ {
		fig5aCell(t, cg.Cell(c), 3+c)
	}
	for _, sp := range DefaultFig5aSpecs() {
		if _, err := cg.InstallPooledScheduler(sp.ID, sp.Scheduler, wabi.Policy{}, cells); err != nil {
			t.Fatal(err)
		}
	}
	ring := obs.NewTraceRing(3 * cells) // wraps constantly: every Add reuses an entry
	cg.EnableObservability(obs.NewRegistry(), ring)

	stop := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				scraped <- nil
				return
			default:
			}
			for _, ev := range ring.Last(0) {
				prbs := 0
				for _, st := range ev.Slices {
					prbs += st.PRBs
					if !strings.HasPrefix(st.Sched, "pool:") || st.FuelUsed <= 0 {
						scraped <- fmt.Errorf("cell %d slot %d: torn slice trace %+v", ev.Cell, ev.Slot, st)
						return
					}
				}
				if len(ev.Slices) != 3 || prbs > 52 {
					scraped <- fmt.Errorf("cell %d slot %d: %d slices, %d PRBs", ev.Cell, ev.Slot, len(ev.Slices), prbs)
					return
				}
			}
			for c := 0; c < cells; c++ {
				for _, s := range cg.Cell(c).Slices.Slices() {
					_, _ = s.Stats(), s.SchedulerName()
				}
			}
		}
	}()
	for slot := 0; slot < slots; slot++ {
		for c, r := range cg.StepAll() {
			var granted uint32
			for _, ss := range r.PerSlice {
				granted += ss.GrantedPRBs
				if ss.UsedFallback {
					t.Fatalf("slot %d cell %d fell back", slot, c)
				}
			}
			if granted == 0 || granted > 52 {
				t.Fatalf("slot %d cell %d granted %d PRBs", slot, c, granted)
			}
		}
	}
	close(stop)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
}
