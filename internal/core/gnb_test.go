package core

import (
	"testing"
	"time"

	"waran/internal/e2"
	"waran/internal/ran"
	"waran/internal/sched"
	"waran/internal/wabi"
)

func newTestGNB(t *testing.T) *GNB {
	t.Helper()
	gnb, err := NewGNB(ran.CellConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gnb.Slices.AddSlice(1, "s1", 10e6, sched.RoundRobin{}, nil); err != nil {
		t.Fatal(err)
	}
	return gnb
}

func TestAttachDetach(t *testing.T) {
	gnb := newTestGNB(t)
	ue := ran.NewUE(1, 1, 20)
	if err := gnb.AttachUE(ue); err != nil {
		t.Fatal(err)
	}
	if err := gnb.AttachUE(ue); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	if err := gnb.AttachUE(ran.NewUE(2, 99, 20)); err == nil {
		t.Fatal("attach to unknown slice accepted")
	}
	if _, ok := gnb.UE(1); !ok {
		t.Fatal("UE lookup failed")
	}
	if err := gnb.DetachUE(1); err != nil {
		t.Fatal(err)
	}
	if err := gnb.DetachUE(1); err == nil {
		t.Fatal("double detach accepted")
	}
	if len(gnb.UEs()) != 0 {
		t.Fatal("UE list not empty")
	}
}

func TestStepConservation(t *testing.T) {
	gnb := newTestGNB(t)
	if _, err := gnb.Slices.AddSlice(2, "s2", 20e6, sched.MaxThroughput{}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		ue := ran.NewUE(uint32(i), uint32(i%2+1), 16+2*i)
		ue.Traffic = ran.NewCBR(8e6)
		if err := gnb.AttachUE(ue); err != nil {
			t.Fatal(err)
		}
	}
	for slot := 0; slot < 500; slot++ {
		r := gnb.Step()
		var totalPRBs uint32
		var totalBits int64
		for _, g := range r.PerUE {
			totalPRBs += g.PRBs
			totalBits += g.Bits
		}
		if totalPRBs > uint32(gnb.Cell.PRBs) {
			t.Fatalf("slot %d: granted %d PRBs of %d", slot, totalPRBs, gnb.Cell.PRBs)
		}
		var slicePRBs uint32
		var sliceBits int64
		for _, ss := range r.PerSlice {
			slicePRBs += ss.GrantedPRBs
			sliceBits += ss.Bits
			if ss.GrantedPRBs > ss.BudgetPRBs {
				t.Fatalf("slot %d: slice exceeded its budget: %+v", slot, ss)
			}
		}
		if slicePRBs != totalPRBs || sliceBits != totalBits {
			t.Fatalf("slot %d: per-slice and per-UE accounting disagree", slot)
		}
		// Bits served per UE cannot exceed the TBS of its grant.
		for id, g := range r.PerUE {
			ue, _ := gnb.UE(id)
			if max := int64(gnb.Cell.TransportBlockBits(ue.MCS, int(g.PRBs))); g.Bits > max {
				t.Fatalf("slot %d: UE %d served %d bits > TBS %d", slot, id, g.Bits, max)
			}
		}
	}
	if gnb.Slot() != 500 {
		t.Fatalf("slot counter = %d", gnb.Slot())
	}
}

func TestStepWithNoUEs(t *testing.T) {
	gnb := newTestGNB(t)
	r := gnb.Step()
	if len(r.PerUE) != 0 {
		t.Fatalf("grants without UEs: %v", r.PerUE)
	}
}

func TestSnapshotReflectsState(t *testing.T) {
	gnb := newTestGNB(t)
	ue := ran.NewUE(4, 1, 22)
	ue.Traffic = ran.NewCBR(5e6)
	if err := gnb.AttachUE(ue); err != nil {
		t.Fatal(err)
	}
	gnb.RunSlots(300, nil)
	ind := gnb.Snapshot(3)
	if ind.Cell != 3 || ind.Slot != 300 {
		t.Fatalf("header: %+v", ind)
	}
	if len(ind.UEs) != 1 || ind.UEs[0].UEID != 4 || ind.UEs[0].SliceID != 1 {
		t.Fatalf("UEs: %+v", ind.UEs)
	}
	if len(ind.Slices) != 1 || ind.Slices[0].TargetBps != 10e6 {
		t.Fatalf("slices: %+v", ind.Slices)
	}
	// After 300 ms of 5 Mb/s offered and ample capacity, the served-rate
	// EWMA must be visibly nonzero.
	if ind.Slices[0].ServedBps < 1e6 {
		t.Fatalf("served EWMA = %v", ind.Slices[0].ServedBps)
	}
}

func TestApplyControls(t *testing.T) {
	gnb := newTestGNB(t)
	ue := ran.NewUE(1, 1, 20)
	if err := gnb.AttachUE(ue); err != nil {
		t.Fatal(err)
	}
	s, _ := gnb.Slices.Slice(1)

	if err := gnb.Apply(&e2.ControlRequest{Action: e2.ActionSetSliceTarget, SliceID: 1, Value: 25e6}); err != nil {
		t.Fatal(err)
	}
	if s.TargetRate() != 25e6 {
		t.Fatalf("target = %v", s.TargetRate())
	}
	if err := gnb.Apply(&e2.ControlRequest{Action: e2.ActionSetSliceWeight, SliceID: 1, Value: 3}); err != nil {
		t.Fatal(err)
	}
	if s.Weight() != 3 {
		t.Fatalf("weight = %v", s.Weight())
	}
	if err := gnb.Apply(&e2.ControlRequest{Action: e2.ActionSwapScheduler, SliceID: 1, Text: "pf"}); err != nil {
		t.Fatal(err)
	}
	if s.SchedulerName() != "plugin:pf" {
		t.Fatalf("scheduler = %q", s.SchedulerName())
	}
	if err := gnb.Apply(&e2.ControlRequest{Action: e2.ActionHandover, UEID: 1, Text: "cell-2"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := gnb.UE(1); ok {
		t.Fatal("UE still attached after handover")
	}

	// Rejection paths.
	bad := []*e2.ControlRequest{
		{Action: e2.ActionSetSliceTarget, SliceID: 9, Value: 1},
		{Action: e2.ActionSetSliceTarget, SliceID: 1, Value: -1},
		{Action: e2.ActionSetSliceWeight, SliceID: 1, Value: 0},
		{Action: e2.ActionSwapScheduler, SliceID: 1, Text: "nope"},
		{Action: e2.ActionHandover, UEID: 42},
		{Action: e2.ControlAction(99)},
	}
	for i, c := range bad {
		if err := gnb.Apply(c); err == nil {
			t.Errorf("bad control %d accepted: %+v", i, c)
		}
	}
}

func TestPluginBackedGNBMatchesNative(t *testing.T) {
	// The same scenario executed with native Go schedulers and with the
	// Wasm plugins must yield identical served-bit totals (the plugins are
	// decision-equivalent).
	build := func(usePlugin bool) int64 {
		gnb, err := NewGNB(ran.CellConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var s sched.IntraSlice = sched.ProportionalFair{}
		if usePlugin {
			ps, err := NewPluginScheduler("pf", wabi.Policy{})
			if err != nil {
				t.Fatal(err)
			}
			s = ps
		}
		if _, err := gnb.Slices.AddSlice(1, "s", 20e6, s, nil); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 3; i++ {
			ue := ran.NewUE(uint32(i), 1, 16+4*i)
			ue.Traffic = ran.NewCBR(9e6)
			if err := gnb.AttachUE(ue); err != nil {
				t.Fatal(err)
			}
		}
		var total int64
		gnb.RunSlots(1000, func(r SlotResult) {
			for _, g := range r.PerUE {
				total += g.Bits
			}
		})
		return total
	}
	native := build(false)
	plugin := build(true)
	if native != plugin {
		t.Fatalf("plugin-backed gNB served %d bits, native %d", plugin, native)
	}
	if native == 0 {
		t.Fatal("scenario served nothing")
	}
}

func TestSlotsForDuration(t *testing.T) {
	cell := ran.CellConfig{}.WithDefaults()
	if got := SlotsForDuration(cell, 2*time.Second); got != 2000 {
		t.Fatalf("slots = %d", got)
	}
}

func TestHARQReducesGoodputUnderSaturation(t *testing.T) {
	run := func(withHARQ bool) int64 {
		gnb, err := NewGNB(ran.CellConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gnb.Slices.AddSlice(1, "s", 0, sched.MaxThroughput{}, nil); err != nil {
			t.Fatal(err)
		}
		ue := ran.NewUE(1, 1, 24)
		ue.Traffic = &ran.FullBuffer{}
		if withHARQ {
			ue.HARQ = ran.NewHARQ(7)
		}
		if err := gnb.AttachUE(ue); err != nil {
			t.Fatal(err)
		}
		gnb.RunSlots(5000, nil)
		return ue.DeliveredBits
	}
	clean := run(false)
	lossy := run(true)
	ratio := float64(lossy) / float64(clean)
	// 10% BLER under saturation: goodput ~90% of the clean link.
	if ratio < 0.85 || ratio > 0.95 {
		t.Fatalf("HARQ goodput ratio = %.3f, want ~0.9", ratio)
	}
}

func TestSliceMaxUEsEnforced(t *testing.T) {
	gnb := newTestGNB(t)
	s, _ := gnb.Slices.Slice(1)
	s.MaxUEs = 2
	for i := 1; i <= 2; i++ {
		if err := gnb.AttachUE(ran.NewUE(uint32(i), 1, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := gnb.AttachUE(ran.NewUE(3, 1, 20)); err == nil {
		t.Fatal("attach beyond MaxUEs accepted")
	}
	// Detaching frees a seat.
	if err := gnb.DetachUE(1); err != nil {
		t.Fatal(err)
	}
	if err := gnb.AttachUE(ran.NewUE(3, 1, 20)); err != nil {
		t.Fatalf("seat not released: %v", err)
	}
}

func TestGNBFleetScheduling(t *testing.T) {
	g, err := NewGNB(ran.CellConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Slices.AddSlice(1, "iot", 10e6, sched.RoundRobin{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Slices.AddSlice(2, "mbb", 20e6, sched.RoundRobin{}, nil); err != nil {
		t.Fatal(err)
	}

	// Fleet on an unknown slice is refused at admission.
	bad, err := ran.NewUEFleet(ran.FleetConfig{UEs: 10, SliceIDs: []uint32{9}})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AttachFleet(bad); err == nil {
		t.Fatal("fleet on unregistered slice admitted")
	}

	fleet, err := ran.NewUEFleet(ran.FleetConfig{
		UEs: 4096, ActiveK: 32, SliceIDs: []uint32{1, 2}, MeanRateBps: 256e3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AttachFleet(fleet); err != nil {
		t.Fatal(err)
	}
	if err := g.AttachFleet(fleet); err == nil {
		t.Fatal("second fleet admitted")
	}
	// An explicit UE coexists with the fleet.
	ue := ran.NewUE(1, 1, 20)
	ue.Traffic = ran.NewCBR(1e6)
	if err := g.AttachUE(ue); err != nil {
		t.Fatal(err)
	}

	var fleetBits int64
	for i := 0; i < 256; i++ {
		res := g.Step()
		for id, gr := range res.PerUE {
			if id >= 1<<20 { // fleet BaseID default
				fleetBits += gr.Bits
			}
		}
	}
	if fleetBits == 0 {
		t.Fatal("no fleet UE was ever granted")
	}
	st := fleet.Stats()
	if st.DeliveredBits == 0 {
		t.Fatal("fleet accounting saw no delivered bits")
	}

	// The KPM snapshot stays bounded: explicit UEs + the active window,
	// never the full modeled population.
	ind := g.Snapshot(1)
	if got, limit := len(ind.UEs), 1+fleet.ActiveK(); got > limit {
		t.Fatalf("snapshot carries %d UE rows, want <= %d", got, limit)
	}
	if len(ind.UEs) < 2 {
		t.Fatalf("snapshot missing fleet window rows: %d", len(ind.UEs))
	}
	if len(ind.Slices) != 2 {
		t.Fatalf("snapshot slice rows %d, want 2", len(ind.Slices))
	}
}
