package core

import (
	"fmt"
	"reflect"
	"testing"

	"waran/internal/obs"
	"waran/internal/ran"
	"waran/internal/sched"
	"waran/internal/wabi"
)

// The slot path's allocation budget. What is left in a steady-state slot is
// what frozen interfaces force: the map sched.InterSlice.Divide returns (a
// header and a bucket), and with the slot ring on nothing more.

// fig5aCell loads g with the Fig. 5a slices (native schedulers of the same
// names) and perSlice always-backlogged UEs per slice.
func fig5aCell(t testing.TB, g *GNB, perSlice int) {
	t.Helper()
	id := uint32(1)
	for _, sp := range DefaultFig5aSpecs() {
		native, _ := sched.ByName(sp.Scheduler)
		if _, err := g.Slices.AddSlice(sp.ID, sp.Name, sp.TargetBps, native, nil); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < perSlice; k++ {
			ue := ran.NewUE(id, sp.ID, 16+int(id)%13)
			ue.Traffic = ran.NewCBR(2 * sp.TargetBps / float64(perSlice))
			if err := g.AttachUE(ue); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
}

// pooledCell is a one-cell group scheduled by pooled plugins, the way the
// benchmark's cell_* workloads and cmd/gnb build one.
func pooledCell(t testing.TB, perSlice int, withObs bool) *CellGroup {
	t.Helper()
	cg, err := NewCellGroup(ran.CellConfig{}, CellGroupConfig{Cells: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	fig5aCell(t, cg.Cell(0), perSlice)
	for _, sp := range DefaultFig5aSpecs() {
		if _, err := cg.InstallPooledScheduler(sp.ID, sp.Scheduler, wabi.Policy{}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if withObs {
		cg.EnableObservability(obs.NewRegistry(), obs.NewTraceRing(64))
	}
	return cg
}

func pinAllocs(t *testing.T, limit float64, step func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for i := 0; i < 200; i++ { // past pool creation, scratch growth, ring wrap
		step()
	}
	if got := testing.AllocsPerRun(200, step); got > limit {
		t.Fatalf("%.1f allocs per slot, want <= %.0f", got, limit)
	}
}

func TestStepAllocsNative(t *testing.T) {
	g, err := NewGNB(ran.CellConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fig5aCell(t, g, 8)
	pinAllocs(t, 5, func() { g.Step() })
}

func TestStepAllocsPooledPlugin(t *testing.T) {
	for _, perSlice := range []int{3, 32} {
		for _, withObs := range []bool{false, true} {
			t.Run(fmt.Sprintf("ues=%d/obs=%v", perSlice, withObs), func(t *testing.T) {
				cg := pooledCell(t, perSlice, withObs)
				limit := 5.0
				if withObs {
					limit = 7
				}
				pinAllocs(t, limit, func() { cg.StepAll() })
				for _, s := range cg.Cell(0).Slices.Slices() {
					if st := s.Stats(); st.FallbackSlots != 0 || st.TotalFaults != 0 {
						t.Fatalf("slice %d: %+v — the pin measured the fallback, not the plugin", s.ID, st)
					}
				}
			})
		}
	}
}

// TestSlotResultValidUntilNextStep is the lifetime rule as a test: the
// result a Step returns is the cell's slot scratch, so the next Step
// overwrites it and a Clone is what survives.
func TestSlotResultValidUntilNextStep(t *testing.T) {
	g, err := NewGNB(ran.CellConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fig5aCell(t, g, 3)
	first := g.Step()
	kept := first.Clone()
	want := first.Clone()
	if len(want.PerUE) == 0 || len(want.PerSlice) != 3 {
		t.Fatalf("first slot granted nothing: %+v", want)
	}

	// Detaching the granted UEs makes the second slot's maps differ in keys,
	// not only in values.
	for id := range want.PerUE {
		if err := g.DetachUE(id); err != nil {
			t.Fatal(err)
		}
	}
	second := g.Step()

	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("a cloned result changed under the next Step:\n got %+v\nwant %+v", kept, want)
	}
	if first.Slot != 0 || second.Slot != 1 {
		t.Fatalf("slots %d, %d", first.Slot, second.Slot)
	}
	if reflect.DeepEqual(first.PerUE, want.PerUE) {
		t.Fatal("the uncopied result still reads as slot 0: Step no longer reuses its maps")
	}
	if !reflect.DeepEqual(first.PerUE, second.PerUE) || !reflect.DeepEqual(first.PerSlice, second.PerSlice) {
		t.Fatal("the uncopied result does not alias the next slot's")
	}
}

// ioGuestWAT exports the smallest entry wabi accepts and one that crosses
// the byte ABI the way both xApps do: ask the input's length, read it, write
// it back.
const ioGuestWAT = `(module
  (import "waran" "input_length" (func $len (result i32)))
  (import "waran" "input_read" (func $read (param i32 i32 i32) (result i32)))
  (import "waran" "output_write" (func $write (param i32 i32)))
  (memory (export "memory") 1)
  (func (export "noop") (result i32) (i32.const 0))
  (func (export "echo") (result i32)
    (drop (call $read (i32.const 0) (i32.const 0) (call $len)))
    (call $write (i32.const 0) (call $len))
    (i32.const 0)))`

// TestPluginCallAllocs: a sandbox call costs nothing, and a host call costs
// nothing either — what is left of echo is the output copy the caller owns.
func TestPluginCallAllocs(t *testing.T) {
	mod, err := wabi.CompileWAT(ioGuestWAT)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := wabi.NewPlugin(mod, wabi.Policy{Fuel: 10_000}, wabi.Env{})
	if err != nil {
		t.Fatal(err)
	}
	pinAllocs(t, 0, func() {
		if _, err := pl.Call("noop", nil); err != nil {
			t.Fatal(err)
		}
	})
	in := []byte("kpm indication")
	pinAllocs(t, 1, func() {
		if out, err := pl.Call("echo", in); err != nil || string(out) != string(in) {
			t.Fatalf("echo = %q, %v", out, err)
		}
	})
}

// allocRequest is a slice of n backlogged UEs with distinct channels and
// averages, so every policy ranks, fills and (RR) spills.
func allocRequest(n int) *sched.Request {
	req := &sched.Request{SliceID: 1, Slot: 7, PRBBudget: 52}
	for i := 0; i < n; i++ {
		req.UEs = append(req.UEs, sched.UEInfo{
			ID: uint32(i + 1), MCS: int32(i % 29), BitsPerPRB: uint32(200 + 37*(i%11)),
			BufferBytes: uint32(50 + 400*(i%5)), AvgTputBps: float64(1e5 * (1 + i%7)),
		})
	}
	return req
}

func TestNativeSchedulerAllocs(t *testing.T) {
	req := allocRequest(32)
	for _, name := range []string{"rr", "mt", "pf"} {
		s, _ := sched.ByName(name)
		t.Run(name, func(t *testing.T) {
			var resp sched.Response
			pinAllocs(t, 1, func() {
				got, err := sched.ScheduleInto(s, req, &resp)
				if err != nil || got != &resp || got.TotalPRBs() != req.PRBBudget {
					t.Fatalf("%+v, %v", got, err)
				}
			})
		})
	}
}

func TestValidateAllocs(t *testing.T) {
	for _, n := range []int{32, sched.ZCMaxUEs} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			req := allocRequest(n)
			resp := &sched.Response{}
			for i := range req.UEs { // one PRB for as many UEs as the budget has
				if uint32(i) < req.PRBBudget {
					resp.Allocs = append(resp.Allocs, sched.Allocation{UEID: req.UEs[n-1-i].ID, PRBs: 1})
				}
			}
			pinAllocs(t, 0, func() {
				if err := resp.Validate(req); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

func TestDivideAllocs(t *testing.T) {
	demands := []sched.SliceDemand{
		{SliceID: 1, TargetRateBps: 3e6, AchievedBps: 3.1e6, DemandPRBs: 9, Weight: 1},
		{SliceID: 2, TargetRateBps: 12e6, AchievedBps: 9e6, DemandPRBs: 52, Weight: 1},
		{SliceID: 3, TargetRateBps: 15e6, AchievedBps: 15e6, DemandPRBs: 30, Weight: 1},
	}
	for _, inter := range []sched.InterSlice{sched.TargetRate{}, sched.WeightedFair{}, sched.FixedShare{}} {
		t.Run(inter.Name(), func(t *testing.T) {
			// The returned map is a header and a bucket array.
			pinAllocs(t, 2, func() {
				var total uint32
				for _, prbs := range inter.Divide(7, 52, demands) {
					total += prbs
				}
				if total != 52 {
					t.Fatalf("divided %d of 52 PRBs", total)
				}
			})
		})
	}
}
