package plugins

import (
	"fmt"
	"math/rand"
	"testing"

	"waran/internal/sched"
	"waran/internal/wabi"
)

// fuelRequest is the fixture the instruction ceilings and the guest
// benchmark share: nUE UEs at MCS 16–28 in random key order, each
// backlogged by 20–220 kB (far more than any budget below serves) or, with
// onePRB, holding exactly one PRB's worth of data.
func fuelRequest(nUE int, budget uint32, onePRB bool) *sched.Request {
	rng := rand.New(rand.NewSource(int64(nUE)))
	req := &sched.Request{SliceID: 1, Slot: 7, PRBBudget: budget}
	for i := 0; i < nUE; i++ {
		mcs := int32(16 + rng.Intn(13))
		u := sched.UEInfo{
			ID:          uint32(100 + i),
			MCS:         mcs,
			BitsPerPRB:  uint32(40 + 60*mcs),
			BufferBytes: uint32(20_000 + rng.Intn(200_001)),
			AvgTputBps:  float64(1 + rng.Intn(30_000_000)),
		}
		if onePRB {
			u.BufferBytes = u.BitsPerPRB / 8
		}
		req.UEs = append(req.UEs, u)
	}
	return req
}

// TestSchedulerFuelCeilings pins what a decision costs in guest
// instructions, which repeat exactly: a guest edit that keeps every decision
// but spends more fuel fails here, not in the differentials. The 512-UE
// cells are bounded by the replaced guests' own figures on the same request
// (reference_test.go runs them), by the 10 M budget core and bench/ arm,
// and at the cell's real PRB budget by 1 M.
func TestSchedulerFuelCeilings(t *testing.T) {
	fuel := func(s *sched.PoolScheduler, req *sched.Request) int64 {
		if _, err := s.Schedule(req); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		return s.LastFuelUsed()
	}
	ceilings := map[string]map[int]int64{ // guest -> UEs -> fuel at budget 17
		"rr": {3: 1200, 32: 3600},
		"pf": {3: 420, 32: 3300},
		"mt": {3: 400, 32: 3000},
	}
	for _, name := range []string{"rr", "pf", "mt"} {
		guest := zcSched(t, name)
		refMod, err := wabi.CompileWAT(refSchedulerWAT(name))
		if err != nil {
			t.Fatal(err)
		}
		old := poolSched(t, name, refMod, diffPolicy, wabi.Env{})
		for _, ues := range []int{3, 32} {
			req := fuelRequest(ues, 17, false)
			got, ceiling := fuel(guest, req), ceilings[name][ues]
			t.Logf("%s %3d UEs budget 17: fuel %d (replaced guest %d, ceiling %d)", name, ues, got, fuel(old, req), ceiling)
			if got > ceiling {
				t.Errorf("%s at %d UEs: fuel %d above ceiling %d", name, ues, got, ceiling)
			}
		}
		for _, budget := range []uint32{52, 512, 100_000} {
			for _, onePRB := range []bool{false, true} {
				req := fuelRequest(512, budget, onePRB)
				got, was := fuel(guest, req), fuel(old, req)
				t.Logf("%s 512 UEs budget %6d onePRB %-5v: fuel %8d (replaced guest %8d)", name, budget, onePRB, got, was)
				if got > was {
					t.Errorf("%s at 512 UEs, budget %d, onePRB %v: fuel %d above the replaced guest's %d", name, budget, onePRB, got, was)
				}
				limit := int64(wabi.DefaultFuel) // Policy.Fuel as core and bench/ arm it
				if budget == 52 {
					limit = 1_000_000
				}
				if got > limit {
					t.Errorf("%s at 512 UEs, budget %d, onePRB %v: fuel %d above %d", name, budget, onePRB, got, limit)
				}
			}
		}
	}
}

// BenchmarkSchedulerGuest times one sandboxed decision per built-in guest at
// the Fig. 5a (3), cell_dense (32) and 64-UE slice sizes and reports its
// fuel; the three 64-UE figures together are what a 64-UE-per-slice cell
// pays per slot.
func BenchmarkSchedulerGuest(b *testing.B) {
	for _, name := range []string{"rr", "pf", "mt"} {
		for _, ues := range []int{3, 32, 64} {
			b.Run(fmt.Sprintf("%s/%d", name, ues), func(b *testing.B) {
				guest := zcSched(b, name)
				native, _ := sched.ByName(name)
				req := fuelRequest(ues, 17, false)
				want, err := native.Schedule(req)
				if err != nil {
					b.Fatal(err)
				}
				var resp sched.Response
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sched.ScheduleInto(guest, req, &resp); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if !allocsEqual(resp.Allocs, want.Allocs) {
					b.Fatalf("guest %v != native %v", resp.Allocs, want.Allocs)
				}
				b.ReportMetric(float64(guest.LastFuelUsed()), "fuel")
			})
		}
	}
}
