package core

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"waran/internal/e2"
	"waran/internal/guard"
	"waran/internal/obs"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/sched"
	"waran/internal/wabi"
	"waran/internal/wat"
)

// TestSupervisedFallbackCounted: with one fallback, every slot a supervised
// slice's native fallback serves — the trapping plugin's own slots and the
// ones its open breaker refuses — reaches SlotResult.UsedFallback and the
// slice's FallbackSlots exactly once, and only the plugin's own errors are
// faults.
func TestSupervisedFallbackCounted(t *testing.T) {
	cg, err := NewCellGroup(ran.CellConfig{}, CellGroupConfig{Cells: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := cg.Cell(0)
	s, err := g.Slices.AddSlice(1, "tenant", 10e6, sched.RoundRobin{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(1); i <= 3; i++ {
		ue := ran.NewUE(i, 1, 20)
		ue.Traffic = ran.NewCBR(20e6)
		if err := g.AttachUE(ue); err != nil {
			t.Fatal(err)
		}
	}
	trap, err := wat.CompileToBinary(plugins.NullDerefWAT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cg.installPooled(1, "null-deref", trap, wabi.Policy{}, 1); err != nil {
		t.Fatal(err)
	}
	const slots = 100
	cg.RunSlots(slots, func(_ int, r SlotResult) {
		if ss := r.PerSlice[1]; !ss.UsedFallback || ss.GrantedPRBs == 0 {
			t.Fatalf("slot %d: %+v, want a slot served by the fallback", r.Slot, ss)
		}
	})
	sup := cg.Supervisor(1)
	traps := sup.Breaker().FailureCount(wabi.FailTrap)
	if st := s.Stats(); st.FallbackSlots != slots || st.TotalFaults != traps {
		t.Fatalf("slice stats %+v, want %d fallback slots and %d faults (the plugin's traps)", st, slots, traps)
	}
	if st := sup.Stats(); st.Calls != slots || traps == 0 || traps >= slots || st.Breaker.State != "open" {
		t.Fatalf("supervisor %+v: want %d calls, the breaker open after some traps", st, slots)
	}
}

// TestRICSwapOnSharedSlicePoolsCandidate: a RIC swap onto a slice a cell
// group supervises lands on the supervisor every cell shares, so the
// candidate must be pooled: stripes stepping concurrently each get their own
// sandbox. Meaningful under -race.
func TestRICSwapOnSharedSlicePoolsCandidate(t *testing.T) {
	const cells = 4
	cg, err := NewCellGroup(ran.CellConfig{}, CellGroupConfig{Cells: cells, Parallelism: cells})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cells; i++ {
		g := cg.Cell(i)
		if _, err := g.Slices.AddSlice(1, "tenant", 10e6, sched.RoundRobin{}, nil); err != nil {
			t.Fatal(err)
		}
		for k := uint32(1); k <= 3; k++ {
			ue := ran.NewUE(k, 1, 18+int(k))
			ue.Traffic = ran.NewCBR(8e6)
			if err := g.AttachUE(ue); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := cg.InstallPooledScheduler(1, "rr", wabi.Policy{}, cells); err != nil {
		t.Fatal(err)
	}
	if err := cg.Cell(0).Apply(&e2.ControlRequest{Action: e2.ActionSwapScheduler, SliceID: 1, Text: "pf"}); err != nil {
		t.Fatal(err)
	}
	cg.RunSlots(200, nil)

	if _, ok := cg.Supervisor(1).Active().(*sched.PoolScheduler); !ok {
		t.Fatalf("swapped-in scheduler is %T, want *sched.PoolScheduler", cg.Supervisor(1).Active())
	}
	for i := 0; i < cells; i++ {
		s, _ := cg.Cell(i).Slices.Slice(1)
		if name, st := s.SchedulerName(), s.Stats(); name != "pool:pf" || st.FallbackSlots != 0 {
			t.Fatalf("cell %d runs %q with %+v, want pool:pf and no fallback", i, name, st)
		}
	}
}

// TestUploadOfUncachedModulePromoted: an upload of bytecode the cache has
// never seen, after slots have run, is compiled, instantiated and
// shadow-replayed in one Apply; a correct candidate is promoted under the
// default wall-clock replay budget. Meaningful under -race.
func TestUploadOfUncachedModulePromoted(t *testing.T) {
	cg, err := NewCellGroup(ran.CellConfig{}, CellGroupConfig{Cells: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := cg.Cell(0)
	s, err := g.Slices.AddSlice(1, "tenant", 10e6, sched.RoundRobin{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(1); i <= 3; i++ {
		ue := ran.NewUE(i, 1, 18+int(i))
		ue.Traffic = ran.NewCBR(8e6)
		if err := g.AttachUE(ue); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cg.InstallPooledScheduler(1, "rr", wabi.Policy{}, 1); err != nil {
		t.Fatal(err)
	}
	cg.RunSlots(16, nil)
	bin, err := wat.CompileToBinary(plugins.ProportionalFairWAT)
	if err != nil {
		t.Fatal(err)
	}
	misses := cg.Modules.Stats().Misses
	if err := g.Apply(&e2.ControlRequest{Action: e2.ActionUploadScheduler, SliceID: 1, Text: "pf-new", Blob: bin}); err != nil {
		t.Fatalf("correct uncached upload rejected: %v", err)
	}
	if got := cg.Modules.Stats().Misses; got != misses+1 {
		t.Fatalf("cache misses %d -> %d: the upload was not new to the cache", misses, got)
	}
	if st := cg.Supervisor(1).Stats(); s.SchedulerName() != "pool:pf-new" || st.ShadowPass != 1 {
		t.Fatalf("slice runs %q, supervisor %+v: want pool:pf-new promoted after its shadow run", s.SchedulerName(), st)
	}
}

// TestSuperviseSharesOneSupervisor: Supervise on the cells of a group, all
// at once, puts the slice's shared scheduler under the group's one
// supervisor and returns that one to every caller, and refuses a slice whose
// cells each run a plugin of their own, which one supervisor cannot share.
func TestSuperviseSharesOneSupervisor(t *testing.T) {
	const cells = 4
	cg, err := NewCellGroup(ran.CellConfig{}, CellGroupConfig{Cells: cells, Parallelism: cells})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cells; i++ {
		if _, err := cg.Cell(i).Slices.AddSlice(1, "native", 10e6, sched.RoundRobin{}, nil); err != nil {
			t.Fatal(err)
		}
		own, err := NewPluginScheduler("rr", wabi.Policy{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cg.Cell(i).Slices.AddSlice(2, "own", 10e6, own, nil); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	cg.EnableObservability(reg, nil)
	got := make([]*guard.Supervisor, cells)
	var wg sync.WaitGroup
	wg.Add(cells)
	for i := 0; i < cells; i++ {
		go func(i int) {
			defer wg.Done()
			var err error
			if got[i], err = cg.Cell(i).Supervise(1); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	sup := cg.Supervisor(1)
	for i, s := range got {
		if s != sup || sup == nil {
			t.Fatalf("cell %d's Supervise returned %p, want the group's one supervisor %p", i, s, sup)
		}
	}
	if _, ok := reg.Snapshot()[`waran_guard{slice="1"}`]; !ok {
		t.Fatal("a supervisor made after EnableObservability is not on the registry")
	}
	for i := 0; i < cells; i++ {
		if s, _ := cg.Cell(i).Slices.Slice(1); s.Scheduler() != sched.IntraSlice(sup) {
			t.Fatalf("cell %d runs %T, want the shared supervisor", i, s.Scheduler())
		}
	}
	if _, err := cg.Cell(0).Supervise(2); err == nil || !strings.Contains(err.Error(), "different scheduler") {
		t.Fatalf("cells running a plugin each put under one supervisor: err = %v", err)
	}
	bin, err := builtinBinary("pf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cg.UploadSchedulerAll(2, "pf", bin, wabi.Policy{}, 2); err == nil || !strings.Contains(err.Error(), "different scheduler") {
		t.Fatalf("upload onto cells running a plugin each: err = %v, want a refusal", err)
	}
}

// TestGNBRejectsHostileUpload: on a group built the way cmd/gnb builds one,
// a trapping guest and a fuel-exhausting guest uploaded over E2 after the
// supervisor has recorded slots both fail shadow validation. Each comes back
// as an error carrying the shadow report, the incumbent keeps serving, and
// no slot falls back.
func TestGNBRejectsHostileUpload(t *testing.T) {
	cg := pooledCell(t, 3, false)
	g := cg.Cell(0)
	cg.RunSlots(16, nil)
	s, _ := g.Slices.Slice(1)
	incumbent, before := s.SchedulerName(), s.Stats().FallbackSlots

	for _, up := range []struct{ name, src, why string }{
		{"trap", plugins.NullDerefWAT, "trap"},
		{"spin", plugins.InfiniteLoopWAT, "fuel"},
	} {
		name := up.name
		bin, err := wat.CompileToBinary(up.src)
		if err != nil {
			t.Fatal(err)
		}
		err = g.Apply(&e2.ControlRequest{Action: e2.ActionUploadScheduler, SliceID: 1, Text: name, Blob: bin})
		var rej *guard.RejectedError
		if !errors.As(err, &rej) {
			t.Fatalf("%s upload: err = %v, want a *guard.RejectedError", name, err)
		}
		if rep := rej.Report; rep.Promoted || rep.Runs != 1 || !strings.Contains(rep.Reason, up.why) {
			t.Fatalf("%s upload: report %+v, want the first replay to fail on %s", name, rep, up.why)
		}
	}
	cg.RunSlots(16, nil)
	if got, st := s.SchedulerName(), s.Stats(); got != incumbent || st.FallbackSlots != before {
		t.Fatalf("after rejected uploads: %q with %d fallback slots, want %q with %d", got, st.FallbackSlots, incumbent, before)
	}
}
