package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"waran/internal/e2"
	"waran/internal/obs/flight"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/sched"
	"waran/internal/wabi"
	"waran/internal/wasm"
	"waran/internal/wat"
)

// populateCell loads one cell with two slices and seeded UEs. Seeds derive
// from the cell index only, so calling this twice for the same index builds
// byte-identical cells — the foundation of the determinism tests.
func populateCell(t testing.TB, g *GNB, cell int) {
	t.Helper()
	rr, err := NewPluginScheduler("rr", wabi.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := NewPluginScheduler("pf", wabi.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Slices.AddSlice(1, "embb", 12e6, rr, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Slices.AddSlice(2, "mvno", 8e6, pf, nil); err != nil {
		t.Fatal(err)
	}
	ueID := uint32(1)
	for s := uint32(1); s <= 2; s++ {
		for k := 0; k < 3; k++ {
			seed := int64(1000*cell + 10*int(s) + k)
			ue := ran.NewUE(ueID, s, 18+2*k)
			ue.Traffic = ran.NewCBR(float64(2+seed%5) * 1e6)
			ue.Channel = ran.NewFadingChannel(6, 15, time.Duration(40+10*(seed%5))*time.Millisecond, float64(seed%7), time.Millisecond)
			if err := g.AttachUE(ue); err != nil {
				t.Fatal(err)
			}
			ueID++
		}
	}
}

func buildGroup(t testing.TB, cells, parallelism int) *CellGroup {
	t.Helper()
	cg, err := NewCellGroup(ran.CellConfig{}, CellGroupConfig{Cells: cells, Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cells; i++ {
		populateCell(t, cg.Cell(i), i)
	}
	return cg
}

// TestCellGroupSerialMatchesSingleCellLoop: parallelism 1 must be
// byte-identical to today's serial loop over standalone gNBs.
func TestCellGroupSerialMatchesSingleCellLoop(t *testing.T) {
	const cells, slots = 3, 300
	cg := buildGroup(t, cells, 1)

	standalone := make([]*GNB, cells)
	for i := range standalone {
		g, err := NewGNB(ran.CellConfig{})
		if err != nil {
			t.Fatal(err)
		}
		populateCell(t, g, i)
		standalone[i] = g
	}

	for slot := 0; slot < slots; slot++ {
		group := cg.StepAll()
		for i, g := range standalone {
			serial := g.Step()
			if !reflect.DeepEqual(serial, group[i]) {
				t.Fatalf("slot %d cell %d: group result diverged from serial loop\nserial: %+v\ngroup:  %+v",
					slot, i, serial, group[i])
			}
		}
	}
}

// TestCellGroupDeterminism is the striped engine's safety net: for every
// group size and Parallelism — stripes that do not divide the cells, more
// workers than cells, the GOMAXPROCS default — each cell's SlotResult
// sequence must equal the one the same cell produces standalone in a plain
// serial loop, every cell must be stepped exactly once per slot, and the
// shared schedulers must compile once group-wide.
func TestCellGroupDeterminism(t *testing.T) {
	const maxCells = 8
	slots := 300
	if testing.Short() {
		slots = 100
	}

	// Cells are seeded by index and share nothing, so one standalone run of
	// maxCells cells is the reference for every smaller group too.
	serial := make([][]SlotResult, maxCells)
	for i := range serial {
		g, err := NewGNB(ran.CellConfig{})
		if err != nil {
			t.Fatal(err)
		}
		populateCell(t, g, i)
		for s := 0; s < slots; s++ {
			serial[i] = append(serial[i], g.Step().Clone())
		}
	}

	for _, cells := range []int{1, 5, maxCells} {
		for _, par := range []int{1, 2, 3, 8, 0} {
			t.Run(fmt.Sprintf("cells=%d/par=%d", cells, par), func(t *testing.T) {
				cg := buildGroup(t, cells, par)
				// Shared pool-backed schedulers across all cells: the maximally
				// concurrent configuration, and still deterministic because the
				// built-in plugins are pure functions of the request.
				for id, name := range map[uint32]string{1: "rr", 2: "pf"} {
					if _, err := cg.InstallPooledScheduler(id, name, wabi.Policy{}, 2*cells); err != nil {
						t.Fatal(err)
					}
				}
				if st := cg.Modules.Stats(); st.Misses != 2 {
					t.Fatalf("2 shared schedulers compiled %d modules across %d cells", st.Misses, cells)
				}
				for s := 0; s < slots; s++ {
					for i, got := range cg.StepAll() {
						if !reflect.DeepEqual(serial[i][s], got) {
							t.Fatalf("cell %d slot %d: group result differs\nserial: %+v\ngroup:  %+v",
								i, s, serial[i][s], got)
						}
					}
				}
				if cg.Slot() != uint64(slots) {
					t.Fatalf("group at slot %d, want %d", cg.Slot(), slots)
				}
				for i, ws := range cg.WatchdogStats() {
					if ws.Slots != uint64(slots) || cg.Cell(i).Slot() != uint64(slots) {
						t.Fatalf("cell %d: watchdog saw %d slots, cell at slot %d, want %d",
							i, ws.Slots, cg.Cell(i).Slot(), slots)
					}
				}
			})
		}
	}
}

// withProcs sets GOMAXPROCS to n for the rest of the test.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// twoStripes gives the test at least two Ps, so a group at Parallelism 2
// runs a stripe worker whatever the machine's CPU count.
func twoStripes(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		withProcs(t, 2)
	}
}

// pooledGroup is buildGroup with both slices scheduled by group-wide pooled
// plugins, the configuration TestCellGroupDeterminism steps.
func pooledGroup(t testing.TB, cells, parallelism int) *CellGroup {
	t.Helper()
	cg := buildGroup(t, cells, parallelism)
	for id, name := range map[uint32]string{1: "rr", 2: "pf"} {
		if _, err := cg.InstallPooledScheduler(id, name, wabi.Policy{}, 2*cells); err != nil {
			t.Fatal(err)
		}
	}
	return cg
}

// TestCellGroupDeterminismOneP runs the determinism table again with a
// single P, where every Parallelism resolves to one stripe on the caller: a
// stripe that waited for the P its caller holds would hang here.
func TestCellGroupDeterminismOneP(t *testing.T) {
	withProcs(t, 1)
	TestCellGroupDeterminism(t)
}

// TestParallelismCapsAtGOMAXPROCS: the stripe count is Parallelism (0
// meaning GOMAXPROCS) capped at the cell count and at GOMAXPROCS.
func TestParallelismCapsAtGOMAXPROCS(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		withProcs(t, procs)
		for _, tc := range []struct{ cells, par, want int }{
			{8, 0, min(8, procs)},
			{8, 1, 1},
			{8, 3, min(3, procs)},
			{8, 8, procs},
			{3, 8, min(3, procs)},
			{1, 0, 1},
		} {
			cg, err := NewCellGroup(ran.CellConfig{}, CellGroupConfig{Cells: tc.cells, Parallelism: tc.par})
			if err != nil {
				t.Fatal(err)
			}
			if got := cg.parallelism(); got != tc.want {
				t.Fatalf("GOMAXPROCS=%d cells=%d Parallelism=%d: %d stripes, want %d",
					procs, tc.cells, tc.par, got, tc.want)
			}
		}
	}
}

// waitGoroutines polls until at most n goroutines are left, for up to 1 s.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 1 s after the last slot, want at most %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStripeWorkersDoNotOutliveTheSlots: a group stepped on two stripes
// leaves no goroutine behind once its slots stop — there is no Close — and,
// stepped again, goes on producing its serial twin's results. The bursts
// step back to back, so the worker is waiting on-CPU when they end.
func TestStripeWorkersDoNotOutliveTheSlots(t *testing.T) {
	twoStripes(t)
	const cells = 4
	before := runtime.NumGoroutine()
	striped, serial := pooledGroup(t, cells, 2), pooledGroup(t, cells, 1)

	lockstep := func(slots int) {
		t.Helper()
		for s := 0; s < slots; s++ {
			if got, want := striped.StepAll(), serial.StepAll(); !reflect.DeepEqual(got, want) {
				t.Fatalf("slot %d: striped results differ from the serial twin's\nserial:  %+v\nstriped: %+v",
					striped.Slot(), want, got)
			}
		}
	}
	burst := func(slots int) {
		t.Helper()
		for s := 0; s < slots; s++ {
			striped.StepAll()
		}
		for s := 0; s < slots; s++ {
			serial.StepAll()
		}
		lockstep(1)
	}

	lockstep(50)
	burst(200)
	waitGoroutines(t, before)
	lockstep(50)
	burst(200)
	waitGoroutines(t, before)
}

// TestStartedWorkerStepsNoServedSlot: the worker the caller found running
// can serve a posted slot and exit before the caller's CAS, so the caller
// starts a second worker for a slot already done. That worker must answer
// the caller's wait without stepping its cells a second time.
func TestStartedWorkerStepsNoServedSlot(t *testing.T) {
	cg := buildGroup(t, 4, 2)
	cg.stripes = 2
	sw := &stripeWorker{wake: make(chan struct{}, 1)}
	sw.req.Store(5)
	sw.done.Store(5)
	sw.running.Store(true)
	cg.runStripe(1, sw)
	select {
	case <-sw.wake:
	default:
		t.Fatal("the started worker returned without waking the caller")
	}
	for _, i := range []int{1, 3} {
		if s := cg.Cell(i).Slot(); s != 0 {
			t.Fatalf("cell %d stepped to slot %d for a slot already served", i, s)
		}
	}
	if sw.running.Load() || sw.done.Load() != 5 {
		t.Fatalf("running=%v done=%d after the worker returned, want false and 5", sw.running.Load(), sw.done.Load())
	}
}

// TestPacedStepAllLeavesNoWorkerBetweenSlots: when the caller rests for
// many stripe steps between slots, as a real-time slot clock does, the
// worker does not wait for the next slot — every slot starts a new one.
func TestPacedStepAllLeavesNoWorkerBetweenSlots(t *testing.T) {
	twoStripes(t)
	cg := pooledGroup(t, 4, 2)
	start := time.Now()
	cg.StepAll()
	pause := max(10*time.Since(start), 5*time.Millisecond)
	for s := 0; s < 20; s++ {
		time.Sleep(pause)
		cg.StepAll()
		if !cg.workers[0].cold {
			t.Fatalf("slot %d was posted to a worker still running %v after the last slot", cg.Slot(), pause)
		}
	}
}

// TestCellGroupStripesShareFlightRecorder steps a group whose every slot
// overruns from two stripes into one attached flight recorder: every miss
// must be journaled once, with its own cell. Meaningful under -race.
func TestCellGroupStripesShareFlightRecorder(t *testing.T) {
	const cells, slots = 5, 40
	cg, err := NewCellGroup(ran.CellConfig{}, CellGroupConfig{
		Cells: cells, Parallelism: 2, SlotDeadline: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cells; i++ {
		populateCell(t, cg.Cell(i), i)
	}
	rec := flight.NewRecorder(cells * slots)
	cg.SetFlightRecorder(rec)
	cg.RunSlots(slots, nil)

	perCell := make([]int, cells)
	for _, ev := range rec.Tail(cells * slots) {
		if ev.Class != flight.EvSlotDeadlineMiss {
			t.Fatalf("unexpected %v event", ev.Class)
		}
		perCell[ev.Cell]++
	}
	for i, n := range perCell {
		if n != slots {
			t.Fatalf("cell %d journaled %d misses, want %d", i, n, slots)
		}
	}
}

// TestCellGroupModuleCacheCompilesOnce: hot-swapping identical bytecode
// onto 64 cells — via the group path and then again per cell through the
// E2 control path — must run wasm.Compile exactly once.
func TestCellGroupModuleCacheCompilesOnce(t *testing.T) {
	const cells = 64
	cg, err := NewCellGroup(ran.CellConfig{}, CellGroupConfig{Cells: cells, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cells; i++ {
		if _, err := cg.Cell(i).Slices.AddSlice(1, "tenant", 10e6, sched.RoundRobin{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := wat.CompileToBinary(plugins.ProportionalFairWAT)
	if err != nil {
		t.Fatal(err)
	}

	before := wasm.CompileCount()
	if _, err := cg.UploadSchedulerAll(1, "pf-v2", blob, wabi.Policy{}, 8); err != nil {
		t.Fatal(err)
	}
	// Re-upload the same bytes onto every cell individually through the
	// E2 control surface; all 64 must hit the shared cache.
	for i := 0; i < cells; i++ {
		err := cg.Cell(i).Apply(&e2.ControlRequest{
			Action: e2.ActionUploadScheduler, SliceID: 1, Text: "pf-up", Blob: blob,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := wasm.CompileCount() - before; got != 1 {
		t.Fatalf("64-cell hot-swap ran wasm.Compile %d times, want exactly 1", got)
	}
	if st := cg.Modules.Stats(); st.Misses != 1 || st.Hits != uint64(cells) {
		t.Fatalf("cache stats = %d hits / %d misses, want %d/1", st.Hits, st.Misses, cells)
	}
	for i := 0; i < cells; i++ {
		if name := cg.Cell(i).Slices.Slices()[0].SchedulerName(); name != "pool:pf-up" {
			t.Fatalf("cell %d runs %q after upload", i, name)
		}
	}
}

// TestCellGroupValidation covers constructor edges.
func TestCellGroupValidation(t *testing.T) {
	if _, err := NewCellGroup(ran.CellConfig{}, CellGroupConfig{Cells: 0}); err == nil {
		t.Fatal("0-cell group accepted")
	}
	cg, err := NewCellGroup(ran.CellConfig{}, CellGroupConfig{Cells: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cg.UploadSchedulerAll(9, "x", []byte{1, 2, 3}, wabi.Policy{}, 2); err == nil {
		t.Fatal("garbage bytecode accepted")
	}
	blob, err := wat.CompileToBinary(plugins.RoundRobinWAT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cg.UploadSchedulerAll(9, "x", blob, wabi.Policy{}, 2); err == nil {
		t.Fatal("swap onto unknown slice accepted")
	}
}
