package core

import (
	"fmt"
	"reflect"
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
			ue.Traffic = ran.NewOnOff(6e6, 40*time.Millisecond, 20*time.Millisecond, seed)
			ue.Channel = ran.NewRandomWalkChannel(6, 15, 0.3, seed+7)
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
		if name := cg.Cell(i).Slices.Slices()[0].SchedulerName(); name != "plugin:pf-up" {
			t.Fatalf("cell %d runs %q after upload", i, name)
		}
	}
}

// TestCellGroupWatchdogPinsSlowCell: consecutive deadline overruns must pin
// the cell to native fallback scheduling, exactly like the per-slice
// quarantine path, and ReleaseCell must lift the pin.
func TestCellGroupWatchdogPinsSlowCell(t *testing.T) {
	cg, err := NewCellGroup(ran.CellConfig{}, CellGroupConfig{
		Cells:             2,
		Parallelism:       2,
		SlotDeadline:      time.Nanosecond, // everything overruns
		FallbackOnOverrun: true,
		OverrunThreshold:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		populateCell(t, cg.Cell(i), i)
	}
	cg.RunSlots(5, nil)

	for i := 0; i < 2; i++ {
		if !cg.CellPinned(i) {
			t.Fatalf("cell %d not pinned after persistent overruns", i)
		}
		st := cg.WatchdogStats()[i]
		if st.Slots != 5 || st.Overruns != 5 {
			t.Fatalf("cell %d watchdog = %+v", i, st)
		}
	}
	// Pinned cells schedule natively: the next slot uses fallback.
	res := cg.StepAll()
	for i := 0; i < 2; i++ {
		for sliceID, ss := range res[i].PerSlice {
			if ss.BudgetPRBs > 0 && !ss.UsedFallback {
				t.Fatalf("cell %d slice %d still ran its plugin while pinned", i, sliceID)
			}
		}
	}
	cg.ReleaseCell(0)
	if cg.CellPinned(0) || cg.Cell(0).Slices.ForceFallback() {
		t.Fatal("ReleaseCell did not lift the pin")
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
