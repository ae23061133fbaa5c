package core

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"waran/internal/guard"
	"waran/internal/metrics"
	"waran/internal/obs"
	"waran/internal/obs/flight"
	"waran/internal/obs/trace"
	"waran/internal/ran"
	"waran/internal/wabi"
)

// CellGroupConfig shapes a multi-cell slot engine.
type CellGroupConfig struct {
	// Cells is the number of gNB cells in the group (at least 1).
	Cells int
	// Parallelism bounds concurrent cell steps per slot. 0 means
	// GOMAXPROCS; 1 reproduces the serial single-cell loop exactly.
	Parallelism int
	// SlotDeadline is the per-cell wall-clock budget the watchdog measures
	// each slot against. 0 means the cell's slot duration (the paper's
	// 1 ms). The watchdog only observes: a miss is counted and journaled,
	// never acted on.
	SlotDeadline time.Duration
}

// CellGroup owns N independent gNB cells and steps them concurrently each
// slot over static stripes (worker w owns cells w, w+par, ...) — the
// multi-cell deployment ORANSlice evaluates, driven by one slot clock. Cells
// share one content-addressed module cache, so hot-swapping the same plugin
// bytecode onto every cell compiles it exactly once, and share each plugin
// slice's pooled sandboxes and supervisor (supervised.go), so intra-slice
// decisions from different cells execute in parallel sandboxes of one
// compiled module under one breaker.
//
// Determinism: each cell's UEs, channels and traffic sources are seeded
// per-cell and never shared, so a group stepped with Parallelism=1 yields
// byte-identical SlotResults to stepping the same cells serially, and any
// Parallelism yields identical per-cell sequences (locked in by
// TestCellGroupDeterminism).
type CellGroup struct {
	cfg   CellGroupConfig
	cells []*GNB
	// Modules is the group's shared content-addressed compiled-module
	// cache; every cell's upload path resolves bytecode through it.
	Modules *wabi.ModuleCache

	watch   []*metrics.DeadlineMeter
	slot    uint64
	results []SlotResult // what StepAll returns, refilled every slot

	// flight is the incident journal (nil = off). Set via SetFlightRecorder
	// before the slot loop starts; stepCell reads it without synchronization
	// on the same set-before-run contract as PluginEnv.
	flight *flight.Recorder

	// mu serializes putting slices under supervision (supervised.go), so
	// cells applying controls at once agree on one supervisor per slice. It
	// also guards reg, where new supervisors register (nil = unobserved).
	mu  sync.Mutex
	reg *obs.Registry

	// PluginEnv is merged into the environment of every pool the group
	// builds (InstallPooledScheduler / UploadSchedulerAll / RIC uploads):
	// the injection point for the wasm profiler and other host extensions.
	// Set before installing schedulers.
	PluginEnv wabi.Env
	// Guard configures the supervisor of every slice the group supervises
	// (InstallPooledScheduler, and the first upload onto or Supervise of a
	// slice not yet supervised). Set before installing schedulers.
	Guard guard.Config
}

// NewCellGroup creates cfg.Cells identical cells (defaults applied). The
// caller then populates each cell's slices and UEs via Cell(i), typically
// with per-cell seeds.
func NewCellGroup(cell ran.CellConfig, cfg CellGroupConfig) (*CellGroup, error) {
	if cfg.Cells < 1 {
		return nil, fmt.Errorf("core: cell group needs at least 1 cell, got %d", cfg.Cells)
	}
	cell = cell.WithDefaults()
	if cfg.SlotDeadline == 0 {
		cfg.SlotDeadline = cell.SlotDuration
	}
	cg := &CellGroup{
		cfg:     cfg,
		cells:   make([]*GNB, cfg.Cells),
		Modules: wabi.NewModuleCache(),
		watch:   make([]*metrics.DeadlineMeter, cfg.Cells),
		results: make([]SlotResult, cfg.Cells),
	}
	for i := range cg.cells {
		g, err := NewGNB(cell)
		if err != nil {
			return nil, err
		}
		g.Modules = cg.Modules
		g.group = cg
		cg.cells[i] = g
		cg.watch[i] = metrics.NewDeadlineMeter(cfg.SlotDeadline)
	}
	return cg, nil
}

// NumCells returns the group size.
func (cg *CellGroup) NumCells() int { return len(cg.cells) }

// Cell returns the i-th gNB.
func (cg *CellGroup) Cell(i int) *GNB { return cg.cells[i] }

// Slot returns the group slot counter (slots completed by StepAll).
func (cg *CellGroup) Slot() uint64 { return cg.slot }

// parallelism resolves the effective worker count for this group.
func (cg *CellGroup) parallelism() int {
	p := cg.cfg.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > len(cg.cells) {
		p = len(cg.cells)
	}
	return p
}

// StepAll advances every cell by one slot, at most Parallelism cells
// concurrently, and returns the per-cell results indexed by cell. Each
// cell's step is timed against the slot deadline; overruns are recorded in
// the cell's DeadlineMeter and journaled. The returned slice and every
// SlotResult in it are the group's and the cells' own storage, valid until
// the next StepAll.
func (cg *CellGroup) StepAll() []SlotResult {
	results := cg.results
	if par := cg.parallelism(); par > 1 {
		cg.stepStripes(par, results)
	} else {
		cg.stepStripe(0, 1, results)
	}
	cg.slot++
	return results
}

// stepStripe steps cells w, w+par, w+2*par, ... on the calling goroutine.
func (cg *CellGroup) stepStripe(w, par int, results []SlotResult) {
	for i := w; i < len(cg.cells); i += par {
		cg.stepCell(i, results)
	}
}

// stepStripes runs stripe 0 on the caller and stripes 1..par-1 on
// goroutines, and returns when all have finished. It is a function of its
// own, entered only when par > 1, because the WaitGroup the goroutines
// capture is heap-allocated wherever it is declared: in StepAll it would
// cost the serial path an allocation per slot.
func (cg *CellGroup) stepStripes(par int, results []SlotResult) {
	var wg sync.WaitGroup
	wg.Add(par - 1)
	for w := 1; w < par; w++ {
		go func(w int) {
			defer wg.Done()
			cg.stepStripe(w, par, results)
		}(w)
	}
	cg.stepStripe(0, par, results)
	wg.Wait()
}

// stepCell runs one cell's slot under the deadline watchdog. Cell i belongs
// to exactly one stripe, so its meter is written by one goroutine.
func (cg *CellGroup) stepCell(i int, results []SlotResult) {
	start := time.Now()
	results[i] = cg.cells[i].Step()
	dur := time.Since(start)
	if cg.watch[i].Observe(dur) {
		// Journal the miss on the rare edge only; the common in-budget slot
		// never touches the recorder (nil recorder adds 0 allocs, pinned by
		// TestDisabledFlightRecorderAddsZeroAllocs).
		cg.flight.Record(flight.Event{
			Class: flight.EvSlotDeadlineMiss, Plane: flight.PlaneGNB,
			Cell: uint32(i), Slot: cg.slot,
			Value: float64(dur.Nanoseconds()),
		})
	}
}

// RunSlots advances the group n slots, invoking observe (if non-nil) per
// cell per slot. Each result is valid for the duration of that observe call.
func (cg *CellGroup) RunSlots(n int, observe func(cell int, r SlotResult)) {
	for i := 0; i < n; i++ {
		res := cg.StepAll()
		if observe != nil {
			for c := range res {
				observe(c, res[c])
			}
		}
	}
}

// EnableObservability wires the whole group into the observability layer:
// each cell's GNB registers slot instruments under its cell label, the
// per-cell deadline watchdogs and the shared module cache are exposed, and
// (when ring is non-nil) every slot step appends a trace event. Call after
// populating slices and before the slot loop starts.
func (cg *CellGroup) EnableObservability(reg *obs.Registry, ring *obs.TraceRing) {
	for i, g := range cg.cells {
		g.EnableObservability(reg, ring, i, cg.cfg.SlotDeadline)
		reg.MustRegister("waran_cell_deadline", "cell-group slot deadline watchdog",
			obs.DeadlineInstrument(cg.watch[i]), obs.L("cell", strconv.Itoa(i)))
	}
	cg.Modules.Register(reg)
	cg.registerSupervisors(reg)
}

// EnableTracing attaches the causal tracing layer to every cell (labeled by
// cell index), so traced RIC controls record gnb.apply, swap.canary and
// slot.effect spans. A nil tracer turns tracing back off.
func (cg *CellGroup) EnableTracing(tr *trace.Tracer) {
	for i, g := range cg.cells {
		g.EnableTracing(tr, uint32(i))
	}
}

// WatchdogStats snapshots every cell's deadline accounting.
func (cg *CellGroup) WatchdogStats() []metrics.DeadlineStats {
	out := make([]metrics.DeadlineStats, len(cg.watch))
	for i, w := range cg.watch {
		out[i] = w.Stats()
	}
	return out
}

// SetFlightRecorder attaches the incident journal to the group: slot
// deadline misses and every installed supervisor's lifecycle transitions
// are journaled into rec. Call before the slot loop starts (the same
// contract as PluginEnv); nil detaches. Supervisors installed later inherit
// the recorder.
func (cg *CellGroup) SetFlightRecorder(rec *flight.Recorder) {
	cg.mu.Lock()
	defer cg.mu.Unlock()
	cg.flight = rec
	cg.eachSupervisor(func(_ uint32, sup *guard.Supervisor) { sup.SetFlightRecorder(rec) })
}

// FlightRecorder returns the attached incident journal (nil = off).
func (cg *CellGroup) FlightRecorder() *flight.Recorder { return cg.flight }
