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
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/sched"
	"waran/internal/wabi"
	"waran/internal/wat"
)

// CellGroupConfig shapes a multi-cell slot engine.
type CellGroupConfig struct {
	// Cells is the number of gNB cells in the group (at least 1).
	Cells int
	// Parallelism bounds concurrent cell steps per slot. 0 means
	// GOMAXPROCS; 1 reproduces the serial single-cell loop exactly.
	Parallelism int
	// SlotDeadline is the per-cell wall-clock budget the watchdog checks
	// each slot. 0 means the cell's slot duration (the paper's 1 ms).
	SlotDeadline time.Duration
	// FallbackOnOverrun pins a cell's slices to their native fallback
	// schedulers after OverrunThreshold consecutive deadline overruns —
	// the cell-wide analogue of per-slice plugin quarantine. Off by
	// default because wall-clock-driven decisions are nondeterministic.
	FallbackOnOverrun bool
	// OverrunThreshold is the consecutive-overrun limit before a cell is
	// pinned (0 means 3, mirroring the slice quarantine default).
	OverrunThreshold int
}

// DefaultOverrunThreshold is the consecutive slot-deadline overruns after
// which a cell falls back to native scheduling (when enabled).
const DefaultOverrunThreshold = 3

// CellGroup owns N independent gNB cells and steps them concurrently each
// slot over static stripes (worker w owns cells w, w+par, ...) — the
// multi-cell deployment ORANSlice evaluates, driven by one slot clock. Cells
// share one content-addressed module cache, so hot-swapping the same plugin
// bytecode onto every cell compiles it exactly once, and (optionally) share
// pooled plugin instances via sched.PoolScheduler so intra-slice decisions
// from different cells execute in parallel sandboxes of one compiled module.
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

	watch      []*metrics.DeadlineMeter
	consecOver []int
	pinned     []bool
	slot       uint64
	results    []SlotResult // what StepAll returns, refilled every slot

	// flight is the incident journal (nil = off). Set via SetFlightRecorder
	// before the slot loop starts; stepCell reads it without synchronization
	// on the same set-before-run contract as PluginEnv.
	flight *flight.Recorder

	// sups maps supervised slice IDs to their lifecycle supervisors (one
	// shared across all cells having the slice). Populated by
	// InstallSupervisedScheduler; nil when supervision is unused.
	sups map[uint32]*guard.Supervisor

	// PluginEnv is merged into the environment of every pool the group
	// builds (InstallPooledScheduler / UploadSchedulerAll): the injection
	// point for the wasm profiler and other host extensions. Set before
	// installing schedulers.
	PluginEnv wabi.Env
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
	if cfg.OverrunThreshold == 0 {
		cfg.OverrunThreshold = DefaultOverrunThreshold
	}
	cg := &CellGroup{
		cfg:        cfg,
		cells:      make([]*GNB, cfg.Cells),
		Modules:    wabi.NewModuleCache(),
		watch:      make([]*metrics.DeadlineMeter, cfg.Cells),
		consecOver: make([]int, cfg.Cells),
		pinned:     make([]bool, cfg.Cells),
		results:    make([]SlotResult, cfg.Cells),
	}
	for i := range cg.cells {
		g, err := NewGNB(cell)
		if err != nil {
			return nil, err
		}
		g.Modules = cg.Modules
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
// the cell's DeadlineMeter and, when FallbackOnOverrun is set, pin the cell
// to native fallback scheduling after OverrunThreshold consecutive misses.
// The returned slice and every SlotResult in it are the group's and the
// cells' own storage, valid until the next StepAll.
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
// to exactly one stripe, so consecOver/pinned accesses are race-free by
// construction.
func (cg *CellGroup) stepCell(i int, results []SlotResult) {
	start := time.Now()
	results[i] = cg.cells[i].Step()
	dur := time.Since(start)
	overrun := cg.watch[i].Observe(dur)
	if overrun {
		// Journal the miss on the rare edge only; the common in-budget slot
		// never touches the recorder (nil recorder adds 0 allocs, pinned by
		// TestDisabledFlightRecorderAddsZeroAllocs).
		cg.flight.Record(flight.Event{
			Class: flight.EvSlotDeadlineMiss, Plane: flight.PlaneGNB,
			Cell: uint32(i), Slot: cg.slot,
			Value: float64(dur.Nanoseconds()),
		})
	}

	if !cg.cfg.FallbackOnOverrun {
		return
	}
	if overrun {
		cg.consecOver[i]++
		if !cg.pinned[i] && cg.consecOver[i] >= cg.cfg.OverrunThreshold {
			cg.pinned[i] = true
			cg.cells[i].Slices.SetForceFallback(true)
			cg.flight.Record(flight.Event{
				Class: flight.EvFallbackPin, Plane: flight.PlaneGNB,
				Cell: uint32(i), Slot: cg.slot,
				Value: float64(cg.consecOver[i]),
			})
		}
	} else {
		cg.consecOver[i] = 0
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
// cell index) and to every registered supervisor, so traced RIC controls
// record gnb.apply, swap.canary and slot.effect spans. A nil tracer turns
// tracing back off.
func (cg *CellGroup) EnableTracing(tr *trace.Tracer) {
	for i, g := range cg.cells {
		g.EnableTracing(tr, uint32(i))
	}
	for _, sup := range cg.sups {
		sup.SetTracer(tr)
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

// CellPinned reports whether the watchdog has pinned cell i to native
// fallback scheduling.
func (cg *CellGroup) CellPinned(i int) bool { return cg.pinned[i] }

// ReleaseCell lifts a watchdog pin (e.g. after the operator uploaded a
// faster plugin), re-enabling plugin scheduling on the cell.
func (cg *CellGroup) ReleaseCell(i int) {
	cg.pinned[i] = false
	cg.consecOver[i] = 0
	cg.cells[i].Slices.SetForceFallback(false)
	cg.flight.Record(flight.Event{
		Class: flight.EvFallbackRelease, Plane: flight.PlaneGNB,
		Cell: uint32(i), Slot: cg.slot,
	})
}

// SetFlightRecorder attaches the incident journal to the group: slot
// deadline misses, fallback pins/releases and every installed supervisor's
// lifecycle transitions are journaled into rec. Call before the slot loop
// starts (the same contract as PluginEnv); nil detaches. Supervisors
// installed later inherit the recorder.
func (cg *CellGroup) SetFlightRecorder(rec *flight.Recorder) {
	cg.flight = rec
	for _, sup := range cg.sups {
		sup.SetFlightRecorder(rec)
	}
}

// FlightRecorder returns the attached incident journal (nil = off).
func (cg *CellGroup) FlightRecorder() *flight.Recorder { return cg.flight }

// InstallPooledScheduler compiles the named built-in scheduler ("rr", "pf",
// "mt") once and installs one shared pool-backed IntraSlice across every
// cell that registered sliceID: N cells scheduling concurrently draw from
// up to poolMax parallel sandboxes of a single compiled module. The module
// is resolved through the group's content-addressed cache, so a later upload
// of identical bytes is a cache hit rather than a recompile.
func (cg *CellGroup) InstallPooledScheduler(sliceID uint32, name string, policy wabi.Policy, poolMax int) (*sched.PoolScheduler, error) {
	src, ok := plugins.SchedulerWAT(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown built-in scheduler %q", name)
	}
	bin, err := wat.CompileToBinary(src)
	if err != nil {
		return nil, fmt.Errorf("core: assemble built-in scheduler %q: %w", name, err)
	}
	mod, err := cg.Modules.Load(bin)
	if err != nil {
		return nil, err
	}
	return cg.installPool(sliceID, name, mod, policy, poolMax)
}

// UploadSchedulerAll is the multi-cell hot-swap path: third-party bytecode
// is resolved through the group's content-addressed cache (compiling at
// most once, even if the same bytes were uploaded before), wrapped in one
// shared instance pool, and swapped onto every cell that has the slice.
func (cg *CellGroup) UploadSchedulerAll(sliceID uint32, name string, bin []byte, policy wabi.Policy, poolMax int) (*sched.PoolScheduler, error) {
	mod, err := cg.Modules.Load(bin)
	if err != nil {
		return nil, fmt.Errorf("core: cell group rejected uploaded bytecode: %w", err)
	}
	return cg.installPool(sliceID, name, mod, policy, poolMax)
}

func (cg *CellGroup) installPool(sliceID uint32, name string, mod *wabi.Module, policy wabi.Policy, poolMax int) (*sched.PoolScheduler, error) {
	if policy.MaxMemoryPages == 0 {
		policy.MaxMemoryPages = 256
	}
	if policy.Fuel == 0 {
		policy.Fuel = 10_000_000
	}
	env := cg.PluginEnv
	if env.ProfileTag == "" && env.Profile != nil {
		env.ProfileTag = name
	}
	pool := wabi.NewPool(mod, policy, env, poolMax)
	ps, err := sched.NewPoolScheduler(name, pool, nil)
	if err != nil {
		return nil, err
	}
	swapped := 0
	for _, g := range cg.cells {
		if _, ok := g.Slices.Slice(sliceID); !ok {
			continue
		}
		if err := g.Slices.HotSwap(sliceID, ps); err != nil {
			return nil, err
		}
		swapped++
	}
	if swapped == 0 {
		return nil, fmt.Errorf("core: no cell in the group has slice %d", sliceID)
	}
	return ps, nil
}
