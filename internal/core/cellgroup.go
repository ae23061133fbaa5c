package core

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
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

	// The stripe hand-off (StepAll). stripes is the slot's stripe count,
	// written before a slot is posted; workers[w-1] serves stripe w. gapNs
	// and returnedNs are the caller's last gap between StepAll calls and
	// the clock at its last return, which workers read to decide whether
	// slots come back to back.
	epoch      time.Time
	stripes    int
	workers    []*stripeWorker
	gapNs      atomic.Int64
	returnedNs atomic.Int64

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
		epoch:   time.Now(),
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

// parallelism resolves the effective stripe count for this slot:
// Parallelism (0 meaning GOMAXPROCS), capped at the cell count and at
// GOMAXPROCS. A stripe that cannot run alongside the others would only add a
// worker polling for the P the caller holds.
func (cg *CellGroup) parallelism() int {
	procs := runtime.GOMAXPROCS(0)
	p := cg.cfg.Parallelism
	if p <= 0 || p > procs {
		p = procs
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
	par := cg.parallelism()
	if par > 1 {
		cg.post(par)
	}
	cg.stepStripe(0, par)
	if par > 1 {
		cg.join(par)
	}
	cg.slot++
	return cg.results
}

// stepStripe steps cells w, w+par, w+2*par, ... on the calling goroutine.
func (cg *CellGroup) stepStripe(w, par int) {
	for i := w; i < len(cg.cells); i += par {
		cg.stepCell(i)
	}
}

// stripeWorker is the hand-off to the goroutine that steps one stripe other
// than stripe 0. The caller bumps req to post a slot; the worker steps its
// stripe and stores the slot's sequence number in done. At most one
// goroutine serves a stripe: whoever sets running starts or keeps it.
type stripeWorker struct {
	req     atomic.Uint64 // metric-exempt: slot hand-off sequence, not telemetry
	done    atomic.Uint64 // metric-exempt: slot hand-off sequence, not telemetry
	running atomic.Bool
	// wake carries the completion of a worker's first slot, the one slot
	// the caller blocks for instead of polling (buffered: never blocks).
	wake chan struct{}
	// cold is the caller's own note that it started this slot's worker.
	cold bool
}

// A waiting worker checks its request counter spinPolls times between a
// yield and a clock read. It waits on-CPU only while slots come back to
// back: while the caller's last gap between StepAll calls was under a
// gapDivisor-th of the worker's own stripe step and under maxWait
// (awaitSlot). A waiting worker holds a P that the network poller and the
// timers of the rest of the program cannot use, so a caller that rests
// longer than maxWait between slots — one that sleeps or does I/O there —
// gets no waiting worker: polling through such gaps cost -fig citysim
// 5–9 % of its cell-slots/s.
const (
	spinPolls  = 32
	gapDivisor = 8
	maxWait    = int64(50 * time.Microsecond)
)

// post publishes a slot to stripes 1..par-1. A stripe whose worker is still
// waiting on-CPU picks the slot up from its counter; any other gets a fresh
// goroutine, which is what a slot cost before workers waited.
//
// A goroutine readied while the other P sleeps starts only when its readier
// blocks, so a worker parked on a channel or semaphore runs after stripe 0,
// not beside it. Only a worker that is already on a CPU when the slot is
// posted steps its stripe in parallel.
func (cg *CellGroup) post(par int) {
	now := cg.clock()
	cg.gapNs.Store(now - cg.returnedNs.Load())
	cg.stripes = par
	for len(cg.workers) < par-1 {
		cg.workers = append(cg.workers, &stripeWorker{wake: make(chan struct{}, 1)})
	}
	for w := 1; w < par; w++ {
		sw := cg.workers[w-1]
		sw.req.Add(1)
		sw.cold = sw.running.CompareAndSwap(false, true)
		if sw.cold {
			go cg.runStripe(w, sw)
		}
	}
}

// join waits for stripes 1..par-1 of the posted slot. It polls a worker
// that was already running, and blocks on the channel of one it started:
// the started goroutine may only get the caller's P once the caller blocks.
func (cg *CellGroup) join(par int) {
	for _, sw := range cg.workers[:par-1] {
		if sw.cold {
			<-sw.wake
			continue
		}
		seq := sw.req.Load()
		for i := 1; sw.done.Load() != seq; i++ {
			if i%spinPolls == 0 {
				runtime.Gosched()
			}
		}
	}
	cg.returnedNs.Store(cg.clock())
}

// runStripe is a stripe worker: it steps stripe w for every slot posted to
// sw until the slots stop coming back to back, then returns. Its first slot
// is the one the caller blocks for; it polls for every later one.
func (cg *CellGroup) runStripe(w int, sw *stripeWorker) {
	for first := true; ; first = false {
		// Step only a slot nobody has served. A worker the caller posted to
		// can serve the slot and exit before the caller's CAS, which then
		// starts a second worker for a slot already done; and a worker that
		// retakes running below can find its slot served by that second one.
		seq, finish, step := sw.req.Load(), cg.clock(), int64(0)
		if seq != sw.done.Load() {
			cg.stepStripe(w, cg.stripes)
			start := finish
			finish = cg.clock()
			step = finish - start
			sw.done.Store(seq)
		}
		if first {
			sw.wake <- struct{}{}
		}
		if !cg.awaitSlot(sw, seq, finish, step) {
			// Clear running, then look once more: a slot posted before the
			// clear was posted to a running worker, which must serve it.
			sw.running.Store(false)
			if sw.req.Load() == seq || !sw.running.CompareAndSwap(false, true) {
				return
			}
		}
	}
}

// awaitSlot polls sw's request counter on-CPU for the slot after served and
// reports whether one was posted. With bound a gapDivisor-th of the stripe
// step the worker just took, at most maxWait, it waits only while the
// caller's last gap between slots was under bound, and then until the
// caller has been out of StepAll for bound — or, while the caller is still
// joining the slot the worker finished at finish, for at most another
// stripe step.
func (cg *CellGroup) awaitSlot(sw *stripeWorker, served uint64, finish, step int64) bool {
	bound := min(step/gapDivisor, maxWait)
	if cg.gapNs.Load() >= bound {
		return false
	}
	for {
		for i := 0; i < spinPolls; i++ {
			if sw.req.Load() != served {
				return true
			}
		}
		runtime.Gosched()
		now, returned := cg.clock(), cg.returnedNs.Load()
		if returned < finish {
			if now-finish > step {
				return false
			}
		} else if now-returned > bound {
			return false
		}
	}
}

// clock is monotonic nanoseconds since the group was built.
func (cg *CellGroup) clock() int64 { return int64(time.Since(cg.epoch)) }

// stepCell runs one cell's slot under the deadline watchdog. Cell i belongs
// to exactly one stripe, so its meter is written by one goroutine.
func (cg *CellGroup) stepCell(i int) {
	start := time.Now()
	cg.results[i] = cg.cells[i].Step()
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
