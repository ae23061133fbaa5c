package exp

import (
	"runtime"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/obs"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/sched"
	"waran/internal/wabi"
	"waran/internal/wasm"
	"waran/internal/wat"
)

// MulticellResult is the multi-cell scaling experiment outcome: one cell
// group stepped serially and then over parallel stripes, plus a fleet-wide
// plugin hot swap through the content-addressed module cache. When the run
// was instrumented (MulticellConfig.Obs), Obs carries the registry snapshot.
type MulticellResult struct {
	Cells               int     `json:"cells"`
	Slots               int     `json:"slots"`
	Parallelism         int     `json:"parallelism"`
	GOMAXPROCS          int     `json:"gomaxprocs"`
	SerialSlotsPerSec   float64 `json:"serial_slots_per_sec"`
	ParallelSlotsPerSec float64 `json:"parallel_slots_per_sec"`
	Speedup             float64 `json:"speedup"`
	DeadlineUs          float64 `json:"deadline_us"`
	Overruns            uint64  `json:"overruns"`
	WorstSlotUs         float64 `json:"worst_slot_us"`
	P99SlotUs           float64 `json:"p99_slot_us"`
	HotSwapCells        int     `json:"hot_swap_cells"`
	HotSwapCompiles     uint64  `json:"hot_swap_compiles"`
	CacheHits           uint64  `json:"cache_hits"`
	CacheMisses         uint64  `json:"cache_misses"`

	// Plugin call accounting for the parallel run: the host-side cost per
	// decision and how many calls went over the zero-copy region ABI (all of
	// them for the built-in guests, which export it).
	SchedCalls       uint64  `json:"sched_calls"`
	SchedNsPerCall   float64 `json:"sched_ns_per_call"`
	SchedFuelPerCall float64 `json:"sched_fuel_per_call"`
	ZCCalls          uint64  `json:"zc_calls"`

	// Execution-tier accounting for the parallel run: sandbox calls served
	// by the closure tier (all of them) and by the reference interpreter
	// (none: no experiment selects it).
	TierInterpCalls  uint64 `json:"tier_interp_calls"`  // metric-exempt: report field aggregated from sched's registered counters
	TierClosureCalls uint64 `json:"tier_closure_calls"` // metric-exempt: report field aggregated from sched's registered counters

	Obs map[string]any `json:"obs,omitempty"`
}

// BuildMulticellGroup assembles a group of Fig. 5a-shaped cells whose
// slices share pool-backed built-in schedulers — the deployment the
// multicell experiment steps. It also returns the installed pool schedulers
// so callers can read call accounting after the run.
func BuildMulticellGroup(cells, par int) (*core.CellGroup, []*sched.PoolScheduler, error) {
	cg, err := fig5aGroup(core.CellGroupConfig{Cells: cells, Parallelism: par})
	if err != nil {
		return nil, nil, err
	}
	var scheds []*sched.PoolScheduler
	for _, sp := range core.DefaultFig5aSpecs() {
		ps, err := cg.InstallPooledScheduler(sp.ID, sp.Scheduler, wabi.Policy{}, cells)
		if err != nil {
			return nil, nil, err
		}
		scheds = append(scheds, ps)
	}
	return cg, scheds, nil
}

// fig5aGroup creates a group whose every cell has the Fig. 5a slices, on a
// native scheduler until the caller installs plugins, and their UEs.
func fig5aGroup(cfg core.CellGroupConfig) (*core.CellGroup, error) {
	cg, err := core.NewCellGroup(ran.CellConfig{}, cfg)
	if err != nil {
		return nil, err
	}
	for c := 0; c < cfg.Cells; c++ {
		gnb := cg.Cell(c)
		ueID := uint32(1)
		for _, sp := range core.DefaultFig5aSpecs() {
			if _, err := gnb.Slices.AddSlice(sp.ID, sp.Name, sp.TargetBps, sched.RoundRobin{}, nil); err != nil {
				return nil, err
			}
			for k := 0; k < sp.NumUEs; k++ {
				ue := ran.NewUE(ueID, sp.ID, 22+2*k)
				ue.Traffic = ran.NewCBR(1.4 * sp.TargetBps / float64(sp.NumUEs))
				if err := gnb.AttachUE(ue); err != nil {
					return nil, err
				}
				ueID++
			}
		}
	}
	return cg, nil
}

// MulticellConfig parameterizes the multi-cell scaling experiment.
type MulticellConfig struct {
	// Cells is the group size (default 8).
	Cells int
	// Slots is how many slots each run steps (default 2000).
	Slots int
	// Parallelism is the parallel run's stripe count (0 = GOMAXPROCS).
	Parallelism int
	// Obs, when non-nil, receives the parallel group's instruments, Trace
	// its per-slot events, and the result embeds the registry snapshot.
	Obs   *obs.Registry
	Trace *obs.TraceRing
}

func (c MulticellConfig) withDefaults() MulticellConfig {
	if c.Cells <= 0 {
		c.Cells = 8
	}
	if c.Slots <= 0 {
		c.Slots = 2000
	}
	return c
}

// RunMulticell steps a cell group serially and over parallel stripes, then
// fans one plugin upload across every cell. The serial baseline always runs
// un-instrumented; when cfg.Obs is set the parallel group registers its
// instruments (and streams traces into cfg.Trace) and the result embeds the
// registry snapshot.
func RunMulticell(cfg MulticellConfig) (*MulticellResult, error) {
	cfg = cfg.withDefaults()
	cells, slots, par := cfg.Cells, cfg.Slots, cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	rep := &MulticellResult{
		Cells:       cells,
		Slots:       slots,
		Parallelism: par,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}

	timeRun := func(parallelism int, reg bool) (float64, *core.CellGroup, []*sched.PoolScheduler, error) {
		cg, scheds, err := BuildMulticellGroup(cells, parallelism)
		if err != nil {
			return 0, nil, nil, err
		}
		if reg && cfg.Obs != nil {
			cg.EnableObservability(cfg.Obs, cfg.Trace)
		}
		start := time.Now()
		cg.RunSlots(slots, nil)
		elapsed := time.Since(start)
		return float64(slots) / elapsed.Seconds(), cg, scheds, nil
	}

	serialRate, _, _, err := timeRun(1, false)
	if err != nil {
		return nil, err
	}
	parRate, cg, scheds, err := timeRun(par, true)
	if err != nil {
		return nil, err
	}
	rep.SerialSlotsPerSec, rep.ParallelSlotsPerSec = serialRate, parRate
	rep.Speedup = rep.ParallelSlotsPerSec / rep.SerialSlotsPerSec

	var totalNs, totalFuel int64
	for _, ps := range scheds {
		st := ps.Stats()
		rep.SchedCalls += st.Calls
		rep.ZCCalls += st.ZCCalls
		totalNs += st.TotalTime.Nanoseconds()
		totalFuel += st.TotalFuel
		rep.TierInterpCalls += st.TierInterpCalls
		rep.TierClosureCalls += st.TierClosureCalls
	}
	if rep.SchedCalls > 0 {
		rep.SchedNsPerCall = float64(totalNs) / float64(rep.SchedCalls)
		rep.SchedFuelPerCall = float64(totalFuel) / float64(rep.SchedCalls)
	}

	for _, st := range cg.WatchdogStats() {
		rep.DeadlineUs = float64(st.Deadline.Microseconds())
		rep.Overruns += st.Overruns
		if w := float64(st.Worst.Nanoseconds()) / 1e3; w > rep.WorstSlotUs {
			rep.WorstSlotUs = w
		}
		if st.P99us > rep.P99SlotUs {
			rep.P99SlotUs = st.P99us
		}
	}

	// Fleet-wide hot swap of one compiled module through the shared cache.
	blob, err := wat.CompileToBinary(plugins.ProportionalFairWAT)
	if err != nil {
		return nil, err
	}
	before := wasm.CompileCount()
	if _, err := cg.UploadSchedulerAll(1, "pf-v2", blob, wabi.Policy{}, par); err != nil {
		return nil, err
	}
	for i := 0; i < cells; i++ {
		err := cg.Cell(i).Apply(&e2.ControlRequest{
			Action: e2.ActionUploadScheduler, SliceID: 1, Text: "pf-v2", Blob: blob,
		})
		if err != nil {
			return nil, err
		}
	}
	rep.HotSwapCells = cells
	rep.HotSwapCompiles = wasm.CompileCount() - before
	cs := cg.Modules.Stats()
	rep.CacheHits, rep.CacheMisses = cs.Hits, cs.Misses

	if cfg.Obs != nil {
		rep.Obs = cfg.Obs.Snapshot()
	}
	return rep, nil
}
