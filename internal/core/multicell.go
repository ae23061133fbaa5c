package core

import (
	"runtime"
	"strings"
	"time"

	"waran/internal/e2"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/sched"
	"waran/internal/wabi"
	"waran/internal/wasm"
	"waran/internal/wat"
)

// MulticellResult is the multi-cell scaling experiment outcome: one cell
// group stepped serially and then with the worker pool, plus a fleet-wide
// plugin hot swap through the content-addressed module cache. When the run
// was instrumented (ExpConfig.Obs), Obs carries the registry snapshot.
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

	// Plugin ABI accounting for the parallel run: which call path the
	// schedulers used, the host-side cost per decision, and — over zero-copy
	// — how effective the delta writer was (dirty records as a percentage of
	// records carried; 100 means every record was rewritten every call).
	ABI              string  `json:"abi"`
	SchedCalls       uint64  `json:"sched_calls"`
	SchedNsPerCall   float64 `json:"sched_ns_per_call"`
	SchedFuelPerCall float64 `json:"sched_fuel_per_call"`
	ZCCalls          uint64  `json:"zc_calls"`
	ZCDirtyRecordPct float64 `json:"zc_dirty_record_pct"`
	// ABIWallSharePct is the share of in-sandbox wall time spent inside the
	// "waran.*" ABI import functions (input_read, output_write, ...),
	// measured by the wasm profiler over a short instrumented pass. The
	// zero-copy path never calls them, so this is the serialization overhead
	// the region ABI removes from the sandbox.
	ABIWallSharePct float64 `json:"abi_wall_share_pct"`

	// Execution-tier accounting for the parallel run: sandbox calls served
	// by the closure tier (all of them) and by the reference interpreter
	// (none: no experiment selects it).
	TierInterpCalls  uint64 `json:"tier_interp_calls"`  // metric-exempt: report field aggregated from sched's registered counters
	TierClosureCalls uint64 `json:"tier_closure_calls"` // metric-exempt: report field aggregated from sched's registered counters

	Obs map[string]any `json:"obs,omitempty"`
}

// BuildMulticellGroup assembles a group of Fig. 5a-shaped cells whose
// slices share pool-backed built-in schedulers: the deployment the
// multicell experiment (and cmd/gnb's multi-cell mode) steps.
func BuildMulticellGroup(cells, par int) (*CellGroup, error) {
	cg, _, err := BuildMulticellGroupABI(cells, par, sched.ABIAuto, wabi.Env{})
	return cg, err
}

// BuildMulticellGroupABI is BuildMulticellGroup with the plugin ABI forced
// and an environment (profiler, chaos) merged into every pool. It also
// returns the installed pool schedulers so callers can read per-path call
// accounting after the run.
func BuildMulticellGroupABI(cells, par int, abi sched.ABIMode, env wabi.Env) (*CellGroup, []*sched.PoolScheduler, error) {
	cg, err := NewCellGroup(ran.CellConfig{}, CellGroupConfig{Cells: cells, Parallelism: par})
	if err != nil {
		return nil, nil, err
	}
	cg.PluginABI = abi
	cg.PluginEnv = env
	specs := DefaultFig5aSpecs()
	for c := 0; c < cells; c++ {
		gnb := cg.Cell(c)
		ueID := uint32(1)
		for _, sp := range specs {
			if _, err := gnb.Slices.AddSlice(sp.ID, sp.Name, sp.TargetBps, sched.RoundRobin{}, nil); err != nil {
				return nil, nil, err
			}
			for k := 0; k < sp.NumUEs; k++ {
				ue := ran.NewUE(ueID, sp.ID, 22+2*k)
				ue.Traffic = ran.NewCBR(1.4 * sp.TargetBps / float64(sp.NumUEs))
				if err := gnb.AttachUE(ue); err != nil {
					return nil, nil, err
				}
				ueID++
			}
		}
	}
	var scheds []*sched.PoolScheduler
	for _, sp := range specs {
		ps, err := cg.InstallPooledScheduler(sp.ID, sp.Scheduler, wabi.Policy{}, cells)
		if err != nil {
			return nil, nil, err
		}
		scheds = append(scheds, ps)
	}
	return cg, scheds, nil
}

// RunMulticell steps a cell group serially and with the worker pool, then
// fans one plugin upload across every cell. The serial baseline always runs
// un-instrumented; when cfg.Obs is set the parallel group registers its
// instruments (and streams traces into cfg.Trace) and the result embeds the
// registry snapshot.
func RunMulticell(cfg ExpConfig) (*MulticellResult, error) {
	cells := cfg.Cells
	if cells <= 0 {
		cells = 8
	}
	slots := cfg.Slots
	if slots <= 0 {
		slots = 2000
	}
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	abi, err := sched.ParseABIMode(cfg.ABI)
	if err != nil {
		return nil, err
	}
	rep := &MulticellResult{
		Cells:       cells,
		Slots:       slots,
		Parallelism: par,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		ABI:         abi.String(),
	}

	timeRun := func(parallelism int, reg bool) (float64, *CellGroup, []*sched.PoolScheduler, error) {
		cg, scheds, err := BuildMulticellGroupABI(cells, parallelism, abi, wabi.Env{})
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

	if rep.SerialSlotsPerSec, _, _, err = timeRun(1, false); err != nil {
		return nil, err
	}
	parRate, cg, scheds, err := timeRun(par, true)
	if err != nil {
		return nil, err
	}
	rep.ParallelSlotsPerSec = parRate
	rep.Speedup = rep.ParallelSlotsPerSec / rep.SerialSlotsPerSec

	var totalNs, totalFuel int64
	var dirty, records uint64
	for _, ps := range scheds {
		st := ps.Stats()
		rep.SchedCalls += st.Calls
		rep.ZCCalls += st.ZCCalls
		totalNs += st.TotalTime.Nanoseconds()
		totalFuel += st.TotalFuel
		dirty += st.ZCDirtyRecords
		records += st.ZCRecords
		rep.TierInterpCalls += st.TierInterpCalls
		rep.TierClosureCalls += st.TierClosureCalls
	}
	if rep.SchedCalls > 0 {
		rep.SchedNsPerCall = float64(totalNs) / float64(rep.SchedCalls)
		rep.SchedFuelPerCall = float64(totalFuel) / float64(rep.SchedCalls)
	}
	if records > 0 {
		rep.ZCDirtyRecordPct = 100 * float64(dirty) / float64(records)
	}
	rep.ABIWallSharePct, err = measureABIWallShare(abi)
	if err != nil {
		return nil, err
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

// measureABIWallShare runs a short profiled pass of a small cell group and
// returns the percentage of in-sandbox wall time spent inside the "waran.*"
// ABI import functions — the serialization plumbing the zero-copy path
// bypasses. Profiling distorts absolute timings, so this runs apart from
// the timed passes and only the ratio is reported. Function names carry a
// per-scheduler tag prefix ("rr:waran.input_read"), hence the substring
// match.
func measureABIWallShare(abi sched.ABIMode) (float64, error) {
	prof := wasm.NewProfile()
	cg, _, err := BuildMulticellGroupABI(2, 1, abi, wabi.Env{Profile: prof})
	if err != nil {
		return 0, err
	}
	cg.RunSlots(256, nil)
	var abiNs, allNs int64
	for _, f := range prof.Snapshot().Functions {
		allNs += f.SelfNs
		if strings.Contains(f.Name, "waran.") {
			abiNs += f.SelfNs
		}
	}
	if allNs == 0 {
		return 0, nil
	}
	return 100 * float64(abiNs) / float64(allNs), nil
}
