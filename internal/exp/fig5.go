package exp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/guard"
	"waran/internal/metrics"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/sched"
	"waran/internal/wabi"
	"waran/internal/wasm"
)

// This file is the per-figure experiment harness. Each RunFigXX function
// reproduces one element of the paper's evaluation (§5) and returns the
// series the paper plots, so the examples and cmd/waranbench share one
// implementation.

// ---------------------------------------------------------------------------
// Fig. 5a — Co-existence of MVNOs.

// MVNOSeries is the measured outcome for one MVNO.
type MVNOSeries struct {
	Spec      core.MVNOSpec
	Series    []metrics.RatePoint
	MeanBps   float64 // steady-state mean (first second excluded)
	TargetBps float64
}

// Fig5aResult is the co-existence experiment outcome.
type Fig5aResult struct {
	Cell     ran.CellConfig
	Duration time.Duration
	MVNOs    []MVNOSeries
}

// RunFig5a runs the co-existence experiment: all MVNOs scheduled by their
// own Wasm plugin on one gNB, each reaching its contracted rate.
func RunFig5a(specs []core.MVNOSpec, duration time.Duration) (*Fig5aResult, error) {
	if len(specs) == 0 {
		specs = core.DefaultFig5aSpecs()
	}
	if duration == 0 {
		duration = 10 * time.Second
	}
	gnb, err := core.NewGNB(ran.CellConfig{})
	if err != nil {
		return nil, err
	}
	meters := make(map[uint32]*metrics.RateMeter)
	nextUE := uint32(1)
	for i := range specs {
		sp := &specs[i]
		if sp.MinMCS == 0 {
			sp.MinMCS = 22
		}
		if sp.MaxMCS == 0 {
			sp.MaxMCS = 28
		}
		if sp.OfferedBpsPerUE == 0 {
			sp.OfferedBpsPerUE = 1.4 * sp.TargetBps / float64(sp.NumUEs)
		}
		plugin, err := core.NewPluginScheduler(sp.Scheduler, wabi.Policy{})
		if err != nil {
			return nil, fmt.Errorf("exp: fig5a: %w", err)
		}
		if _, err := gnb.Slices.AddSlice(sp.ID, sp.Name, sp.TargetBps, plugin, nil); err != nil {
			return nil, err
		}
		if _, err := gnb.Supervise(sp.ID); err != nil {
			return nil, err
		}
		for k := 0; k < sp.NumUEs; k++ {
			mcs := sp.MinMCS
			if sp.NumUEs > 1 {
				mcs = sp.MinMCS + k*(sp.MaxMCS-sp.MinMCS)/(sp.NumUEs-1)
			}
			ue := ran.NewUE(nextUE, sp.ID, mcs)
			ue.Traffic = ran.NewCBR(sp.OfferedBpsPerUE)
			ue.Channel = &ran.StaticChannel{MCS: mcs}
			if err := gnb.AttachUE(ue); err != nil {
				return nil, err
			}
			nextUE++
		}
		meters[sp.ID] = metrics.NewRateMeter(gnb.Cell.SlotDuration, 500*time.Millisecond)
	}

	slots := core.SlotsForDuration(gnb.Cell, duration)
	gnb.RunSlots(slots, func(r core.SlotResult) {
		for id, ss := range r.PerSlice {
			meters[id].AddSlot(ss.Bits)
		}
	})

	res := &Fig5aResult{Cell: gnb.Cell, Duration: duration}
	for _, sp := range specs {
		m := meters[sp.ID]
		res.MVNOs = append(res.MVNOs, MVNOSeries{
			Spec:      sp,
			Series:    m.Series(),
			MeanBps:   m.MeanBpsAfter(time.Second),
			TargetBps: sp.TargetBps,
		})
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Fig. 5b — Live swap of the MVNO scheduler.

// Fig5bPhase describes one scheduler phase of the live-swap experiment.
type Fig5bPhase struct {
	Scheduler string
	Start     time.Duration
}

// Fig5bUESeries is the per-UE bitrate trace.
type Fig5bUESeries struct {
	UEID   uint32
	MCS    int
	Series []metrics.RatePoint
}

// Fig5bResult is the live-swap experiment outcome.
type Fig5bResult struct {
	Cell     ran.CellConfig
	Duration time.Duration
	Phases   []Fig5bPhase
	UEs      []Fig5bUESeries
	// Swaps confirms how many hot swaps the slice's supervisor promoted
	// mid-run.
	Swaps uint64
	// UEsDetached would be non-zero if any UE lost attachment during the
	// swaps; the experiment's point is that it stays zero.
	UEsDetached int
}

// RunFig5b reproduces the live-swap experiment: one MVNO, three UEs at MCS
// 20/24/28 each offered 22 Mb/s, scheduler hot-swapped MT -> PF -> RR at
// thirds of the run, without stopping the gNB or detaching UEs.
func RunFig5b(duration time.Duration, pfTimeConstant float64) (*Fig5bResult, error) {
	if duration == 0 {
		duration = 30 * time.Second
	}
	if pfTimeConstant == 0 {
		// Deliberately large, as in the paper, to stress PF's memory.
		pfTimeConstant = 4000
	}
	cg, err := core.NewCellGroup(ran.CellConfig{}, core.CellGroupConfig{Cells: 1, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	// Each phase changes the policy on purpose (PF spends ~6× MT's fuel at
	// three UEs): the fuel bound, meant for slower builds, has no say.
	cg.Guard.ShadowSlowdown = math.Inf(1)
	gnb := cg.Cell(0)
	gnb.PFTimeConstant = pfTimeConstant

	const sliceID = 1
	mt, err := core.NewPluginScheduler("mt", wabi.Policy{})
	if err != nil {
		return nil, err
	}
	if _, err := gnb.Slices.AddSlice(sliceID, "MVNO", 0, mt, nil); err != nil {
		return nil, err
	}
	sup, err := gnb.Supervise(sliceID)
	if err != nil {
		return nil, err
	}

	mcss := []int{20, 24, 28}
	meters := make(map[uint32]*metrics.RateMeter)
	for i, mcs := range mcss {
		ue := ran.NewUE(uint32(i+1), sliceID, mcs)
		ue.Traffic = ran.NewCBR(22e6)
		ue.Channel = &ran.StaticChannel{MCS: mcs}
		if err := gnb.AttachUE(ue); err != nil {
			return nil, err
		}
		meters[ue.ID] = metrics.NewRateMeter(gnb.Cell.SlotDuration, 500*time.Millisecond)
	}

	phases := []Fig5bPhase{
		{Scheduler: "mt", Start: 0},
		{Scheduler: "pf", Start: duration / 3},
		{Scheduler: "rr", Start: 2 * duration / 3},
	}
	totalSlots := core.SlotsForDuration(gnb.Cell, duration)
	swapAt := map[int]string{
		core.SlotsForDuration(gnb.Cell, phases[1].Start): "pf",
		core.SlotsForDuration(gnb.Cell, phases[2].Start): "rr",
	}

	attachedBefore := len(gnb.UEs())
	for slot := 0; slot < totalSlots; slot++ {
		if name, ok := swapAt[slot]; ok {
			// The live update goes the RIC's way: a pooled candidate,
			// shadow-validated by the slice's supervisor.
			err := gnb.Apply(&e2.ControlRequest{Action: e2.ActionSwapScheduler, SliceID: sliceID, Text: name})
			if err != nil {
				return nil, err
			}
		}
		r := gnb.Step()
		for _, ue := range gnb.UEs() {
			var bits int64
			for _, gr := range r.PerUE {
				if gr.UEID == ue.ID {
					bits = gr.Bits
				}
			}
			meters[ue.ID].AddSlot(bits)
		}
	}

	res := &Fig5bResult{
		Cell:        gnb.Cell,
		Duration:    duration,
		Phases:      phases,
		Swaps:       sup.Stats().Promotions,
		UEsDetached: attachedBefore - len(gnb.UEs()),
	}
	for i, mcs := range mcss {
		id := uint32(i + 1)
		res.UEs = append(res.UEs, Fig5bUESeries{UEID: id, MCS: mcs, Series: meters[id].Series()})
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Fig. 5c — Memory growth: leaky code sandboxed vs native.

// Fig5cPoint is one sample of the memory-over-time comparison.
type Fig5cPoint struct {
	Time        time.Duration
	PluginBytes int64 // real sandbox linear-memory footprint (capped)
	NativeBytes int64 // modelled unbounded leak of the same code run natively
}

// Fig5cResult is the memory-safety-over-time comparison. The "native"
// column models the same allocate-without-free pattern executed in the gNB
// process, where nothing bounds it (the paper demonstrates the host crash
// separately; here the linear growth is the signal).
type Fig5cResult struct {
	CapBytes int64
	Duration time.Duration
	Points   []Fig5cPoint
}

// RunFig5c executes the leaky scheduler plugin once per slot for the given
// duration, sampling the sandbox's real memory footprint, alongside the
// modelled native leak (leak rate x slots).
func RunFig5c(duration time.Duration, capPages uint32) (*Fig5cResult, error) {
	if duration == 0 {
		duration = 100 * time.Second
	}
	if capPages == 0 {
		capPages = 256 // 16 MiB, the plugin's hard ceiling
	}
	mod, err := wabi.CompileWAT(plugins.LeakWAT)
	if err != nil {
		return nil, err
	}
	p, err := wabi.NewPlugin(mod, wabi.Policy{MaxMemoryPages: capPages}, wabi.Env{})
	if err != nil {
		return nil, err
	}

	cell := ran.CellConfig{}.WithDefaults()
	slots := int(duration / cell.SlotDuration)
	const leakPerSlot = wasm.PageSize // the plugin leaks one page per call
	sampleEvery := slots / 100
	if sampleEvery == 0 {
		sampleEvery = 1
	}
	res := &Fig5cResult{CapBytes: int64(capPages) * wasm.PageSize, Duration: duration}
	var nativeBytes int64
	for slot := 0; slot < slots; slot++ {
		if _, err := p.Call("schedule", nil); err != nil {
			return nil, fmt.Errorf("exp: fig5c: slot %d: %w", slot, err)
		}
		nativeBytes += leakPerSlot
		if slot%sampleEvery == 0 {
			res.Points = append(res.Points, Fig5cPoint{
				Time:        time.Duration(slot) * cell.SlotDuration,
				PluginBytes: int64(p.MemoryBytes()),
				NativeBytes: nativeBytes,
			})
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Fig. 5d — Execution time of scheduler plugins.

// Fig5dCell is one bar of Fig. 5d: a scheduler x UE-count combination.
type Fig5dCell struct {
	Scheduler string
	NumUEs    int
	P50us     float64
	P99us     float64
	Meanus    float64
	Samples   int
}

// Fig5dResult is the execution-time experiment outcome.
type Fig5dResult struct {
	SlotDeadlineUs float64
	Cells          []Fig5dCell
}

// RunFig5d measures wall-clock plugin execution time — including request
// serialization and response decoding on the host, as in the paper — for
// every scheduler and UE count combination.
func RunFig5d(schedulers []string, ueCounts []int, invocations int) (*Fig5dResult, error) {
	if len(schedulers) == 0 {
		schedulers = []string{"mt", "pf", "rr"}
	}
	if len(ueCounts) == 0 {
		ueCounts = []int{1, 10, 20}
	}
	if invocations == 0 {
		invocations = 2000
	}
	cell := ran.CellConfig{}.WithDefaults()
	res := &Fig5dResult{SlotDeadlineUs: float64(cell.SlotDuration.Microseconds())}

	for _, name := range schedulers {
		for _, n := range ueCounts {
			ps, err := core.NewPluginScheduler(name, wabi.Policy{})
			if err != nil {
				return nil, err
			}
			req := syntheticRequest(cell, n)
			// Warm up: exclude one-time costs (lazy allocations, cold
			// caches) that a long-running gNB would not see per slot.
			for i := 0; i < 50; i++ {
				req.Slot = uint64(i)
				if _, err := ps.Schedule(req); err != nil {
					return nil, fmt.Errorf("exp: fig5d warmup: %s/%d UEs: %w", name, n, err)
				}
			}
			var q metrics.Quantile
			for i := 0; i < invocations; i++ {
				req.Slot = uint64(i)
				start := time.Now()
				if _, err := ps.Schedule(req); err != nil {
					return nil, fmt.Errorf("exp: fig5d: %s/%d UEs: %w", name, n, err)
				}
				q.AddDuration(time.Since(start))
			}
			res.Cells = append(res.Cells, Fig5dCell{
				Scheduler: name,
				NumUEs:    n,
				P50us:     q.Value(0.50),
				P99us:     q.Value(0.99),
				Meanus:    q.Mean(),
				Samples:   q.Count(),
			})
		}
	}
	return res, nil
}

func syntheticRequest(cell ran.CellConfig, nUE int) *sched.Request {
	req := &sched.Request{SliceID: 1, PRBBudget: uint32(cell.PRBs)}
	for i := 0; i < nUE; i++ {
		mcs := 20 + (i % 9)
		req.UEs = append(req.UEs, sched.UEInfo{
			ID:          uint32(i + 1),
			MCS:         int32(mcs),
			BitsPerPRB:  uint32(cell.BitsPerPRB(mcs)),
			BufferBytes: uint32(50_000 + 1000*i),
			AvgTputBps:  float64(1_000_000 * (i + 1)),
		})
	}
	return req
}

// ---------------------------------------------------------------------------
// §5D — memory-safety fault matrix.

// SafetyRow is one row of the fault matrix.
type SafetyRow struct {
	Fault string
	// TrapCode is how the sandbox classified the fault.
	TrapCode string
	// HostSurvived: the gNB process kept scheduling afterwards.
	HostSurvived bool
	// SliceRescued: the slot was still served (fallback scheduler).
	SliceRescued bool
	// BreakerOpen: the slice's supervisor gave up on the plugin.
	BreakerOpen bool
}

// RunSafetyMatrix injects each fault plugin into a live supervised slice and
// records how the system responds: the sandbox traps, the slice falls back
// to the native default scheduler, the supervisor's breaker gives up on the
// plugin, and the gNB keeps running.
func RunSafetyMatrix() ([]SafetyRow, error) {
	faults := []string{"null-deref", "oob-access", "double-free", "stack-overflow", "infinite-loop"}
	var rows []SafetyRow
	for _, name := range faults {
		src, err := plugins.FaultWAT(name)
		if err != nil {
			return nil, err
		}
		mod, err := wabi.CompileWAT(src)
		if err != nil {
			return nil, fmt.Errorf("exp: safety: compile %s: %w", name, err)
		}
		ps, err := sched.NewPoolScheduler(name, wabi.NewPool(mod, wabi.Policy{Fuel: 1_000_000}, wabi.Env{}, 1))
		if err != nil {
			return nil, err
		}

		gnb, err := core.NewGNB(ran.CellConfig{})
		if err != nil {
			return nil, err
		}
		var faultErr error
		gnb.Slices.OnFault = func(_ uint32, err error) {
			if faultErr == nil {
				faultErr = err
			}
		}
		if _, err := gnb.Slices.AddSlice(1, name, 10e6, ps, nil); err != nil {
			return nil, err
		}
		sup, err := gnb.Supervise(1)
		if err != nil {
			return nil, err
		}
		ue := ran.NewUE(1, 1, 24)
		ue.Traffic = ran.NewCBR(5e6)
		if err := gnb.AttachUE(ue); err != nil {
			return nil, err
		}

		row := SafetyRow{Fault: name}
		for i := 0; i < 10; i++ {
			r := gnb.Step()
			if ss, ok := r.PerSlice[1]; ok && ss.Bits > 0 {
				row.SliceRescued = true
			}
		}
		row.HostSurvived = true // reaching here means no crash
		row.BreakerOpen = sup.Breaker().State() == guard.Open
		var trap *wasm.Trap
		if errors.As(faultErr, &trap) {
			row.TrapCode = trap.Code.String()
		} else if faultErr != nil {
			row.TrapCode = faultErr.Error()
		}
		rows = append(rows, row)
	}
	return rows, nil
}
