package sched

import (
	"time"

	"waran/internal/obs"
	"waran/internal/wabi"
	"waran/internal/wasm"
)

// SchedStats is the flat call-accounting snapshot shared by every plugin
// scheduler adapter. Times marshal as nanoseconds; fuel is in interpreter
// instructions (zero when metering is disabled).
type SchedStats struct {
	Calls     uint64        `json:"calls"`
	Faults    uint64        `json:"faults"`
	TotalTime time.Duration `json:"total_time_ns"`
	LastTime  time.Duration `json:"last_time_ns"`
	LastFuel  int64         `json:"last_fuel"`
	TotalFuel int64         `json:"total_fuel"`
	// Zero-copy path accounting: calls served over the region ABI and UE
	// records written into request regions.
	ZCCalls   uint64 `json:"zc_calls,omitempty"`
	ZCRecords uint64 `json:"zc_records,omitempty"`
	// ZCDirtyRecords always equals ZCRecords: the request region is written
	// in full every call, there is no delta writer. Kept because bench/
	// reads it.
	ZCDirtyRecords uint64 `json:"zc_dirty_records,omitempty"`
	// Execution-tier accounting: sandbox calls served by each wasm tier.
	// Every shipped scheduler runs the closure tier, so TierInterpCalls moves
	// only for a scheduler a test built on the reference interpreter.
	TierInterpCalls  uint64 `json:"tier_interp_calls,omitempty"`
	TierClosureCalls uint64 `json:"tier_closure_calls,omitempty"`
	// TierFusedCalls is always 0: fusion is a pass inside the closure tier,
	// not a tier that serves calls. Kept because bench/ reads it.
	TierFusedCalls uint64 `json:"tier_fused_calls,omitempty"`
}

// callStats is the call accounting PluginScheduler and PoolScheduler both
// keep; the owner supplies the synchronization (none, or its mutex).
type callStats struct {
	calls     uint64
	faults    uint64
	totalTime time.Duration
	lastTime  time.Duration
	zcCalls   uint64
	zcRecords uint64
	tierCalls [wasm.NumTiers]uint64 // indexed by wasm.Tier
}

// record folds one Schedule outcome into the accounting. pl is the instance
// that served it, nil when there was none to serve it: then no sandbox ran,
// so no execution tier and no zero-copy write is charged.
func (c *callStats) record(pl *wabi.Plugin, d time.Duration, zeroCopy bool, req *Request, err error) {
	c.calls++
	c.lastTime = d
	c.totalTime += d
	if err != nil {
		c.faults++
	}
	if pl == nil {
		return
	}
	c.tierCalls[pl.LastTier()]++
	if zeroCopy {
		c.zcCalls++
		c.zcRecords += uint64(len(req.UEs))
	}
}

// snapshot renders the accounting as SchedStats; fuel is the owner's.
func (c *callStats) snapshot() SchedStats {
	return SchedStats{
		Calls:            c.calls,
		Faults:           c.faults,
		TotalTime:        c.totalTime,
		LastTime:         c.lastTime,
		ZCCalls:          c.zcCalls,
		ZCRecords:        c.zcRecords,
		ZCDirtyRecords:   c.zcRecords,
		TierInterpCalls:  c.tierCalls[wasm.TierInterp],
		TierClosureCalls: c.tierCalls[wasm.TierClosure],
	}
}

// FuelReporter is implemented by schedulers that can report the fuel
// consumed by their most recent sandbox call. On a scheduler shared by cells
// stepped in parallel that is the last call by any of them, so the slot path
// attributes per-slice cost from Response.FuelUsed instead.
type FuelReporter interface {
	LastFuelUsed() int64
}

// registerSched exposes one scheduler's SchedStats on reg as the untyped
// multi-sample series waran_sched_* with the given labels.
func registerSched(reg *obs.Registry, stats func() SchedStats, labels []obs.Label) {
	reg.MustRegister("waran_sched", "intra-slice scheduler plugin call accounting", obs.Func{
		Kind: obs.KindUntyped,
		Collect: func() []obs.Sample {
			s := stats()
			return []obs.Sample{
				{Suffix: "_calls_total", Value: float64(s.Calls)},
				{Suffix: "_faults_total", Value: float64(s.Faults)},
				{Suffix: "_total_time_us", Value: float64(s.TotalTime.Nanoseconds()) / 1e3},
				{Suffix: "_last_time_us", Value: float64(s.LastTime.Nanoseconds()) / 1e3},
				{Suffix: "_last_fuel", Value: float64(s.LastFuel)},
				{Suffix: "_total_fuel", Value: float64(s.TotalFuel)},
				{Suffix: "_zc_calls_total", Value: float64(s.ZCCalls)},
				{Suffix: "_zc_records_total", Value: float64(s.ZCRecords)},
				{Suffix: "_tier_interp_calls_total", Value: float64(s.TierInterpCalls)},
				{Suffix: "_tier_closure_calls_total", Value: float64(s.TierClosureCalls)},
			}
		},
		JSON: func() any { return stats() },
	}, labels...)
}
