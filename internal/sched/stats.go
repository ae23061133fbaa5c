package sched

import (
	"time"

	"waran/internal/obs"
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
	// Zero-copy path accounting: calls served over the region ABI, UE
	// records delta-written vs. UE records carried. DirtyRecords/Records is
	// the delta writer's effectiveness — 1.0 means every record was
	// rewritten every slot (no better than a full encode).
	ZCCalls        uint64 `json:"zc_calls,omitempty"`
	ZCDirtyRecords uint64 `json:"zc_dirty_records,omitempty"`
	ZCRecords      uint64 `json:"zc_records,omitempty"`
	// Execution-tier accounting: sandbox calls served by each wasm tier.
	// Every shipped scheduler runs the closure tier, so TierInterpCalls moves
	// only for a scheduler a test built on the reference interpreter.
	TierInterpCalls  uint64 `json:"tier_interp_calls,omitempty"`
	TierClosureCalls uint64 `json:"tier_closure_calls,omitempty"`
	// TierFusedCalls is always 0: fusion is a pass inside the closure tier,
	// not a tier that serves calls. Kept because bench/ reads it.
	TierFusedCalls uint64 `json:"tier_fused_calls,omitempty"`
}

// FuelReporter is implemented by schedulers that can report the fuel
// consumed by their most recent sandbox call. The slot tracer asserts for
// it when attributing per-slice cost.
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
				{Suffix: "_zc_dirty_records_total", Value: float64(s.ZCDirtyRecords)},
				{Suffix: "_zc_records_total", Value: float64(s.ZCRecords)},
				{Suffix: "_tier_interp_calls_total", Value: float64(s.TierInterpCalls)},
				{Suffix: "_tier_closure_calls_total", Value: float64(s.TierClosureCalls)},
			}
		},
		JSON: func() any { return stats() },
	}, labels...)
}
