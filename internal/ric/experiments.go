package ric

import (
	"time"

	"waran/internal/core"
	"waran/internal/ran"
	"waran/internal/wabi"
)

// The association-resilience experiment spans both sides of E2, so it
// registers from here rather than internal/core: core stays free of a ric
// dependency, and any binary that links ric (cmd/waranbench does, blank
// import) sees "e2faults" in the experiment registry.
func init() {
	core.RegisterExperimentWithFlags("e2faults",
		"association resilience under transport faults: drop, reset, half-open (JSON)",
		[]core.ExpFlag{
			core.IntExpFlag("slots", 2000, "MAC slots to run", func(c *core.ExpConfig, v int) { c.Slots = v }),
			core.FloatExpFlag("drop", 0.05, "drop probability on the lossy connection", func(c *core.ExpConfig, v float64) { c.Drop = v }),
			core.IntExpFlag("reset", 25, "forced reset after N writes on the lossy connection", func(c *core.ExpConfig, v int) { c.ResetAfterWrites = v }),
			core.Int64ExpFlag("seed", 1, "fault schedule seed", func(c *core.ExpConfig, v int64) { c.Seed = v }),
			core.DurationExpFlag("hb", 5*time.Millisecond, "RIC heartbeat interval", func(c *core.ExpConfig, v time.Duration) { c.Heartbeat = v }),
		},
		runE2FaultsExperiment)
	core.RegisterExperimentWithFlags("citysim",
		"city-scale: 1000+ batched E2 associations into a sharded RIC over a 1M-UE cell fleet (JSON)",
		[]core.ExpFlag{
			core.IntExpFlag("cells", 256, "cells in the fleet", func(c *core.ExpConfig, v int) { c.Cells = v }),
			core.IntExpFlag("ues", 4096, "modeled UEs per cell", func(c *core.ExpConfig, v int) { c.UEsPerCell = v }),
			core.IntExpFlag("sectors", 4, "E2 associations per cell", func(c *core.ExpConfig, v int) { c.Sectors = v }),
			core.IntExpFlag("slots", 1500, "MAC slots to run", func(c *core.ExpConfig, v int) { c.Slots = v }),
			core.IntExpFlag("shards", 16, "RIC association shards", func(c *core.ExpConfig, v int) { c.Shards = v }),
			core.IntExpFlag("window", 8, "KPM batching window in report periods (1 disables)", func(c *core.ExpConfig, v int) { c.BatchWindow = v }),
			core.Int64ExpFlag("seed", 1, "per-cell population seed", func(c *core.ExpConfig, v int64) { c.Seed = v }),
		},
		runCitySimExperiment)
	core.RegisterExperimentWithFlags("overload",
		"overload chaos: RIC kill+restart reconnect ramp, shed-ledger conservation, slow-xApp isolation (JSON)",
		[]core.ExpFlag{
			core.IntExpFlag("agents", 1024, "reconnect-storm fleet size", func(c *core.ExpConfig, v int) { c.Agents = v }),
			core.IntExpFlag("shards", 16, "RIC association shards", func(c *core.ExpConfig, v int) { c.Shards = v }),
			core.FloatExpFlag("admitrate", 64, "admission tokens/sec per shard", func(c *core.ExpConfig, v float64) { c.AdmitRate = v }),
			core.IntExpFlag("burst", 8, "admission token bucket capacity", func(c *core.ExpConfig, v int) { c.AdmitBurst = v }),
			core.DurationExpFlag("outage", 250*time.Millisecond, "RIC downtime before the restart", func(c *core.ExpConfig, v time.Duration) { c.Outage = v }),
			core.DurationExpFlag("dwell", 3*time.Second, "slow-xApp measurement window", func(c *core.ExpConfig, v time.Duration) { c.Dwell = v }),
			core.IntExpFlag("stalliters", 1_000_000, "slow xApp spin iterations per dispatch", func(c *core.ExpConfig, v int) { c.StallIters = v }),
			core.Int64ExpFlag("seed", 1, "session jitter schedule seed", func(c *core.ExpConfig, v int64) { c.Seed = v }),
			core.IntExpFlag("flight", 0, "arm the flight recorder; fail unless admission refusals and the breaker trip reach a diagnostic bundle", func(c *core.ExpConfig, v int) { c.Flight = v }),
			core.StringExpFlag("flightdir", "", "diagnostic bundle directory (empty = temp dir)", func(c *core.ExpConfig, v string) { c.FlightDir = v }),
		},
		runOverloadExperiment)
	core.RegisterExperimentWithFlags("flightrec",
		"flight recorder: seeded overload storm must leave its causal chain (brownout, sheds, breaker trip) in anomaly-triggered bundles, idle journal within noise (JSON)",
		[]core.ExpFlag{
			core.IntExpFlag("agents", 16, "reporting fleet size", func(c *core.ExpConfig, v int) { c.Agents = v }),
			core.IntExpFlag("stalliters", 400_000, "slow xApp spin iterations per dispatch", func(c *core.ExpConfig, v int) { c.StallIters = v }),
			core.DurationExpFlag("dwell", 1500*time.Millisecond, "storm window", func(c *core.ExpConfig, v time.Duration) { c.Dwell = v }),
			core.IntExpFlag("slots", 2000, "slots per journal-overhead measurement arm", func(c *core.ExpConfig, v int) { c.Slots = v }),
			core.Int64ExpFlag("seed", 1, "storm schedule seed", func(c *core.ExpConfig, v int64) { c.Seed = v }),
			core.StringExpFlag("flightdir", "", "diagnostic bundle directory (empty = temp dir)", func(c *core.ExpConfig, v string) { c.FlightDir = v }),
		},
		runFlightRecExperiment)
	core.RegisterExperimentWithFlags("tracelat",
		"end-to-end control-loop tracing: per-hop latency + hottest plugin functions (JSON)",
		[]core.ExpFlag{
			core.IntExpFlag("cells", 4, "number of gNB cells", func(c *core.ExpConfig, v int) { c.Cells = v }),
			core.IntExpFlag("slots", 1200, "MAC slots to run", func(c *core.ExpConfig, v int) { c.Slots = v }),
			core.Int64ExpFlag("seed", 1, "jitter schedule seed", func(c *core.ExpConfig, v int64) { c.Seed = v }),
		},
		runTraceLatExperiment)
}

// runCitySimExperiment maps the shared knob set onto the city-scale
// experiment's config.
func runCitySimExperiment(cfg core.ExpConfig) (any, error) {
	return RunCitySim(CitySimConfig{
		Cells:       cfg.Cells,
		UEsPerCell:  cfg.UEsPerCell,
		Sectors:     cfg.Sectors,
		Slots:       cfg.Slots,
		RICShards:   cfg.Shards,
		BatchWindow: cfg.BatchWindow,
		Seed:        cfg.Seed,
		Obs:         cfg.Obs,
	})
}

// runOverloadExperiment maps the shared knob set onto the overload chaos
// experiment's config.
func runOverloadExperiment(cfg core.ExpConfig) (any, error) {
	return RunOverload(OverloadExpConfig{
		Agents:     cfg.Agents,
		Shards:     cfg.Shards,
		AdmitRate:  cfg.AdmitRate,
		AdmitBurst: cfg.AdmitBurst,
		Outage:     cfg.Outage,
		Dwell:      cfg.Dwell,
		StallIters: cfg.StallIters,
		Seed:       cfg.Seed,
		Obs:        cfg.Obs,
		Flight:     cfg.Flight != 0,
		FlightDir:  cfg.FlightDir,
	})
}

// runFlightRecExperiment maps the shared knob set onto the flight-recorder
// experiment's config.
func runFlightRecExperiment(cfg core.ExpConfig) (any, error) {
	return RunFlightRec(FlightRecConfig{
		Agents:        cfg.Agents,
		StallIters:    cfg.StallIters,
		Dwell:         cfg.Dwell,
		OverheadSlots: cfg.Slots,
		Seed:          cfg.Seed,
		Dir:           cfg.FlightDir,
		Obs:           cfg.Obs,
	})
}

// runTraceLatExperiment maps the shared knob set onto the tracing
// experiment's config.
func runTraceLatExperiment(cfg core.ExpConfig) (any, error) {
	return RunTraceLat(TraceLatConfig{
		Cells: cfg.Cells,
		Slots: cfg.Slots,
		Seed:  cfg.Seed,
		Obs:   cfg.Obs,
	})
}

// runE2FaultsExperiment builds the experiment's standard gNB — one tenant
// slice on the round-robin plugin with a deliberately over-ambitious SLA,
// so the SLA-assurance xApp keeps emitting controls and control delivery
// after recovery is observable — and runs the fault storm against it.
func runE2FaultsExperiment(cfg core.ExpConfig) (any, error) {
	gnb, err := core.NewGNB(ran.CellConfig{})
	if err != nil {
		return nil, err
	}
	rr, err := core.NewPluginScheduler("rr", wabi.Policy{})
	if err != nil {
		return nil, err
	}
	if _, err := gnb.Slices.AddSlice(1, "tenant", 100e6, rr, nil); err != nil {
		return nil, err
	}
	ue := ran.NewUE(1, 1, 20)
	ue.Traffic = ran.NewCBR(3e6)
	if err := gnb.AttachUE(ue); err != nil {
		return nil, err
	}

	return RunE2Faults(E2FaultsConfig{
		Slots:            cfg.Slots,
		Drop:             cfg.Drop,
		ResetAfterWrites: cfg.ResetAfterWrites,
		Seed:             cfg.Seed,
		Heartbeat:        cfg.Heartbeat,
		Obs:              cfg.Obs,
	}, gnb, func(uint64) { gnb.Step() })
}
