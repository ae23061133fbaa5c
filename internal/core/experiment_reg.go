package core

// Registrations for the experiments core itself owns, in the paper's
// figure order. RIC-coupled experiments (e2faults) register from
// internal/ric so core stays free of a ric dependency.
func init() {
	RegisterExperimentFunc("5a", "co-existence: three MVNOs each reach their target rate",
		func(cfg ExpConfig) (any, error) { return RunFig5a(nil, cfg.Duration) })
	RegisterExperimentFunc("5b", "live swap of the MVNO scheduler MT -> PF -> RR, no restart",
		func(cfg ExpConfig) (any, error) { return RunFig5b(cfg.Duration, 0) })
	RegisterExperimentFunc("5c", "memory growth: leaky code sandboxed vs native",
		func(cfg ExpConfig) (any, error) { return RunFig5c(cfg.Duration, 0) })
	RegisterExperimentFunc("5d", "plugin execution time incl. serialization vs the slot deadline",
		func(cfg ExpConfig) (any, error) { return RunFig5d(nil, nil, 0) })
	RegisterExperimentFunc("safety", "fault matrix: traps contained, host survives, slice rescued",
		func(cfg ExpConfig) (any, error) {
			rows, err := RunSafetyMatrix()
			if err != nil {
				return nil, err
			}
			return &SafetyResult{Rows: rows}, nil
		})
	RegisterExperimentFunc("upload", "Fig. 1 flow: push scheduler bytecode into a running gNB",
		func(cfg ExpConfig) (any, error) { return RunUploadDemo() })
	RegisterExperimentWithFlags("multicell", "multi-cell scaling, watchdog and fleet-wide hot swap (JSON)",
		[]ExpFlag{
			IntExpFlag("cells", 8, "number of cells in the group", func(c *ExpConfig, v int) { c.Cells = v }),
			IntExpFlag("slots", 2000, "slots to step", func(c *ExpConfig, v int) { c.Slots = v }),
			IntExpFlag("par", 0, "worker parallelism (0 = GOMAXPROCS)", func(c *ExpConfig, v int) { c.Parallelism = v }),
		},
		func(cfg ExpConfig) (any, error) { return RunMulticell(cfg) })
	RegisterExperimentWithFlags("pluginfaults", "plugin fault storm: breaker quarantine, shadow-validated recovery, sleeper rollback (JSON)",
		[]ExpFlag{
			IntExpFlag("cells", 4, "number of cells in the group", func(c *ExpConfig, v int) { c.Cells = v }),
			IntExpFlag("par", 0, "worker parallelism (0 = cells)", func(c *ExpConfig, v int) { c.Parallelism = v }),
			Int64ExpFlag("seed", 7, "chaos schedule seed", func(c *ExpConfig, v int64) { c.Seed = v }),
			IntExpFlag("flight", 0, "arm the flight recorder; fail unless the breaker trip and rollback reach a diagnostic bundle", func(c *ExpConfig, v int) { c.Flight = v }),
			StringExpFlag("flightdir", "", "diagnostic bundle directory (empty = temp dir)", func(c *ExpConfig, v string) { c.FlightDir = v }),
		},
		func(cfg ExpConfig) (any, error) { return RunPluginFaults(cfg) })
}
