package exp

import (
	"encoding/json"
	"flag"
	"io"
	"time"

	"waran/internal/obs"
)

// This file is the evaluation's one front door: a static table, in the
// paper's order, of every experiment, the knobs it reads and how it runs.
// cmd/waranbench exposes the knobs as -<experiment>.<knob> flags.

// Env is what a run takes from the command line rather than from its own
// knobs.
type Env struct {
	// Duration overrides the simulated duration of figures 5a-5c; zero
	// keeps each figure's own.
	Duration time.Duration
	// Obs is the metric registry the run wires its subsystems into; the
	// JSON results embed its snapshot. Nil disables instrumentation.
	Obs *obs.Registry
}

// Run executes a bound experiment.
type Run func(Env) (any, error)

// Experiment is one runnable element of the evaluation.
type Experiment struct {
	Name, Desc string
	// bind declares the experiment's knobs on k, each bound onto a config
	// that starts at that config's defaults, and returns the run reading it.
	bind func(k *knobs) Run
}

// All is the evaluation in the paper's figure order, the order `waranbench
// -fig all` runs and `-list` prints.
var All = []Experiment{
	{"5a", "co-existence: three MVNOs each reach their target rate", func(*knobs) Run {
		return func(env Env) (any, error) { return RunFig5a(nil, env.Duration) }
	}},
	{"5b", "live swap of the MVNO scheduler MT -> PF -> RR, no restart", func(*knobs) Run {
		return func(env Env) (any, error) { return RunFig5b(env.Duration, 0) }
	}},
	{"5c", "memory growth: leaky code sandboxed vs native", func(*knobs) Run {
		return func(env Env) (any, error) { return RunFig5c(env.Duration, 0) }
	}},
	{"5d", "plugin execution time incl. serialization vs the slot deadline", func(*knobs) Run {
		return func(Env) (any, error) { return RunFig5d(nil, nil, 0) }
	}},
	{"safety", "fault matrix: traps contained, host survives, slice rescued", func(*knobs) Run {
		return func(Env) (any, error) {
			rows, err := RunSafetyMatrix()
			if err != nil {
				return nil, err
			}
			return &SafetyResult{Rows: rows}, nil
		}
	}},
	{"upload", "Fig. 1 flow: push scheduler bytecode into a running gNB", func(*knobs) Run {
		return func(Env) (any, error) { return RunUploadDemo() }
	}},
	{"multicell", "multi-cell scaling, watchdog and fleet-wide hot swap (JSON)", func(k *knobs) Run {
		c := MulticellConfig{}.withDefaults()
		knob(k, &c.Cells, "cells", "number of cells in the group")
		knob(k, &c.Slots, "slots", "slots to step")
		knob(k, &c.Parallelism, "par", "worker parallelism (0 = GOMAXPROCS)")
		return func(env Env) (any, error) {
			c.Obs = env.Obs
			return RunMulticell(c)
		}
	}},
	{"pluginfaults", "plugin fault storm: breaker quarantine, shadow-validated recovery, sleeper rollback (JSON)", func(k *knobs) Run {
		c := PluginFaultsConfig{Seed: 7}.withDefaults()
		flight := 0
		knob(k, &c.Cells, "cells", "number of cells in the group")
		knob(k, &c.Parallelism, "par", "worker parallelism (0 = cells)")
		knob(k, &c.Seed, "seed", "chaos guests' seed")
		knob(k, &flight, "flight", "arm the flight recorder; fail unless the breaker trip and rollback reach a diagnostic bundle")
		knob(k, &c.FlightDir, "flightdir", "diagnostic bundle directory (empty = temp dir)")
		return func(env Env) (any, error) {
			c.Flight, c.Obs = flight != 0, env.Obs
			return RunPluginFaults(c)
		}
	}},
	{"e2faults", "association resilience under transport faults: drop, reset, half-open (JSON)", func(k *knobs) Run {
		c := E2FaultsConfig{Drop: 0.05, ResetAfterWrites: 25}.withDefaults()
		knob(k, &c.Slots, "slots", "MAC slots to run")
		knob(k, &c.Drop, "drop", "drop probability on the lossy connection")
		knob(k, &c.ResetAfterWrites, "reset", "forced reset after N writes on the lossy connection")
		knob(k, &c.Seed, "seed", "fault schedule seed")
		knob(k, &c.Heartbeat, "hb", "RIC heartbeat interval")
		return func(env Env) (any, error) {
			c.Obs = env.Obs
			return runE2FaultsOnGNB(c)
		}
	}},
	{"citysim", "city-scale: 1000+ batched E2 associations into one RIC over a 1M-UE cell fleet (JSON)", func(k *knobs) Run {
		c := CitySimConfig{}.withDefaults()
		knob(k, &c.Cells, "cells", "cells in the fleet")
		knob(k, &c.UEsPerCell, "ues", "modeled UEs per cell")
		knob(k, &c.Sectors, "sectors", "E2 associations per cell")
		knob(k, &c.Slots, "slots", "MAC slots to run")
		knob(k, &c.BatchWindow, "window", "KPM batching window in report periods (1 disables)")
		knob(k, &c.Seed, "seed", "per-cell population seed")
		return func(env Env) (any, error) {
			c.Obs = env.Obs
			return RunCitySim(c)
		}
	}},
	{"overload", "overload chaos: RIC kill+restart reconnect ramp, shed-ledger conservation, slow-xApp isolation (JSON)", func(k *knobs) Run {
		c := OverloadConfig{}.withDefaults()
		flight := 0
		knob(k, &c.Agents, "agents", "reconnect-storm fleet size")
		knob(k, &c.AdmitRate, "admitrate", "admission tokens/sec")
		knob(k, &c.AdmitBurst, "burst", "admission token bucket capacity")
		knob(k, &c.Outage, "outage", "RIC downtime before the restart")
		knob(k, &c.Dwell, "dwell", "slow-xApp measurement window")
		knob(k, &c.StallIters, "stalliters", "slow xApp spin iterations per dispatch")
		knob(k, &c.Seed, "seed", "session jitter schedule seed")
		knob(k, &flight, "flight", "arm the flight recorder; fail unless admission refusals and the breaker trip reach a diagnostic bundle")
		knob(k, &c.FlightDir, "flightdir", "diagnostic bundle directory (empty = temp dir)")
		return func(env Env) (any, error) {
			c.Flight, c.Obs = flight != 0, env.Obs
			return RunOverload(c)
		}
	}},
	{"flightrec", "flight recorder: seeded overload storm must leave its causal chain (brownout, sheds, breaker trip) in anomaly-triggered bundles, idle journal within noise (JSON)", func(k *knobs) Run {
		c := FlightRecConfig{}.withDefaults()
		knob(k, &c.Agents, "agents", "reporting fleet size")
		knob(k, &c.StallIters, "stalliters", "slow xApp spin iterations per dispatch")
		knob(k, &c.Dwell, "dwell", "storm window")
		knob(k, &c.OverheadSlots, "slots", "slots per journal-overhead measurement arm")
		knob(k, &c.Seed, "seed", "storm schedule seed")
		knob(k, &c.Dir, "flightdir", "diagnostic bundle directory (empty = temp dir)")
		return func(env Env) (any, error) {
			c.Obs = env.Obs
			return RunFlightRec(c)
		}
	}},
	{"tracelat", "end-to-end control-loop tracing: per-hop latency + hottest plugin functions (JSON)", func(k *knobs) Run {
		c := TraceLatConfig{}.withDefaults()
		knob(k, &c.Cells, "cells", "number of gNB cells")
		knob(k, &c.Slots, "slots", "MAC slots to run")
		knob(k, &c.Seed, "seed", "jitter schedule seed")
		return func(env Env) (any, error) {
			c.Obs = env.Obs
			return RunTraceLat(c)
		}
	}},
}

// Lookup returns the experiment called name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range All {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Bind declares e's knobs on fs as -<name>.<knob>, bound onto a fresh config
// at its defaults, and returns the run that reads them and the knobs in
// declaration order under their short names.
func (e Experiment) Bind(fs *flag.FlagSet) (Run, []*flag.Flag) {
	k := &knobs{fs: flag.NewFlagSet(e.Name, flag.ContinueOnError)}
	run := e.bind(k)
	for _, f := range k.flags {
		fs.Var(f.Value, e.Name+"."+f.Name, "["+e.Name+"] "+f.Usage)
	}
	return run, k.flags
}

// knobs is the flag set an experiment declares its knobs on. It keeps them
// in declaration order, which flag.FlagSet does not.
type knobs struct {
	fs    *flag.FlagSet
	flags []*flag.Flag
}

// knob declares the knob name bound to *p; the value *p holds when it is
// declared is the knob's default.
func knob[T int | int64 | float64 | time.Duration | string](k *knobs, p *T, name, usage string) {
	switch p := any(p).(type) {
	case *int:
		k.fs.IntVar(p, name, *p, usage)
	case *int64:
		k.fs.Int64Var(p, name, *p, usage)
	case *float64:
		k.fs.Float64Var(p, name, *p, usage)
	case *time.Duration:
		k.fs.DurationVar(p, name, *p, usage)
	case *string:
		k.fs.StringVar(p, name, *p, usage)
	}
	k.flags = append(k.flags, k.fs.Lookup(name))
}

// TextRenderer is implemented by results that print as the paper's text
// tables; every other result prints as JSON.
type TextRenderer interface {
	RenderText(w io.Writer) error
}

// Write prints res the way waranbench does: as its text table, or as
// indented JSON.
func Write(w io.Writer, res any) error {
	if tr, ok := res.(TextRenderer); ok {
		return tr.RenderText(w)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
