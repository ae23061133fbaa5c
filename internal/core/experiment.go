package core

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"waran/internal/obs"
)

// This file is the experiment registry: the single front door through which
// cmd/waranbench (and anything else) discovers and runs the paper's
// evaluation. Each figure self-registers an Experiment at init time, so
// adding a figure means adding a Run function plus one RegisterExperiment
// call — no switch statement in any binary to keep in sync.

// ExpConfig is the flat knob set shared by every experiment. Experiments
// read only the fields they care about; zero values mean "use the figure's
// published default", so an empty ExpConfig reproduces the paper.
type ExpConfig struct {
	// Duration overrides the experiment's simulated duration (figures
	// 5a-5c). Zero keeps the per-figure default.
	Duration time.Duration
	// Cells / Slots / Parallelism shape the multi-cell experiments.
	Cells       int
	Slots       int
	Parallelism int
	// Seed selects deterministic fault/jitter schedules where applicable.
	Seed int64
	// Drop / ResetAfterWrites / Heartbeat parameterize transport-fault
	// experiments.
	Drop             float64
	ResetAfterWrites int
	Heartbeat        time.Duration
	// SlotDeadline overrides the per-cell wall-clock slot budget in
	// experiments that run a watchdog-timed cell group. Zero keeps the
	// paper's 1 ms; tests raise it so shared-machine jitter cannot register
	// as a missed deadline.
	SlotDeadline time.Duration
	// UEsPerCell / Sectors / Shards / BatchWindow shape the city-scale
	// experiment (citysim): modeled UEs per cell, E2 associations per cell,
	// RIC association shards, and the KPM batching window in report periods.
	UEsPerCell  int
	Sectors     int
	Shards      int
	BatchWindow int
	// Agents / AdmitRate / AdmitBurst / Outage / Dwell / StallIters shape
	// the overload chaos experiment: reconnect-storm fleet size, per-shard
	// admission rate and burst, RIC downtime before the restart, the
	// slow-xApp measurement window, and the stalling xApp's spin length.
	Agents     int
	AdmitRate  float64
	AdmitBurst int
	Outage     time.Duration
	Dwell      time.Duration
	StallIters int
	// Flight, when nonzero, arms the flight recorder in experiments that
	// support it (overload, pluginfaults; flightrec is always armed): state
	// transitions are journaled and anomaly triggers capture diagnostic
	// bundles, and the run fails if the storm's expected trigger classes
	// produced no bundle.
	Flight int
	// FlightDir is where flight-armed experiments write diagnostic bundles
	// (empty = a fresh temporary directory).
	FlightDir string
	// Obs, when non-nil, is the metric registry the experiment should wire
	// its subsystems into; experiments that support it embed
	// Obs.Snapshot() in their result. Nil disables instrumentation.
	Obs *obs.Registry
	// Trace, when non-nil (and Obs is set), receives per-slot trace events
	// from experiments that drive an instrumented slot loop.
	Trace *obs.TraceRing
}

// Experiment is one self-contained, runnable element of the evaluation.
type Experiment interface {
	// Name is the registry key (e.g. "5a", "multicell").
	Name() string
	// Describe is a one-line summary for listings.
	Describe() string
	// Run executes the experiment and returns its result. Results that
	// implement TextRenderer print as text tables; anything else is
	// presented as JSON by callers.
	Run(cfg ExpConfig) (any, error)
}

// TextRenderer is implemented by experiment results that render themselves
// as the human-readable tables waranbench prints. Results without it are
// JSON-encoded instead.
type TextRenderer interface {
	RenderText(w io.Writer) error
}

// ExpFlag declares one experiment-owned command-line knob. Binaries expose
// it under the experiment's namespace (waranbench: -<experiment>.<name>) and
// apply the parsed value onto that experiment's ExpConfig just before Run —
// so every figure declares its own parameters here and no binary grows
// experiment-specific globals.
type ExpFlag struct {
	// Name is the knob's short name within the experiment ("cells").
	Name string
	// Default is the value used when the flag is not given, in the same
	// textual form the command line would use.
	Default string
	// Usage is the one-line help string.
	Usage string
	// Set parses value and applies it onto cfg.
	Set func(cfg *ExpConfig, value string) error
}

// IntExpFlag binds an integer knob onto an ExpConfig field.
func IntExpFlag(name string, def int, usage string, set func(*ExpConfig, int)) ExpFlag {
	return ExpFlag{Name: name, Default: strconv.Itoa(def), Usage: usage,
		Set: func(cfg *ExpConfig, v string) error {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			set(cfg, n)
			return nil
		}}
}

// Int64ExpFlag binds a 64-bit integer knob (seeds) onto an ExpConfig field.
func Int64ExpFlag(name string, def int64, usage string, set func(*ExpConfig, int64)) ExpFlag {
	return ExpFlag{Name: name, Default: strconv.FormatInt(def, 10), Usage: usage,
		Set: func(cfg *ExpConfig, v string) error {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			set(cfg, n)
			return nil
		}}
}

// FloatExpFlag binds a float knob onto an ExpConfig field.
func FloatExpFlag(name string, def float64, usage string, set func(*ExpConfig, float64)) ExpFlag {
	return ExpFlag{Name: name, Default: strconv.FormatFloat(def, 'g', -1, 64), Usage: usage,
		Set: func(cfg *ExpConfig, v string) error {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			set(cfg, f)
			return nil
		}}
}

// DurationExpFlag binds a time.Duration knob onto an ExpConfig field.
func DurationExpFlag(name string, def time.Duration, usage string, set func(*ExpConfig, time.Duration)) ExpFlag {
	return ExpFlag{Name: name, Default: def.String(), Usage: usage,
		Set: func(cfg *ExpConfig, v string) error {
			d, err := time.ParseDuration(v)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			set(cfg, d)
			return nil
		}}
}

// StringExpFlag binds a string knob onto an ExpConfig field.
func StringExpFlag(name, def, usage string, set func(*ExpConfig, string)) ExpFlag {
	return ExpFlag{Name: name, Default: def, Usage: usage,
		Set: func(cfg *ExpConfig, v string) error {
			set(cfg, v)
			return nil
		}}
}

// FlaggedExperiment is implemented by experiments that declare their own
// command-line knobs.
type FlaggedExperiment interface {
	Experiment
	Flags() []ExpFlag
}

// ExperimentFlags returns e's declared knobs (nil for experiments without
// any).
func ExperimentFlags(e Experiment) []ExpFlag {
	if fe, ok := e.(FlaggedExperiment); ok {
		return fe.Flags()
	}
	return nil
}

// expFunc adapts a plain function to Experiment.
type expFunc struct {
	name, desc string
	flags      []ExpFlag
	run        func(ExpConfig) (any, error)
}

func (e expFunc) Name() string                   { return e.name }
func (e expFunc) Describe() string               { return e.desc }
func (e expFunc) Flags() []ExpFlag               { return e.flags }
func (e expFunc) Run(cfg ExpConfig) (any, error) { return e.run(cfg) }

var (
	expMu     sync.Mutex
	expByName = make(map[string]Experiment)
	expOrder  []string // registration order, the canonical "all" order
)

// RegisterExperiment adds e to the registry; duplicate names panic (they
// are a programming error, caught at init time).
func RegisterExperiment(e Experiment) {
	expMu.Lock()
	defer expMu.Unlock()
	name := e.Name()
	if _, dup := expByName[name]; dup {
		panic(fmt.Sprintf("core: experiment %q registered twice", name))
	}
	expByName[name] = e
	expOrder = append(expOrder, name)
}

// RegisterExperimentFunc registers a function-backed experiment.
func RegisterExperimentFunc(name, desc string, run func(ExpConfig) (any, error)) {
	RegisterExperiment(expFunc{name: name, desc: desc, run: run})
}

// RegisterExperimentWithFlags registers a function-backed experiment that
// declares its own command-line knobs.
func RegisterExperimentWithFlags(name, desc string, flags []ExpFlag, run func(ExpConfig) (any, error)) {
	RegisterExperiment(expFunc{name: name, desc: desc, flags: flags, run: run})
}

// LookupExperiment resolves a registered experiment by name.
func LookupExperiment(name string) (Experiment, bool) {
	expMu.Lock()
	defer expMu.Unlock()
	e, ok := expByName[name]
	return e, ok
}

// Experiments returns every registered experiment in registration order —
// the order "run everything" callers should use, which follows the paper's
// figure sequence.
func Experiments() []Experiment {
	expMu.Lock()
	defer expMu.Unlock()
	out := make([]Experiment, 0, len(expOrder))
	for _, name := range expOrder {
		out = append(out, expByName[name])
	}
	return out
}

// ExperimentNames returns the registered names sorted alphabetically (for
// error messages and completion).
func ExperimentNames() []string {
	expMu.Lock()
	defer expMu.Unlock()
	out := append([]string(nil), expOrder...)
	sort.Strings(out)
	return out
}
