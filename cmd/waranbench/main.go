// Command waranbench regenerates the paper's evaluation (§5): every figure
// and the memory-safety matrix. Experiments self-register with
// internal/core's registry — including their own knobs, which this binary
// exposes as namespaced flags (-<experiment>.<knob>) with no
// experiment-specific globals. Figures print as text tables with the paper's
// qualitative expectation alongside the measured outcome, while multi-cell,
// fault and scale experiments emit JSON (with an embedded metric-registry
// snapshot under "obs").
//
// Usage:
//
//	waranbench -list                  # experiments and their knobs
//	waranbench -fig 5a|5b|5c|5d|safety|upload|all [-duration 10s]
//	waranbench -fig multicell -multicell.cells 8 -multicell.par 0
//	waranbench -fig e2faults -e2faults.drop 0.05 -e2faults.seed 1
//	waranbench -fig citysim -citysim.cells 256 -citysim.ues 4096
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"waran/internal/core"
	"waran/internal/obs"

	// Blank import: ric-coupled experiments (e2faults, tracelat, citysim)
	// register themselves.
	_ "waran/internal/ric"
)

// boundFlag is one experiment knob bound to a parsed command-line value.
type boundFlag struct {
	exp  string
	f    core.ExpFlag
	text *string
}

func main() {
	fig := flag.String("fig", "all", "which experiment to run (see -list), or all")
	duration := flag.Duration("duration", 0, "override experiment duration (0 = per-figure default)")
	list := flag.Bool("list", false, "list registered experiments and their knobs, then exit")

	// Every experiment's declared knobs become -<experiment>.<knob> flags;
	// this binary owns none of them.
	var bounds []boundFlag
	for _, e := range core.Experiments() {
		for _, f := range core.ExperimentFlags(e) {
			name := e.Name() + "." + f.Name
			bounds = append(bounds, boundFlag{
				exp:  e.Name(),
				f:    f,
				text: flag.String(name, f.Default, "["+e.Name()+"] "+f.Usage),
			})
		}
	}
	flag.Parse()

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-12s %s\n", e.Name(), e.Describe())
			for _, f := range core.ExperimentFlags(e) {
				fmt.Printf("    -%s.%s (default %s)  %s\n", e.Name(), f.Name, f.Default, f.Usage)
			}
		}
		return
	}

	if *fig == "all" {
		for _, e := range core.Experiments() {
			runExperiment(e, bounds, *duration)
		}
		return
	}
	e, ok := core.LookupExperiment(*fig)
	if !ok {
		fmt.Fprintf(os.Stderr, "waranbench: unknown experiment %q (have: %s, all)\n",
			*fig, strings.Join(core.ExperimentNames(), ", "))
		os.Exit(2)
	}
	runExperiment(e, bounds, *duration)
}

// configFor builds one experiment's knob set by applying its bound flags.
// Every experiment gets a fresh metric registry so instrumented runs embed
// an isolated snapshot.
func configFor(name string, bounds []boundFlag, duration time.Duration) (core.ExpConfig, error) {
	cfg := core.ExpConfig{Duration: duration, Obs: obs.NewRegistry()}
	for _, b := range bounds {
		if b.exp != name {
			continue
		}
		if err := b.f.Set(&cfg, *b.text); err != nil {
			return cfg, fmt.Errorf("-%s.%s: %w", b.exp, b.f.Name, err)
		}
	}
	return cfg, nil
}

// runExperiment executes one registered experiment and presents the result:
// text for results that render themselves, indented JSON otherwise.
func runExperiment(e core.Experiment, bounds []boundFlag, duration time.Duration) {
	cfg, err := configFor(e.Name(), bounds, duration)
	if err == nil {
		var res any
		res, err = e.Run(cfg)
		if err == nil {
			err = present(res)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "waranbench: %s: %v\n", e.Name(), err)
		os.Exit(1)
	}
}

func present(res any) error {
	if tr, ok := res.(core.TextRenderer); ok {
		return tr.RenderText(os.Stdout)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
