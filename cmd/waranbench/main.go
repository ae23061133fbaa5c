// Command waranbench regenerates the paper's evaluation (§5): every figure
// and the memory-safety matrix. It runs the experiments of internal/exp's
// table and exposes each one's knobs as namespaced flags
// (-<experiment>.<knob>), with no experiment-specific globals. Figures print
// as text tables with the paper's qualitative expectation alongside the
// measured outcome, while multi-cell, fault and scale experiments emit JSON
// (with an embedded metric-registry snapshot under "obs").
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
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"waran/internal/exp"
	"waran/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "which experiment to run (see -list), or all")
	duration := flag.Duration("duration", 0, "override experiment duration (0 = per-figure default)")
	list := flag.Bool("list", false, "list registered experiments and their knobs, then exit")

	runs := make(map[string]exp.Run, len(exp.All))
	knobs := make(map[string][]*flag.Flag, len(exp.All))
	for _, e := range exp.All {
		runs[e.Name], knobs[e.Name] = e.Bind(flag.CommandLine)
	}
	flag.Parse()

	if *list {
		for _, e := range exp.All {
			fmt.Printf("%-12s %s\n", e.Name, e.Desc)
			for _, f := range knobs[e.Name] {
				fmt.Printf("    -%s.%s (default %s)  %s\n", e.Name, f.Name, f.DefValue, f.Usage)
			}
		}
		return
	}

	if *fig == "all" {
		for _, e := range exp.All {
			run(e.Name, runs[e.Name], *duration)
		}
		return
	}
	r, ok := runs[*fig]
	if !ok {
		names := make([]string, 0, len(runs))
		for name := range runs {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "waranbench: unknown experiment %q (have: %s, all)\n",
			*fig, strings.Join(names, ", "))
		os.Exit(2)
	}
	run(*fig, r, *duration)
}

// run executes one experiment with a fresh metric registry, so instrumented
// runs embed an isolated snapshot, and prints its result.
func run(name string, r exp.Run, duration time.Duration) {
	res, err := r(exp.Env{Duration: duration, Obs: obs.NewRegistry()})
	if err == nil {
		err = exp.Write(os.Stdout, res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "waranbench: %s: %v\n", name, err)
		os.Exit(1)
	}
}
