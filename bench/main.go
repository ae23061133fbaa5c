// Command bench is WA-RAN's one benchmark harness: four closed-loop
// workloads, end-to-end metrics with regression bounds, and a traced run
// that attributes each workload's time to layers. See README.md.
//
//	bench --workload cell_dense --seed 1 --seconds 20 --trace 0   one run (the pipeline's form)
//	bench -all                                                    every workload, both run kinds, one table
//	bench -aa 5                                                   two sets of 5 runs of this code, compared
//	bench -compare old.json new.json                              the section-8 comparison of two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// traceDir is where a traced run leaves its spans and per-layer table.
const traceDir = ".bench_build/trace"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: cell_sparse, cell_dense, ric_loop or kpm_firehose")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds = flag.Float64("seconds", runSeconds, "length of the timed phase")
		traceOn = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		out     = flag.String("out", "", "also write the result (with machine header) to this file")
		all     = flag.Bool("all", false, "run every workload, untraced then traced, and print every metric")
		aa      = flag.Int("aa", 0, "A/A check: two sets of N untraced runs per workload, compared with the -compare rule")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *aa > 0:
		err = runAA(*aa, *seconds, *seed, *out)
	case *all:
		err = runAll(*seconds, *seed, *out)
	default:
		err = runOne(*name, *seed, *seconds, *traceOn, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run as result files keep it.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Samples  int     `json:"latency_samples,omitempty"`
	Reason   string  `json:"failure,omitempty"`
	resultLine
}

// resultFile is what -out, -all and -aa write and -compare reads.
type resultFile struct {
	Machine machine     `json:"machine"`
	Runs    []runRecord `json:"runs"`
	AA      *aaReport   `json:"aa,omitempty"`
}

func withUnits(values map[string]float64, defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// measure runs one workload once in this process.
func measure(name string, seed int64, seconds float64, traceOn int) (runRecord, error) {
	rec := runRecord{Workload: name, Seed: seed, Seconds: seconds, Trace: traceOn}
	w := findWorkload(name)
	if w == nil {
		return rec, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return rec, fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	d := time.Duration(seconds * float64(time.Second))
	var o *outcome
	var err error
	defs := endToEnd
	if traceOn == 0 {
		o, err = runEndToEnd(w, seed, d)
	} else {
		o, err = runTraced(w, seed, d, traceDir)
		defs = perLayer
	}
	if err != nil {
		return rec, fmt.Errorf("%s: %w", name, err)
	}
	if o.Attempted == 0 {
		return rec, fmt.Errorf("%s: nothing attempted", name)
	}
	rec.resultLine = resultLine{Correct: o.Correct, Attempted: o.Attempted, Failed: o.Failed, Metrics: withUnits(o.Metrics, defs)}
	rec.Samples, rec.Reason = o.Samples, o.Reason
	return rec, nil
}

// runOne is the pipeline's form: header and table on standard error, the
// result object as the last line of standard output, non-zero exit when the
// outputs were wrong.
func runOne(name string, seed int64, seconds float64, traceOn int, out string) error {
	hdr := machineHeader()
	hdr.warn(os.Stderr)
	rec, err := measure(name, seed, seconds, traceOn)
	if err != nil {
		return err
	}
	printTable(os.Stderr, rec)
	if out != "" {
		if err := writeResults(out, &resultFile{Machine: hdr, Runs: []runRecord{rec}}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec.resultLine)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return fmt.Errorf("%s: outputs incorrect: %s", name, rec.Reason)
	}
	return nil
}

func writeResults(path string, f *resultFile) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// printTable prints every metric of one run by name with its unit.
func printTable(w *os.File, rec runRecord) {
	kind := "end-to-end, tracing off"
	if rec.Trace != 0 {
		kind = "per layer, traced run"
	}
	fmt.Fprintf(w, "%s  seed %d  %.0f s  (%s; one op = %s)\n", rec.Workload, rec.Seed, rec.Seconds, kind, findWorkload(rec.Workload).Op)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  %-36s %14d\n  %-36s %14d\n", "ops_attempted", rec.Attempted, "ops_failed", rec.Failed)
	if rec.Samples > 0 {
		fmt.Fprintf(w, "  %-36s %14d\n", "latency_samples", rec.Samples)
	}
	if !rec.Correct {
		fmt.Fprintf(w, "  INCORRECT: %s\n", rec.Reason)
	}
}
