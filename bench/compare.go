package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// This file is the one implementation of the comparison rule (choosing-
// metrics section 8 and section 6 step 5) that later PRs and the A/A check
// share.

// Verdicts of one (workload, metric) comparison.
const (
	verdictGain       = "gain"       // >= minPairs pairs, new wins >= 9/10 of them, medians differ by more than old's quartile spread
	verdictRegression = "regression" // new's median is worse than old's by more than the bound
	verdictUnresolved = "unresolved" // old's own spread exceeds the bound, so "unchanged" cannot be claimed
	verdictUnchanged  = "unchanged"  // within the bound, spread within the bound
)

// minPairs is the fewest pairs a gain may be claimed from.
const minPairs = 10

// comparison is one end-to-end metric on one workload, old against new.
type comparison struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	Pairs    int     `json:"pairs"`
	Wins     int     `json:"wins"`   // pairs where new reads better
	Losses   int     `json:"losses"` // pairs where new reads worse; ties count for neither
	Old      summary `json:"old"`
	New      summary `json:"new"`
	// Worsening is how much worse new's median is than old's, as a share of
	// old's median (negative when new is better).
	Worsening float64 `json:"worsening"`
	Verdict   string  `json:"verdict"`
}

// summary is one side's median, quartiles and spread (IQR / median).
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
}

func summarise(v []float64) summary {
	q1, _, q3 := quartiles(v)
	return summary{Median: median(v), Q1: q1, Q3: q3, Spread: spread(v)}
}

// compareMetric applies the rule to paired runs (old[i] ran beside new[i]).
func compareMetric(def metricDef, old, new []float64) comparison {
	c := comparison{Metric: def.Name, Unit: def.Unit, Bound: def.Bound, Old: summarise(old), New: summarise(new)}
	better := func(a, b float64) bool { // a reads better than b
		if def.Better == "higher" {
			return a > b
		}
		return a < b
	}
	c.Pairs = min(len(old), len(new))
	for i := 0; i < c.Pairs; i++ {
		switch {
		case better(new[i], old[i]):
			c.Wins++
		case better(old[i], new[i]):
			c.Losses++
		}
	}
	if c.Old.Median != 0 {
		c.Worsening = (c.New.Median - c.Old.Median) / c.Old.Median
		if def.Better == "higher" {
			c.Worsening = -c.Worsening
		}
	}
	gap := c.New.Median - c.Old.Median
	if gap < 0 {
		gap = -gap
	}
	clear := gap > c.Old.Q3-c.Old.Q1
	allBetter := c.Pairs > 0
	for _, n := range new {
		for _, o := range old {
			if !better(n, o) {
				allBetter = false
			}
		}
	}
	switch {
	case c.Pairs >= minPairs && 10*c.Wins >= 9*c.Pairs && clear:
		c.Verdict = verdictGain
	case c.Old.Spread > def.Bound && !allBetter:
		c.Verdict = verdictUnresolved
	case c.Worsening > def.Bound:
		c.Verdict = verdictRegression
	default:
		c.Verdict = verdictUnchanged
	}
	return c
}

// groupRuns collects, per workload, each end-to-end metric's values in run
// order, plus the failure share, from the untraced runs of a result file.
func groupRuns(runs []runRecord) (values map[string]map[string][]float64, failShare map[string]float64) {
	values = map[string]map[string][]float64{}
	attempted, failed := map[string]float64{}, map[string]float64{}
	for _, r := range runs {
		if r.Trace != 0 {
			continue
		}
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
		}
		attempted[r.Workload] += float64(r.Attempted)
		failed[r.Workload] += float64(r.Failed)
	}
	failShare = map[string]float64{}
	for w, a := range attempted {
		failShare[w] = ratio(failed[w], a)
	}
	return values, failShare
}

// compareRuns compares every end-to-end metric on every workload present on
// both sides. A gain does not count when more operations failed than before.
func compareRuns(old, new []runRecord) []comparison {
	ov, ofail := groupRuns(old)
	nv, nfail := groupRuns(new)
	var out []comparison
	for _, w := range workloads {
		if ov[w.Name] == nil || nv[w.Name] == nil {
			continue
		}
		for _, def := range endToEnd {
			c := compareMetric(def, ov[w.Name][def.Name], nv[w.Name][def.Name])
			c.Workload = w.Name
			if c.Verdict == verdictGain && nfail[w.Name] > ofail[w.Name] {
				c.Verdict = verdictRegression
			}
			out = append(out, c)
		}
	}
	return out
}

func printComparisons(cs []comparison) {
	fmt.Printf("%-13s %-14s %12s %12s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "old median", "new median", "worsening", "old iqr", "bound", "wins", "verdict")
	for _, c := range cs {
		fmt.Printf("%-13s %-14s %12.4f %12.4f %+8.1f%% %7.1f%% %7.0f%% %3d/%-2d  %s\n",
			c.Workload, c.Metric, c.Old.Median, c.New.Median, 100*c.Worsening, 100*c.Old.Spread, 100*c.Bound, c.Wins, c.Pairs, c.Verdict)
	}
}

// compareFiles is `bench -compare old.json new.json`. It exits non-zero on a
// regression; unresolved metrics are printed for the reviewer and do not
// fail the command.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench -compare old.json new.json")
	}
	old, err := readResults(args[0])
	if err != nil {
		return err
	}
	new, err := readResults(args[1])
	if err != nil {
		return err
	}
	cs := compareRuns(old.Runs, new.Runs)
	if len(cs) == 0 {
		return errors.New("the two files share no untraced runs of a workload")
	}
	printComparisons(cs)
	var regressed []string
	for _, c := range cs {
		if c.Verdict == verdictRegression {
			regressed = append(regressed, c.Workload+"/"+c.Metric)
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("regression on %s", strings.Join(regressed, ", "))
	}
	return nil
}

// child runs one workload in a fresh process of this binary, so runs never
// share a heap, and parses the result object from its last output line.
func child(name string, seed int64, seconds float64, traceOn int) (runRecord, error) {
	rec := runRecord{Workload: name, Seed: seed, Seconds: seconds, Trace: traceOn}
	self, err := os.Executable()
	if err != nil {
		return rec, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traceOn))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.resultLine); err != nil {
		return rec, fmt.Errorf("%s seed %d: no result (%v): %s", name, seed, runErr, strings.TrimSpace(stderr.String()))
	}
	if runErr != nil {
		errLines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
		rec.Reason = errLines[len(errLines)-1]
	}
	return rec, nil
}

// runAll is the one command that runs every workload, untraced then traced,
// prints every metric by name with its unit, and fails on any incorrect
// output.
func runAll(seconds float64, seed int64, out string) error {
	hdr := machineHeader()
	hdr.warn(os.Stdout)
	file := &resultFile{Machine: hdr}
	var wrong []string
	for _, w := range workloads {
		for traceOn := 0; traceOn <= 1; traceOn++ {
			rec, err := child(w.Name, seed, seconds, traceOn)
			if err != nil {
				return err
			}
			printTable(os.Stdout, rec)
			file.Runs = append(file.Runs, rec)
			if !rec.Correct {
				wrong = append(wrong, fmt.Sprintf("%s (trace %d)", w.Name, traceOn))
			}
		}
	}
	if out != "" {
		if err := writeResults(out, file); err != nil {
			return err
		}
	}
	if len(wrong) > 0 {
		return fmt.Errorf("incorrect outputs on %s", strings.Join(wrong, ", "))
	}
	return nil
}

// aaReport is the A/A check's record: the same code measured as two sets.
type aaReport struct {
	RunsPerSet  int          `json:"runs_per_set"`
	Seconds     float64      `json:"seconds"`
	Comparisons []comparison `json:"comparisons"`
	Agree       bool         `json:"agree"`
}

// runAA measures this code as two sets of n runs per workload. Set A walks
// the workloads first to last and set B last to first, alternating, so the
// two sets differ in start order and in what ran just before. The sets agree
// when, on every end-to-end metric and workload, B's median is within the
// bound of A's and A's spread is within the bound too. setup_s, a
// millisecond-sized quantity, is held to the medians alone, as the pipeline
// holds it.
func runAA(n int, seconds float64, seed int64, out string) error {
	hdr := machineHeader()
	hdr.warn(os.Stdout)
	var a, b []runRecord
	for i := 0; i < n; i++ {
		for k := range workloads {
			rec, err := child(workloads[k].Name, seed+int64(i), seconds, 0)
			if err != nil {
				return err
			}
			a = append(a, rec)
		}
		for k := len(workloads) - 1; k >= 0; k-- {
			rec, err := child(workloads[k].Name, seed+int64(i), seconds, 0)
			if err != nil {
				return err
			}
			b = append(b, rec)
		}
		fmt.Printf("A/A pair %d of %d done\n", i+1, n)
	}
	rep := &aaReport{RunsPerSet: n, Seconds: seconds, Comparisons: compareRuns(a, b), Agree: true}
	printComparisons(rep.Comparisons)
	var off []string
	for _, c := range rep.Comparisons {
		w := c.Worsening
		if w < 0 {
			w = -w
		}
		if w > c.Bound || (c.Old.Spread > c.Bound && c.Metric != "setup_s") {
			rep.Agree = false
			off = append(off, c.Workload+"/"+c.Metric)
		}
	}
	for _, r := range append(append([]runRecord(nil), a...), b...) {
		if !r.Correct {
			rep.Agree = false
			off = append(off, fmt.Sprintf("%s seed %d incorrect", r.Workload, r.Seed))
		}
	}
	if out != "" {
		if err := writeResults(out, &resultFile{Machine: hdr, Runs: append(a, b...), AA: rep}); err != nil {
			return err
		}
	}
	if !rep.Agree {
		return fmt.Errorf("A/A sets disagree on %s", strings.Join(off, ", "))
	}
	fmt.Println("A/A: the two sets agree within every bound")
	return nil
}
