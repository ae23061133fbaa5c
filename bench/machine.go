package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// machine is the header every result carries: enough to tell two result
// files from different boxes apart before comparing them.
type machine struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu_model"`
	Go         string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Load1      float64 `json:"load1_at_start"`
}

func machineHeader() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		GitRev:     gitRev(),
		Load1:      loadAverage(),
	}
}

// warn prints the header and flags a box too busy to measure on.
func (m machine) warn(w io.Writer) {
	fmt.Fprintf(w, "machine: nproc=%d GOMAXPROCS=%d cpu=%q %s rev=%s load1=%.2f\n",
		m.NProc, m.GOMAXPROCS, m.CPU, m.Go, m.GitRev, m.Load1)
	if m.Load1 > 0.5*float64(m.NProc) {
		fmt.Fprintf(w, "WARNING: 1-minute load average %.2f exceeds half of %d CPUs; timings will be noisy\n", m.Load1, m.NProc)
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func loadAverage() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// gitRev resolves HEAD by reading .git directly (the harness starts no
// process of its own for it); the pipeline's checkouts are not repositories
// and read "unknown".
func gitRev() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD")); err == nil {
			ref := strings.TrimSpace(string(head))
			name, isRef := strings.CutPrefix(ref, "ref: ")
			if !isRef {
				return ref
			}
			if b, err := os.ReadFile(filepath.Join(dir, ".git", name)); err == nil {
				return strings.TrimSpace(string(b))
			}
			return name
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}
