package exp

import (
	"fmt"
	"io"
)

// This file renders experiment results as the text tables waranbench
// prints: each figure's result type implements TextRenderer, so the
// presentation travels with the data instead of living in the binary.

// RenderText prints the co-existence table (Fig. 5a).
func (r *Fig5aResult) RenderText(w io.Writer) error {
	fmt.Fprintf(w, "== Fig. 5a: Co-existence of MVNOs (duration %v) ==\n", r.Duration)
	fmt.Fprintln(w, "paper: each MVNO reaches its target cumulative DL rate on one gNB")
	fmt.Fprintf(w, "%-8s %-6s %12s %12s %8s\n", "MVNO", "sched", "target Mb/s", "achieved", "ratio")
	for _, m := range r.MVNOs {
		fmt.Fprintf(w, "%-8s %-6s %12.2f %12.2f %8.2f\n",
			m.Spec.Name, m.Spec.Scheduler, m.TargetBps/1e6, m.MeanBps/1e6, m.MeanBps/m.TargetBps)
	}
	fmt.Fprintln(w)
	return nil
}

// RenderText prints the live-swap trace (Fig. 5b).
func (r *Fig5bResult) RenderText(w io.Writer) error {
	fmt.Fprintf(w, "== Fig. 5b: Live swap of MVNO scheduler MT -> PF -> RR (duration %v) ==\n", r.Duration)
	fmt.Fprintln(w, "paper: swap on the fly, no gNB restart, no UE disconnect;")
	fmt.Fprintln(w, "       MT: best-MCS UE hits 22 Mb/s; PF: starved UE prioritized; RR: equal shares")
	fmt.Fprintf(w, "hot swaps applied: %d, UEs detached: %d\n", r.Swaps, r.UEsDetached)
	fmt.Fprintf(w, "%-10s", "t (s)")
	for _, u := range r.UEs {
		fmt.Fprintf(w, "  MCS%-2d Mb/s", u.MCS)
	}
	fmt.Fprintln(w)
	// All UEs share the same window cadence.
	for i := range r.UEs[0].Series {
		fmt.Fprintf(w, "%-10.1f", r.UEs[0].Series[i].Time.Seconds())
		for _, u := range r.UEs {
			fmt.Fprintf(w, "  %10.2f", u.Series[i].Bps/1e6)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}

// RenderText prints the memory-growth comparison (Fig. 5c).
func (r *Fig5cResult) RenderText(w io.Writer) error {
	fmt.Fprintf(w, "== Fig. 5c: Memory increase, leaky scheduler in plugin vs native (duration %v) ==\n", r.Duration)
	fmt.Fprintln(w, "paper: plugin-sandboxed leak stays flat; same code native grows linearly")
	fmt.Fprintf(w, "sandbox cap: %.1f MiB\n", float64(r.CapBytes)/(1<<20))
	fmt.Fprintf(w, "%-10s %16s %16s\n", "t (s)", "plugin MiB", "native MiB")
	step := len(r.Points) / 10
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(r.Points); i += step {
		p := r.Points[i]
		fmt.Fprintf(w, "%-10.1f %16.2f %16.2f\n",
			p.Time.Seconds(), float64(p.PluginBytes)/(1<<20), float64(p.NativeBytes)/(1<<20))
	}
	last := r.Points[len(r.Points)-1]
	fmt.Fprintf(w, "final: plugin %.2f MiB (capped), native %.2f MiB (unbounded)\n\n",
		float64(last.PluginBytes)/(1<<20), float64(last.NativeBytes)/(1<<20))
	return nil
}

// RenderText prints the plugin execution-time table (Fig. 5d).
func (r *Fig5dResult) RenderText(w io.Writer) error {
	fmt.Fprintln(w, "== Fig. 5d: Plugin execution time incl. serialization ==")
	fmt.Fprintln(w, "paper: P99 well below the 1000 us slot for MT/PF/RR at 1/10/20 UEs")
	fmt.Fprintf(w, "%-6s %6s %12s %12s %12s %10s\n", "sched", "UEs", "P50 (us)", "P99 (us)", "mean (us)", "deadline")
	for _, c := range r.Cells {
		verdict := "OK"
		if c.P99us >= r.SlotDeadlineUs {
			verdict = "MISS"
		}
		fmt.Fprintf(w, "%-6s %6d %12.1f %12.1f %12.1f %10s\n",
			c.Scheduler, c.NumUEs, c.P50us, c.P99us, c.Meanus, verdict)
	}
	fmt.Fprintln(w)
	return nil
}

// SafetyResult wraps the §5D fault matrix so it can render itself.
type SafetyResult struct {
	Rows []SafetyRow `json:"rows"`
}

// RenderText prints the memory-safety fault matrix (§5D).
func (r *SafetyResult) RenderText(w io.Writer) error {
	fmt.Fprintln(w, "== §5D: Memory-safety fault matrix ==")
	fmt.Fprintln(w, "paper: improper code traps in the sandbox; the gNB catches it and keeps running")
	fmt.Fprintf(w, "%-16s %-28s %-14s %-14s %-14s\n", "fault", "sandbox verdict", "host survived", "slice rescued", "breaker open")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %-28s %-14v %-14v %-14v\n", row.Fault, row.TrapCode, row.HostSurvived, row.SliceRescued, row.BreakerOpen)
	}
	fmt.Fprintln(w)
	return nil
}

// RenderText prints the Fig. 1 deployment-flow narrative.
func (r *UploadDemoResult) RenderText(w io.Writer) error {
	fmt.Fprintln(w, "== Fig. 1 flow: push Wasm scheduler bytecode into a running gNB ==")
	fmt.Fprintf(w, "before: slice runs %q\n", r.BeforeScheduler)
	fmt.Fprintf(w, "uploaded %d bytes of bytecode; decode+validate+instantiate+swap in %v\n",
		r.BlobBytes, r.SwapTime)
	fmt.Fprintf(w, "after:  slice runs %q (gNB never stopped; UE stayed attached)\n", r.AfterScheduler)
	fmt.Fprintln(w)
	return nil
}
