package ric

import (
	"sync"
	"testing"
	"time"

	"waran/internal/e2"
	"waran/internal/obs/trace"
	"waran/internal/plugins"
	"waran/internal/wabi"
)

// traceRAN is a RANControl that also takes traced controls, and counts
// which path each control arrived by: a control whose frame carried a trace
// trailer reaches ApplyTraced, any other reaches Apply.
type traceRAN struct {
	fakeRAN
	mu             sync.Mutex
	plain, stamped int
}

func (r *traceRAN) Apply(c *e2.ControlRequest) error {
	r.mu.Lock()
	r.plain++
	r.mu.Unlock()
	return nil
}

func (r *traceRAN) ApplyTraced(c *e2.ControlRequest, ctx trace.Context) error {
	r.mu.Lock()
	r.stamped++
	r.mu.Unlock()
	return nil
}

func (r *traceRAN) counts() (plain, stamped int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.plain, r.stamped
}

func countSpans(tr *trace.Tracer, name string) int {
	n := 0
	for _, sp := range tr.Snapshot() {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// TestTraceNeedsNoHandshake runs every pairing of a traced or untraced
// agent with a traced or untraced RIC over loopback. Each end traces by its
// own setting alone: every report is dispatched and every control applied
// whatever the pairing; the RIC records a ric.decode span per report, and
// stamps its controls, only when both ends trace; an untraced agent never
// receives a control trailer.
func TestTraceNeedsNoHandshake(t *testing.T) {
	const reports = 12
	for _, c := range []struct {
		name              string
		agentOn, ricOn    bool
		wantDecode, stamp bool
	}{
		{"both-untraced", false, false, false, false},
		{"traced-agent-untraced-ric", true, false, false, false},
		{"untraced-agent-traced-ric", false, true, false, false},
		{"both-traced", true, true, true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var agentTr, ricTr *trace.Tracer
			if c.agentOn {
				agentTr = trace.NewTracer(1024)
			}
			if c.ricOn {
				ricTr = trace.NewTracer(1024)
			}
			r, addr := servedRIC(t, Config{ReportPeriodMs: 1, Tracer: ricTr})
			if _, err := r.AddXAppWAT("sla", plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
				t.Fatal(err)
			}
			ran := &traceRAN{}
			a := startAgent(t, addr, ran, AgentConfig{Cell: 1, Tracer: agentTr})
			for slot := uint64(0); slot < reports; slot++ {
				if err := a.Tick(slot); err != nil {
					t.Fatal(err)
				}
			}
			waitIndications(t, r, reports)
			controls := r.Stats().Controls
			if controls == 0 {
				t.Fatal("the SLA xApp emitted no control")
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				if _, ok, _ := a.Counters(); ok == controls {
					break
				}
				if time.Now().After(deadline) {
					_, ok, fail := a.Counters()
					t.Fatalf("agent applied %d (%d refused) of %d controls", ok, fail, controls)
				}
				time.Sleep(time.Millisecond)
			}
			if got := r.Stats().Indications; got != reports {
				t.Fatalf("RIC dispatched %d reports, want %d", got, reports)
			}

			plain, stamped := ran.counts()
			if c.stamp && (stamped != int(controls) || plain != 0) {
				t.Fatalf("%d controls stamped, %d plain; want all %d stamped", stamped, plain, controls)
			}
			if !c.stamp && (stamped != 0 || plain != int(controls)) {
				t.Fatalf("%d controls stamped, %d plain; want all %d plain", stamped, plain, controls)
			}
			if ricTr != nil {
				want := 0
				if c.wantDecode {
					want = reports
				}
				if got := countSpans(ricTr, trace.SpanRICDecode); got != want {
					t.Fatalf("RIC recorded %d %s spans, want %d", got, trace.SpanRICDecode, want)
				}
			}
			if agentTr != nil {
				if got := countSpans(agentTr, trace.SpanIndicationEncode); got != reports {
					t.Fatalf("agent recorded %d %s spans, want %d", got, trace.SpanIndicationEncode, reports)
				}
			}
		})
	}
}
