package ric_test

import (
	"testing"
	"time"

	"waran/internal/exp"
)

// TestRunOverloadSmall runs the full overload chaos experiment at reduced
// scale: the fleet must fully reassociate after the kill+restart, both shed
// ledgers must conserve exactly, and the dwell arm must isolate the stalling
// xApp (breaker open, not quarantined) while the healthy xApp behind it
// answers the offered load.
func TestRunOverloadSmall(t *testing.T) {
	cfg := exp.OverloadConfig{
		Agents:         32,
		AdmitRate:      400,
		AdmitBurst:     8,
		RetryAfter:     80 * time.Millisecond,
		ReportPeriodMs: 4,
		Warmup:         200 * time.Millisecond,
		Outage:         150 * time.Millisecond,
		RampBound:      20 * time.Second,
		Pacing:         500 * time.Microsecond,
		Dwell:          1200 * time.Millisecond,
		DwellAgents:    12,
		StallIters:     600_000,
		Seed:           7,
	}
	res, err := exp.RunOverload(cfg)
	if err != nil {
		t.Fatalf("RunOverload: %v (result %+v)", err, res)
	}

	// Mass recovery: everyone back, and the 99% mark recorded.
	if res.Reassociated != res.Agents {
		t.Fatalf("only %d/%d sessions reassociated", res.Reassociated, res.Agents)
	}
	if res.Reassoc99Ms <= 0 {
		t.Fatalf("no 99%% reassociation mark recorded: %+v", res)
	}
	// The admission gate must have actually turned connections away (burst 8
	// against a 32-agent stampede).
	if res.BusyRefusals == 0 {
		t.Fatal("admission gate never refused a connection — storm not gated")
	}
	if !res.LedgerConserved {
		t.Fatalf("shed ledger violated: pre-kill %+v post %+v", res.LedgerPreKill, res.Ledger)
	}
	if res.LedgerPreKill.Offered == 0 || res.Ledger.Offered == 0 {
		t.Fatalf("a ledger saw no offered indications: pre-kill %+v post %+v",
			res.LedgerPreKill, res.Ledger)
	}

	// Slow-xApp isolation: the breaker opens and skips the stall.
	on := res.GuardOn
	if on.SlowSkipped == 0 {
		t.Fatalf("dwell arm never skipped the stalled xApp: %+v", on)
	}
	if on.SlowBreaker != "open" && on.SlowBreaker != "half-open" {
		t.Fatalf("dwell arm breaker state %q, want open/half-open", on.SlowBreaker)
	}
	// Useful work flows around the stall: the SLA xApp answers every
	// delivered indication with one control, so controls applied track the
	// indications offered (ticks x agents). A stall that serialized the RIC
	// would apply a few hundredths of that (EXPERIMENTS.md, history row);
	// half keeps the assertion robust on loaded boxes.
	offered := float64(on.Ticks * cfg.DwellAgents)
	if applied := on.ControlsPerSec * cfg.Dwell.Seconds(); applied < offered/2 {
		t.Fatalf("dwell arm applied ~%.0f controls for %.0f offered indications: %+v", applied, offered, on)
	}
	t.Logf("reassoc99=%.0fms reassoc100=%.0fms wave=%.2f busyRefusals=%d", res.Reassoc99Ms,
		res.Reassoc100Ms, res.MaxWaveFraction, res.BusyRefusals)
	t.Logf("dwell: tickP99=%.2fms ticks=%d controls/s=%.0f slow{inv=%d skip=%d breaker=%s}",
		on.TickP99Ms, on.Ticks, on.ControlsPerSec, on.SlowInvocations, on.SlowSkipped, on.SlowBreaker)
}
