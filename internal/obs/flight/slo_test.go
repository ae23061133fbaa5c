package flight

import (
	"sync/atomic"
	"testing"
	"time"
)

// tick advances a fake clock and evaluates the set — detectors are driven
// entirely by the caller's clock, so tests are deterministic.
func tick(s *DetectorSet, now *time.Time, step time.Duration) {
	*now = now.Add(step)
	s.Eval(*now)
}

func TestRatioDetectorFiresAndClears(t *testing.T) {
	var bad, total atomic.Uint64 // metric-exempt: test stimulus, not telemetry
	rec := NewRecorder(64)
	ds := NewDetectorSet(rec)
	ds.MustAdd(SLO{
		Name:      "shed-ratio",
		Objective: 0.01, // 1% may shed
		Bad:       bad.Load,
		Total:     total.Load,
	}, DetectorConfig{Short: 2 * time.Second, Long: 6 * time.Second, Burn: 10})

	now := time.Unix(1000, 0)
	// Healthy traffic: 1000 offered/s, 0 shed. No fire.
	for i := 0; i < 10; i++ {
		total.Add(1000)
		tick(ds, &now, time.Second)
	}
	if st := ds.States()[0]; st.Firing || st.Fires != 0 {
		t.Fatalf("healthy detector fired: %+v", st)
	}

	// Incident: 50% of indications shed → burn = 0.5/0.01 = 50 ≥ 10 in
	// both windows once the long window fills with bad samples.
	for i := 0; i < 8; i++ {
		total.Add(1000)
		bad.Add(500)
		tick(ds, &now, time.Second)
	}
	st := ds.States()[0]
	if !st.Firing || st.Fires != 1 {
		t.Fatalf("detector did not fire under 50%% shed: %+v", st)
	}
	if got := rec.Count(EvDetectorFire); got != 1 {
		t.Fatalf("EvDetectorFire count = %d, want 1", got)
	}

	// Recovery: shed stops; both windows drain below half of Burn (5).
	for i := 0; i < 10; i++ {
		total.Add(1000)
		tick(ds, &now, time.Second)
	}
	st = ds.States()[0]
	if st.Firing {
		t.Fatalf("detector still firing after recovery: %+v", st)
	}
	if got := rec.Count(EvDetectorClear); got != 1 {
		t.Fatalf("EvDetectorClear count = %d, want 1", got)
	}
}

func TestRatioDetectorIgnoresShortSpike(t *testing.T) {
	var bad, total atomic.Uint64 // metric-exempt: test stimulus, not telemetry
	ds := NewDetectorSet(nil)
	ds.MustAdd(SLO{Name: "spike", Objective: 0.01, Bad: bad.Load, Total: total.Load},
		DetectorConfig{Short: 2 * time.Second, Long: 20 * time.Second, Burn: 10})
	now := time.Unix(2000, 0)
	for i := 0; i < 20; i++ {
		total.Add(1000)
		tick(ds, &now, time.Second)
	}
	// One bad second inside a long healthy window: short window burns hot,
	// long window stays cool → multi-window must hold fire.
	total.Add(1000)
	bad.Add(500)
	tick(ds, &now, time.Second)
	if st := ds.States()[0]; st.Firing {
		t.Fatalf("one-second spike paged: %+v", st)
	}
}

func TestSLOValidation(t *testing.T) {
	ds := NewDetectorSet(nil)
	cases := []SLO{
		{},
		{Name: "no-source"},
		{Name: "half-ratio", Bad: func() uint64 { return 0 }},
		{Name: "bad-objective", Bad: func() uint64 { return 0 }, Total: func() uint64 { return 0 }, Objective: 2},
	}
	for i, slo := range cases {
		if _, err := ds.Add(slo, DetectorConfig{}); err == nil {
			t.Fatalf("case %d (%q): invalid SLO accepted", i, slo.Name)
		}
	}
}

// quietSLO is a ratio SLO whose sources never move: its detector never
// fires.
func quietSLO(name string) SLO {
	zero := func() uint64 { return 0 }
	return SLO{Name: name, Objective: 0.1, Bad: zero, Total: zero}
}
