package ric

import (
	"testing"
	"time"

	"waran/internal/e2"
	"waran/internal/guard"
	"waran/internal/plugins"
	"waran/internal/wabi"
	"waran/internal/wasm"
)

func mkInd(cell uint32, slot uint64, ueTput float64, served float64) *e2.Indication {
	return &e2.Indication{
		Cell: cell, Slot: slot,
		UEs:    []e2.UEMeasurement{{UEID: 1, SliceID: 1, TputBps: ueTput}},
		Slices: []e2.SliceMeasurement{{SliceID: 1, TargetBps: 10e6, ServedBps: served}},
	}
}

func TestKPMStoreBasics(t *testing.T) {
	k := NewKPMStore(0)
	now := time.Now()
	for i := 0; i < 5; i++ {
		k.Record(now.Add(time.Duration(i)*time.Second), mkInd(7, uint64(i), float64(i)*1e6, 9e6))
	}
	if cells := k.Cells(); len(cells) != 1 || cells[0] != 7 {
		t.Fatalf("cells = %v", cells)
	}
	if h := k.History(9, 1); len(h) != 0 {
		t.Fatalf("history for unknown cell = %v", h)
	}
	hist := k.History(7, 3)
	if len(hist) != 3 || hist[0].Indication.Slot != 2 || hist[2].Indication.Slot != 4 {
		t.Fatalf("history = %v", hist)
	}
	if all := k.History(7, 0); len(all) != 5 {
		t.Fatalf("full history = %d", len(all))
	}
}

func TestKPMStoreRingBound(t *testing.T) {
	k := NewKPMStore(10)
	for i := 0; i < 100; i++ {
		k.Record(time.Now(), mkInd(1, uint64(i), 0, 0))
	}
	hist := k.History(1, 0)
	if len(hist) != 10 {
		t.Fatalf("ring holds %d entries, want 10", len(hist))
	}
	if hist[0].Indication.Slot != 90 {
		t.Fatalf("oldest retained slot = %d", hist[0].Indication.Slot)
	}
}

// TestKPMStoreFixedRing pins the retention contract: a cell's storage is one
// limit-slot array for the store's lifetime (an evicted indication is
// overwritten, not parked behind a resliced backing array), every query still
// reads oldest first across the wrap, and a steady-state Record allocates
// only the stamp.
func TestKPMStoreFixedRing(t *testing.T) {
	const limit = 8
	k := NewKPMStore(limit)
	for i := 0; i < 3*limit+3; i++ { // +3: the head sits mid-array
		k.Record(time.Now(), mkInd(1, uint64(i), float64(i), 0))
	}
	if r := k.cells[1]; cap(r.buf) != limit || len(r.buf) != limit {
		t.Fatalf("per-cell storage len %d cap %d, want both %d", len(r.buf), cap(r.buf), limit)
	}
	const last = 3*limit + 2
	hist := k.History(1, 0)
	if len(hist) != limit {
		t.Fatalf("history holds %d, want %d", len(hist), limit)
	}
	for i, si := range hist {
		if want := uint64(last - limit + 1 + i); si.Indication.Slot != want {
			t.Fatalf("history[%d] = slot %d, want %d (oldest first)", i, si.Indication.Slot, want)
		}
	}
	if h := k.History(1, 3); len(h) != 3 || h[0].Indication.Slot != last-2 || h[2].Indication.Slot != last {
		t.Fatalf("History(3) = %d entries from slot %d, want the last 3", len(h), h[0].Indication.Slot)
	}
	ind := mkInd(1, 0, 0, 0)
	if n := testing.AllocsPerRun(100, func() { k.Record(time.Time{}, ind) }); n != 1 {
		t.Fatalf("steady-state Record allocates %v objects, want 1 (the stamp)", n)
	}
}

func TestRICRecordsIntoKPM(t *testing.T) {
	r := MustNew(Config{})
	r.HandleIndication(mkInd(3, 42, 1e6, 8e6))
	if h := r.KPM.History(3, 1); len(h) != 1 || h[0].Indication.Slot != 42 {
		t.Fatalf("RIC did not record indication: %v", h)
	}
}

// faultyXAppWAT traps on every invocation.
const faultyXAppWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (func (export "on_indication") (result i32) unreachable))`

// TestXAppQuarantineAfterFaults: the breaker is an xApp's one give-up rule.
// A faulty xApp's breaker opens once its window holds MinSamples faults, and
// an open breaker invokes it no more — every later dispatch is skipped until
// the backoff lets one probe through — while the healthy xApp beside it
// keeps producing controls throughout.
func TestXAppQuarantineAfterFaults(t *testing.T) {
	const minSamples, rounds = 4, 20
	var faults int
	now := time.Unix(0, 0)
	r := MustNew(Config{
		OnFault: func(string, error) { faults++ },
		Overload: &OverloadConfig{Breaker: guard.BreakerConfig{
			MinSamples: minSamples, Backoff: time.Second, Now: func() time.Time { return now },
		}},
	})
	x, err := r.AddXAppWAT("bad", faultyXAppWAT, wabi.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddXAppWAT("good", plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
		t.Fatal(err)
	}
	ind := mkInd(1, 0, 0, 5e6) // under target => SLA xApp emits a boost
	for i := 0; i < rounds; i++ {
		// The healthy xApp keeps working through its peer's faults.
		if controls := r.HandleIndication(ind); len(controls) == 0 {
			t.Fatalf("round %d: healthy xApp silenced", i)
		}
	}
	if got := x.Breaker().State(); got != guard.Open {
		t.Fatalf("faulty xApp's breaker %v, want open", got)
	}
	if faults != minSamples {
		t.Fatalf("fault observer saw %d faults, want %d (breaker open after)", faults, minSamples)
	}
	if st := x.Stats(); st.Invocations != minSamples || st.Faults != minSamples || st.Skipped != rounds-minSamples {
		t.Fatalf("stats = %+v, want %d invocations and faults, %d skipped", st, minSamples, rounds-minSamples)
	}
	// Past the backoff one probe runs, fails and reopens the breaker.
	now = now.Add(time.Second)
	r.HandleIndication(ind)
	r.HandleIndication(ind)
	if st := x.Stats(); st.Invocations != minSamples+1 || x.Breaker().State() != guard.Open {
		t.Fatalf("after the backoff: stats = %+v, breaker %v; want one failed probe", st, x.Breaker().State())
	}
	if got := x.Breaker().FailureCount(wabi.FailTrap); got != minSamples+1 {
		t.Fatalf("breaker counted %d traps, want %d", got, minSamples+1)
	}
}

// TestXAppClosureFromFirstCall pins the shipped default on the RIC side: an
// xApp loaded the way cmd/ric loads it (AddXAppWAT, zero wabi.Policy) runs
// every invocation on the closure tier, from the very first indication.
func TestXAppClosureFromFirstCall(t *testing.T) {
	r := MustNew(Config{})
	x, err := r.AddXAppWAT("sla", plugins.SLAAssureXAppWAT, wabi.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	ind := mkInd(1, 0, 0, 5e6)
	for i := 1; i <= 100; i++ {
		if len(r.HandleIndication(ind)) == 0 {
			t.Fatalf("indication %d: no control", i)
		}
		pl, err := x.Pool().Get()
		if err != nil {
			t.Fatal(err)
		}
		tier := pl.LastTier()
		x.Pool().Put(pl)
		if tier != wasm.TierClosure {
			t.Fatalf("indication %d ran on %v, want closure", i, tier)
		}
	}
	if st := x.Stats(); st.Invocations != 100 || st.Faults != 0 {
		t.Fatalf("stats = %d invocations, %d faults", st.Invocations, st.Faults)
	}
}

func TestAddXAppRejectsDuplicateName(t *testing.T) {
	r := MustNew(Config{})
	if _, err := r.AddXAppWAT("a", plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddXAppWAT("a", plugins.SLAAssureXAppWAT, wabi.Policy{}); err == nil {
		t.Fatal("duplicate xApp accepted")
	}
	if len(r.XApps()) != 1 {
		t.Fatalf("%d xApps installed, want 1", len(r.XApps()))
	}
}

func TestAddXAppRejectsMissingEntry(t *testing.T) {
	r := MustNew(Config{})
	src := `(module (memory (export "memory") 1) (func (export "wrong") (result i32) i32.const 0))`
	if _, err := r.AddXAppWAT("x", src, wabi.Policy{}); err == nil {
		t.Fatal("xApp without on_indication accepted")
	}
}

// TestKPMStoreConcurrentAccess: the store is written by association
// goroutines and read by rApps concurrently; run with -race.
func TestKPMStoreConcurrentAccess(t *testing.T) {
	k := NewKPMStore(64)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k.Record(time.Now(), mkInd(uint32(i%3+1), uint64(i), 1e6, 8e6))
		}
	}()
	for i := 0; i < 2000; i++ {
		for _, cell := range k.Cells() {
			k.History(cell, 10)
		}
	}
	close(stop)
	<-done
}
