package ric

import (
	"testing"
	"time"

	"waran/internal/e2"
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
	latest, ok := k.Latest(7)
	if !ok || latest.Indication.Slot != 4 {
		t.Fatalf("latest = %+v", latest)
	}
	if _, ok := k.Latest(9); ok {
		t.Fatal("latest for unknown cell")
	}
	hist := k.History(7, 3)
	if len(hist) != 3 || hist[0].Indication.Slot != 2 || hist[2].Indication.Slot != 4 {
		t.Fatalf("history = %v", hist)
	}
	if all := k.History(7, 0); len(all) != 5 {
		t.Fatalf("full history = %d", len(all))
	}
	series := k.UETputSeries(7, 1)
	if len(series) != 5 || series[3] != 3e6 {
		t.Fatalf("series = %v", series)
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
	if l, ok := k.Latest(1); !ok || l.Indication.Slot != last {
		t.Fatalf("Latest = %+v", l)
	}
	if s := k.UETputSeries(1, 1); len(s) != limit || s[0] != last-limit+1 || s[limit-1] != last {
		t.Fatalf("UETputSeries = %v, want oldest first", s)
	}
	ind := mkInd(1, 0, 0, 0)
	if n := testing.AllocsPerRun(100, func() { k.Record(time.Time{}, ind) }); n != 1 {
		t.Fatalf("steady-state Record allocates %v objects, want 1 (the stamp)", n)
	}
}

func TestKPMSLACompliance(t *testing.T) {
	k := NewKPMStore(0)
	// 6 samples above 90% of target, 4 below.
	for i := 0; i < 6; i++ {
		k.Record(time.Now(), mkInd(1, uint64(i), 0, 9.5e6))
	}
	for i := 0; i < 4; i++ {
		k.Record(time.Now(), mkInd(1, uint64(10+i), 0, 5e6))
	}
	met, total := k.SliceSLACompliance(1, 1, 0.9)
	if met != 6 || total != 10 {
		t.Fatalf("compliance = %d/%d", met, total)
	}
	// Slices with zero target are excluded.
	k2 := NewKPMStore(0)
	ind := mkInd(1, 0, 0, 5e6)
	ind.Slices[0].TargetBps = 0
	k2.Record(time.Now(), ind)
	if _, total := k2.SliceSLACompliance(1, 1, 0.9); total != 0 {
		t.Fatalf("zero-target slice counted: %d", total)
	}
}

func TestRICRecordsIntoKPM(t *testing.T) {
	r := MustNew(Config{})
	r.HandleIndication(mkInd(3, 42, 1e6, 8e6))
	latest, ok := r.KPM.Latest(3)
	if !ok || latest.Indication.Slot != 42 {
		t.Fatalf("RIC did not record indication: %v %v", latest, ok)
	}
}

// faultyXAppWAT traps on every invocation.
const faultyXAppWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (func (export "on_indication") (result i32) unreachable))`

func TestXAppQuarantineAfterFaults(t *testing.T) {
	var faults int
	r := MustNew(Config{OnFault: func(string, error) { faults++ }})
	x, err := r.AddXAppWAT("bad", faultyXAppWAT, wabi.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddXAppWAT("good", plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
		t.Fatal(err)
	}
	ind := mkInd(1, 0, 0, 5e6) // under target => SLA xApp emits a boost
	for i := 0; i < DefaultXAppQuarantine+2; i++ {
		controls := r.HandleIndication(ind)
		// The healthy xApp keeps working through its peer's faults.
		if len(controls) == 0 {
			t.Fatalf("round %d: healthy xApp silenced", i)
		}
	}
	if !x.Disabled() {
		t.Fatal("faulty xApp not quarantined")
	}
	if faults != DefaultXAppQuarantine {
		t.Fatalf("fault observer saw %d faults, want %d (quarantined after)", faults, DefaultXAppQuarantine)
	}
	if st := x.Stats(); st.Invocations != DefaultXAppQuarantine || st.Faults != DefaultXAppQuarantine {
		t.Fatalf("stats = %d/%d", st.Invocations, st.Faults)
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
		if got := x.Plugin().LastTier(); got != wasm.TierClosure {
			t.Fatalf("indication %d ran on %v, want closure", i, got)
		}
	}
	if st := x.Stats(); st.Invocations != 100 || st.Faults != 0 {
		t.Fatalf("stats = %d invocations, %d faults", st.Invocations, st.Faults)
	}
}

func TestRemoveXApp(t *testing.T) {
	r := MustNew(Config{})
	if _, err := r.AddXAppWAT("a", plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddXAppWAT("a", plugins.SLAAssureXAppWAT, wabi.Policy{}); err == nil {
		t.Fatal("duplicate xApp accepted")
	}
	if err := r.RemoveXApp("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveXApp("a"); err == nil {
		t.Fatal("double remove accepted")
	}
	if len(r.XApps()) != 0 {
		t.Fatal("xApp list not empty")
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
			k.Latest(cell)
			k.History(cell, 10)
			k.UETputSeries(cell, 1)
			k.SliceSLACompliance(cell, 1, 0.9)
		}
	}
	close(stop)
	<-done
}
