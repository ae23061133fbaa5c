package flight

import (
	"sync"
	"testing"
)

func TestRecorderTailAndWrap(t *testing.T) {
	r := NewRecorder(8)
	if r.Cap() != 8 {
		t.Fatalf("cap = %d, want 8", r.Cap())
	}
	for i := 0; i < 20; i++ {
		r.Record(Event{Class: EvShed, Plane: PlaneRIC, Slot: uint64(i), TimeNs: int64(i + 1)})
	}
	if r.Seq() != 20 {
		t.Fatalf("seq = %d, want 20", r.Seq())
	}
	tail := r.Tail(0)
	if len(tail) != 8 {
		t.Fatalf("tail len = %d, want ring cap 8", len(tail))
	}
	for i, ev := range tail {
		if want := uint64(13 + i); ev.Seq != want {
			t.Fatalf("tail[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
	tail3 := r.Tail(3)
	if len(tail3) != 3 || tail3[0].Seq != 18 || tail3[2].Seq != 20 {
		t.Fatalf("tail(3) = %+v, want seqs 18..20", tail3)
	}
	if got := r.Count(EvShed); got != 20 {
		t.Fatalf("Count(EvShed) = %d, want 20 (overwrite-proof)", got)
	}
}

func TestRecorderSnapshotSince(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 5; i++ {
		r.Record(Event{Class: EvAssocUp, TimeNs: 1})
	}
	all := r.SnapshotSince(0)
	if len(all) != 5 {
		t.Fatalf("since(0) len = %d, want 5", len(all))
	}
	inc := r.SnapshotSince(3)
	if len(inc) != 2 || inc[0].Seq != 4 || inc[1].Seq != 5 {
		t.Fatalf("since(3) = %+v, want seqs 4,5", inc)
	}
	if got := r.SnapshotSince(5); len(got) != 0 {
		t.Fatalf("since(5) len = %d, want 0", len(got))
	}
	// The empty result must be the shared slice, not a fresh allocation.
	if allocs := testing.AllocsPerRun(100, func() { _ = r.SnapshotSince(99) }); allocs != 0 {
		t.Fatalf("empty SnapshotSince allocates %.1f per call, want shared empty slice", allocs)
	}
}

func TestNilRecorderIsDisabled(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Record(Event{Class: EvShed}) // must not panic
	r.SetTriggers(EvShed)
	if r.Seq() != 0 || r.Cap() != 0 || r.Count(EvShed) != 0 {
		t.Fatal("nil recorder accessors should be zero")
	}
	if got := r.Tail(10); len(got) != 0 {
		t.Fatalf("nil Tail = %v", got)
	}
	if r.TriggerC() != nil {
		t.Fatal("nil recorder TriggerC should be nil")
	}
}

// TestNilRecorderRecordAddsZeroAllocs pins the disabled fast path: recording
// into a nil recorder is one pointer comparison, no allocations.
func TestNilRecorderRecordAddsZeroAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(200, func() {
		r.Record(Event{Class: EvSlotDeadlineMiss, Plane: PlaneGNB, Cell: 3, Slot: 77})
	})
	if allocs != 0 {
		t.Fatalf("nil recorder Record allocates %.1f per call, want 0", allocs)
	}
}

func TestRecorderTriggers(t *testing.T) {
	r := NewRecorder(8)
	r.SetTriggers(EvBreakerOpen, EvBrownoutShift)
	r.Record(Event{Class: EvShed, TimeNs: 1}) // not a trigger
	select {
	case c := <-r.TriggerC():
		t.Fatalf("unexpected trigger %v", c)
	default:
	}
	r.Record(Event{Class: EvBreakerOpen, TimeNs: 1})
	select {
	case c := <-r.TriggerC():
		if c != EvBreakerOpen {
			t.Fatalf("trigger = %v, want EvBreakerOpen", c)
		}
	default:
		t.Fatal("trigger-class event did not poke the channel")
	}
	// A full channel must never block the writer.
	for i := 0; i < 100; i++ {
		r.Record(Event{Class: EvBrownoutShift, TimeNs: 1})
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Event{Class: EvShed, Plane: PlaneRIC, Cell: uint32(g), TimeNs: 1})
			}
		}(g)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				for _, ev := range r.Tail(16) {
					if ev.Seq == 0 {
						t.Error("published event with zero seq")
						return
					}
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if r.Seq() != 2000 {
		t.Fatalf("seq = %d, want 2000", r.Seq())
	}
	if got := r.Count(EvShed); got != 2000 {
		t.Fatalf("count = %d, want 2000", got)
	}
}

func TestClassRoundTrip(t *testing.T) {
	for _, c := range Classes() {
		got, ok := ParseClass(c.String())
		if !ok || got != c {
			t.Fatalf("ParseClass(%q) = %v,%v", c.String(), got, ok)
		}
	}
	if _, ok := ParseClass("no-such-class"); ok {
		t.Fatal("ParseClass accepted garbage")
	}
	if _, ok := ParseClass(""); ok {
		t.Fatal("ParseClass resolved the empty name to a reserved class")
	}
	// The codec carries the class number: retiring a class reserves its
	// number instead of shifting the ones after it.
	if EvBreakerOpen != 4 || EvBundleCaptured != 17 {
		t.Fatalf("classes renumbered: breaker.open=%d bundle.captured=%d", EvBreakerOpen, EvBundleCaptured)
	}
}
