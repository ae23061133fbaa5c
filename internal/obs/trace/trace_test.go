package trace

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
)

func TestContextValidityAndIDs(t *testing.T) {
	var zero Context
	if zero.Valid() {
		t.Fatal("zero context must be invalid")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("NewTraceID returned 0")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %#x", id)
		}
		seen[id] = true
	}
	ctx := NewContext()
	if !ctx.Valid() {
		t.Fatal("NewContext must be valid")
	}
}

func TestSpanRingWrapsOldestFirst(t *testing.T) {
	r := NewSpanRing(4)
	for i := 0; i < 7; i++ {
		r.Add(&Span{Slot: uint64(i)})
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("len %d, want 4", len(got))
	}
	for i, sp := range got {
		if want := uint64(3 + i); sp.Slot != want {
			t.Errorf("slot[%d] = %d, want %d", i, sp.Slot, want)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("Len %d, want 4", r.Len())
	}
}

func TestSpanRingConcurrentAddAndSnapshot(t *testing.T) {
	r := NewSpanRing(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Add(&Span{Slot: uint64(w*1000 + i)})
				if i%50 == 0 {
					for _, sp := range r.Snapshot() {
						_ = sp.Slot
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 64 {
		t.Fatalf("Len %d, want 64", r.Len())
	}
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Record(&Span{Name: SpanTransport}) // must not panic
	if got := tr.Snapshot(); len(got) != 0 {
		t.Fatalf("nil tracer snapshot has %d spans", len(got))
	}
}

func TestTracerRoutesPlanes(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(&Span{Name: SpanGNBApply, Plane: PlaneGNB, StartNs: 2})
	tr.Record(&Span{Name: SpanRICDecode, Plane: PlaneRIC, StartNs: 1})
	tr.Record(&Span{Name: "x", Plane: "unknown"}) // dropped, not panicking
	if n := tr.Ring(PlaneGNB).Len(); n != 1 {
		t.Fatalf("gnb ring has %d spans, want 1", n)
	}
	all := tr.Snapshot()
	if len(all) != 2 {
		t.Fatalf("snapshot has %d spans, want 2", len(all))
	}
	if all[0].StartNs > all[1].StartNs {
		t.Fatal("snapshot not sorted by start time")
	}
}

func TestHopStatsCanonicalOrderAndPercentiles(t *testing.T) {
	var spans []*Span
	// 100 transport spans of 1..100 µs, plus one apply span.
	for i := 1; i <= 100; i++ {
		spans = append(spans, &Span{Name: SpanTransport, DurNs: int64(i) * 1000})
	}
	spans = append(spans, &Span{Name: SpanGNBApply, DurNs: 5000})
	stats := HopStats(spans)
	if len(stats) != 2 {
		t.Fatalf("got %d hop stats, want 2", len(stats))
	}
	// Canonical order puts transport before gnb.apply.
	if stats[0].Name != SpanTransport || stats[1].Name != SpanGNBApply {
		t.Fatalf("order %s, %s", stats[0].Name, stats[1].Name)
	}
	tr := stats[0]
	if tr.Count != 100 || tr.P50Us < 49 || tr.P50Us > 51 || tr.P99Us < 98 || tr.MaxUs != 100 {
		t.Fatalf("transport stats %+v", tr)
	}
}

func TestDistinctAndMaxTraceHopKinds(t *testing.T) {
	spans := []*Span{
		{TraceID: 1, Name: SpanIndicationEncode},
		{TraceID: 1, Name: SpanTransport},
		{TraceID: 1, Name: SpanTransport}, // repeat: same kind
		{TraceID: 2, Name: SpanGNBApply},
	}
	if got := DistinctHopKinds(spans); got != 3 {
		t.Fatalf("DistinctHopKinds %d, want 3", got)
	}
	if got := MaxTraceHopKinds(spans); got != 2 {
		t.Fatalf("MaxTraceHopKinds %d, want 2", got)
	}
}

func TestSpanNamesTableCoversConstants(t *testing.T) {
	want := []string{
		SpanIndicationEncode, SpanTransport, SpanRICDecode, SpanXAppInvoke,
		SpanControlEncode, SpanGNBApply, SpanSwapCanary, SpanSlotEffect,
		SpanShed, SpanBrownoutShift,
	}
	if len(SpanNames) != len(want) {
		t.Fatalf("SpanNames has %d entries, want %d", len(SpanNames), len(want))
	}
	for i, name := range want {
		if SpanNames[i] != name {
			t.Errorf("SpanNames[%d] = %q, want %q", i, SpanNames[i], name)
		}
	}
}

func TestHandlerServesChromeTrace(t *testing.T) {
	tr := NewTracer(16)
	ctx := NewContext()
	tr.Record(&Span{
		TraceID: ctx.TraceID, SpanID: ctx.SpanID,
		Name: SpanIndicationEncode, Plane: PlaneGNB, StartNs: 1000, DurNs: 2000,
	})
	tr.Record(&Span{
		TraceID: NewTraceID(), SpanID: NewSpanID(),
		Name: SpanRICDecode, Plane: PlaneRIC, StartNs: 3000, DurNs: 500,
	})

	cases := []struct {
		name, url string
		events    int
	}{
		{"all", "/debug/trace", 2},
		{"plane filter", "/debug/trace?plane=gnb", 1},
		{"trace filter", "/debug/trace?trace=" + strconv.FormatUint(ctx.TraceID, 16), 1},
		{"no match", "/debug/trace?trace=1", 0},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", tc.url, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", tc.name, rec.Code)
		}
		var body struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: bad JSON: %v", tc.name, err)
		}
		if len(body.TraceEvents) != tc.events {
			t.Errorf("%s: %d events, want %d", tc.name, len(body.TraceEvents), tc.events)
		}
	}

	// A nil tracer serves an empty, valid document.
	rec := httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("nil tracer: status %d", rec.Code)
	}
}

// TestSpanRingSnapshotSince covers the incremental cursor the bundle writer
// chains: only spans published after the cursor span come back, a rolled-off
// cursor degrades to the full window, and empty results share one slice.
func TestSpanRingSnapshotSince(t *testing.T) {
	r := NewSpanRing(8)
	for i := 1; i <= 5; i++ {
		r.Add(&Span{SpanID: uint64(i), Slot: uint64(i)})
	}

	inc := r.SnapshotSince(3)
	if len(inc) != 2 || inc[0].SpanID != 4 || inc[1].SpanID != 5 {
		t.Fatalf("SnapshotSince(3) = %v spans, want [4 5]", len(inc))
	}

	// Cursor at the newest span: nothing new, and the empty result must be
	// the shared slice (len 0 cap 0), not a fresh allocation per poll.
	none := r.SnapshotSince(5)
	if len(none) != 0 || cap(none) != 0 {
		t.Fatalf("SnapshotSince(tip) = len %d cap %d, want the shared empty slice", len(none), cap(none))
	}

	// Unknown / rolled-off cursor: full window.
	for i := 6; i <= 14; i++ { // overwrite span 3 entirely
		r.Add(&Span{SpanID: uint64(i), Slot: uint64(i)})
	}
	full := r.SnapshotSince(3)
	if len(full) != 8 || full[0].SpanID != 7 {
		t.Fatalf("rolled-off cursor: got %d spans starting at %d, want full window of 8 starting at 7", len(full), full[0].SpanID)
	}

	// Nil and empty rings return the shared empty slice too.
	var nilRing *SpanRing
	if s := nilRing.SnapshotSince(0); len(s) != 0 || cap(s) != 0 {
		t.Fatal("nil ring must return the shared empty slice")
	}
	if s := NewSpanRing(4).Snapshot(); len(s) != 0 || cap(s) != 0 {
		t.Fatal("empty ring must return the shared empty slice")
	}
}
