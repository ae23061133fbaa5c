package flight

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"waran/internal/obs"
	"waran/internal/obs/trace"
)

func testCapturer(t *testing.T, rec *Recorder, mut func(*CapturerConfig)) *Capturer {
	t.Helper()
	cfg := CapturerConfig{Dir: t.TempDir(), GoroutineDump: -1}
	if mut != nil {
		mut(&cfg)
	}
	c, err := NewCapturer(rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCaptureRoundTrip(t *testing.T) {
	rec := NewRecorder(64)
	reg := obs.NewRegistry()
	rec.Register(reg)
	reg.Counter("waran_test_total", "test").Add(7)
	tr := trace.NewTracer(16)
	tr.Record(&trace.Span{TraceID: 1, SpanID: 11, Name: trace.SpanShed, Plane: trace.PlaneRIC, StartNs: 5})
	ds := NewDetectorSet(rec)
	ds.MustAdd(quietSLO("x"), DetectorConfig{})

	cap := testCapturer(t, rec, func(c *CapturerConfig) {
		c.Registry, c.Tracer, c.Detectors = reg, tr, ds
		c.GoroutineDump = 1 << 16
	})
	rec.Record(Event{Class: EvBrownoutShift, Plane: PlaneRIC, Detail: "normal->degraded", TimeNs: 1})
	rec.Record(Event{Class: EvShed, Plane: PlaneRIC, Detail: "overflow", TimeNs: 2})

	b, err := cap.CaptureNow("test")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Journal) != 2 || b.Journal[0].Class != EvBrownoutShift {
		t.Fatalf("journal = %+v", b.Journal)
	}
	if b.JournalGap {
		t.Fatal("unexpected journal gap")
	}
	if len(b.Detectors) != 1 || b.Detectors[0].Name != "x" {
		t.Fatalf("detectors = %+v", b.Detectors)
	}
	if _, ok := b.Metrics[obs.SnapshotHeaderKey]; !ok {
		t.Fatal("bundle metrics missing snapshot header")
	}
	if len(b.Spans[trace.PlaneRIC]) != 1 {
		t.Fatalf("spans = %+v", b.Spans)
	}
	if !strings.Contains(b.Goroutines, "goroutine") {
		t.Fatal("bundle missing goroutine dump")
	}

	idx := cap.Index()
	if len(idx) != 1 || idx[0].Events != 2 {
		t.Fatalf("index = %+v", idx)
	}
	back, err := ReadBundle(idx[0].File)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seq != b.Seq || len(back.Journal) != 2 || back.Journal[1].Detail != "overflow" {
		t.Fatalf("read-back = %+v", back)
	}
	found := back.FindClasses(EvBrownoutShift, EvShed, EvBreakerOpen)
	if len(found[EvBrownoutShift]) != 1 || len(found[EvShed]) != 1 || len(found[EvBreakerOpen]) != 0 {
		t.Fatalf("FindClasses = %+v", found)
	}
	// The capture event lands in the journal AFTER the snapshot: the next
	// bundle sees it, this one does not.
	if got := rec.Count(EvBundleCaptured); got != 1 {
		t.Fatalf("EvBundleCaptured count = %d", got)
	}
}

// TestCaptureIncremental pins the SnapshotSince plumbing: consecutive
// bundles carry disjoint journal windows and disjoint span windows.
func TestCaptureIncremental(t *testing.T) {
	rec := NewRecorder(64)
	tr := trace.NewTracer(16)
	cap := testCapturer(t, rec, func(c *CapturerConfig) { c.Tracer = tr })

	rec.Record(Event{Class: EvShed, TimeNs: 1})
	tr.Record(&trace.Span{SpanID: 1, Plane: trace.PlaneRIC, StartNs: 1})
	b1, err := cap.CaptureNow("one")
	if err != nil {
		t.Fatal(err)
	}
	rec.Record(Event{Class: EvBreakerOpen, TimeNs: 2})
	tr.Record(&trace.Span{SpanID: 2, Plane: trace.PlaneRIC, StartNs: 2})
	b2, err := cap.CaptureNow("two")
	if err != nil {
		t.Fatal(err)
	}
	if len(b1.Journal) != 1 || b1.Journal[0].Class != EvShed {
		t.Fatalf("b1 journal = %+v", b1.Journal)
	}
	// b2's journal: the EvBundleCaptured from b1 plus the breaker open.
	classes := b2.FindClasses(EvShed, EvBreakerOpen, EvBundleCaptured)
	if len(classes[EvShed]) != 0 {
		t.Fatalf("b2 re-serialized b1's events: %+v", b2.Journal)
	}
	if len(classes[EvBreakerOpen]) != 1 || len(classes[EvBundleCaptured]) != 1 {
		t.Fatalf("b2 journal = %+v", b2.Journal)
	}
	if len(b1.Spans[trace.PlaneRIC]) != 1 || b1.Spans[trace.PlaneRIC][0].SpanID != 1 {
		t.Fatalf("b1 spans = %+v", b1.Spans)
	}
	if len(b2.Spans[trace.PlaneRIC]) != 1 || b2.Spans[trace.PlaneRIC][0].SpanID != 2 {
		t.Fatalf("b2 spans = %+v", b2.Spans)
	}
}

func TestCaptureDebounceAndRetention(t *testing.T) {
	rec := NewRecorder(64)
	now := time.Unix(5000, 0)
	cap := testCapturer(t, rec, func(c *CapturerConfig) {
		c.Debounce = 10 * time.Second
		c.Now = func() time.Time { return now }
	})

	if b, err := cap.Capture("first"); err != nil || b == nil {
		t.Fatalf("first capture: %v %v", b, err)
	}
	// Inside the debounce window: suppressed, counted.
	now = now.Add(time.Second)
	if b, err := cap.Capture("flap"); err != nil || b != nil {
		t.Fatalf("debounced capture returned %v %v", b, err)
	}
	if cap.Suppressed() != 1 {
		t.Fatalf("suppressed = %d, want 1", cap.Suppressed())
	}
	// Past the window: captured, and the bundle reports the folded count.
	now = now.Add(time.Minute)
	b, err := cap.Capture("second")
	if err != nil || b == nil {
		t.Fatal(err)
	}
	if b.Suppressed != 1 {
		t.Fatalf("bundle suppressed = %d, want 1", b.Suppressed)
	}

	// Retention: the bundle past the cap must evict the first file.
	for i := 2; i <= maxBundles; i++ {
		now = now.Add(time.Minute)
		if _, err := cap.CaptureNow(fmt.Sprint("more-", i)); err != nil {
			t.Fatal(err)
		}
	}
	idx := cap.Index()
	if len(idx) != maxBundles {
		t.Fatalf("index len = %d, want cap %d", len(idx), maxBundles)
	}
	if idx[0].Reason != "second" || idx[len(idx)-1].Reason != fmt.Sprint("more-", maxBundles) {
		t.Fatalf("index = %+v", idx)
	}
	files, err := filepath.Glob(filepath.Join(filepath.Dir(idx[0].File), "bundle-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != maxBundles {
		t.Fatalf("retained files = %v, want %d", files, maxBundles)
	}
}

func TestCapturerRunConsumesTriggers(t *testing.T) {
	rec := NewRecorder(64)
	rec.SetTriggers(EvBreakerOpen)
	cap := testCapturer(t, rec, nil)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); cap.Run(stop) }()

	rec.Record(Event{Class: EvBreakerOpen, Plane: PlaneGNB, Detail: "xapp=slow", TimeNs: 1})
	deadline := time.After(5 * time.Second)
	for len(cap.Index()) == 0 {
		select {
		case <-deadline:
			t.Fatal("trigger did not produce a bundle")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	<-done
	idx := cap.Index()
	if idx[0].Reason != "class:"+EvBreakerOpen.String() {
		t.Fatalf("reason = %q", idx[0].Reason)
	}
}

// TestCapturerRunCapturesDebouncedTrigger: a trigger that lands inside the
// debounce window is captured once the window closes, in a second bundle
// whose journal holds it and which reports the trigger it folded in.
func TestCapturerRunCapturesDebouncedTrigger(t *testing.T) {
	rec := NewRecorder(64)
	rec.SetTriggers(EvBreakerOpen)
	cap := testCapturer(t, rec, func(c *CapturerConfig) { c.Debounce = 50 * time.Millisecond })
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); cap.Run(stop) }()
	defer func() { close(stop); <-done }()

	waitBundles := func(n int) []BundleInfo {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			if idx := cap.Index(); len(idx) >= n {
				return idx
			}
			select {
			case <-deadline:
				t.Fatalf("%d bundles after 5s, want %d", len(cap.Index()), n)
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	rec.Record(Event{Class: EvBreakerOpen, Plane: PlaneGNB, Detail: "first"})
	waitBundles(1)
	rec.Record(Event{Class: EvBreakerOpen, Plane: PlaneGNB, Detail: "second"})
	idx := waitBundles(2)

	b, err := ReadBundle(idx[1].File)
	if err != nil {
		t.Fatal(err)
	}
	if b.Suppressed != 1 {
		t.Fatalf("second bundle folded in %d triggers, want 1", b.Suppressed)
	}
	found := false
	for _, ev := range b.Journal {
		found = found || (ev.Class == EvBreakerOpen && ev.Detail == "second")
	}
	if !found {
		t.Fatalf("second bundle's journal lacks the debounced trigger: %+v", b.Journal)
	}
}

func TestCapturerValidation(t *testing.T) {
	if _, err := NewCapturer(nil, CapturerConfig{Dir: t.TempDir()}); err == nil {
		t.Fatal("nil recorder accepted")
	}
	if _, err := NewCapturer(NewRecorder(8), CapturerConfig{}); err == nil {
		t.Fatal("empty dir accepted")
	}
	if got := sanitizeReason("class:ric.shed/../x"); strings.ContainsAny(got, "/:") {
		t.Fatalf("sanitizeReason left unsafe chars: %q", got)
	}
}
