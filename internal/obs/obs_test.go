package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"waran/internal/metrics"
)

func TestCounterGaugeHistogram(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}

	var g Gauge
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2.0 {
		t.Fatalf("gauge = %v, want 2.0", g.Value())
	}

	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Stats()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("histogram stats = %+v", s)
	}
	if s.Sum != 5050 {
		t.Fatalf("sum = %v, want 5050", s.Sum)
	}
	if s.P50 < 40 || s.P50 > 60 {
		t.Fatalf("p50 = %v, want ~50", s.P50)
	}
	h.ObserveDuration(2 * time.Millisecond)
	if got := h.Stats().Max; got != 2000 {
		t.Fatalf("ObserveDuration recorded %v us, want 2000", got)
	}
}

func TestRegistryRegisterAndLookup(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("waran_test_total", "test counter", L("cell", "0"))
	c2 := reg.Counter("waran_test_total", "test counter", L("cell", "0"))
	if c1 != c2 {
		t.Fatal("get-or-create returned distinct counters for the same series")
	}
	c3 := reg.Counter("waran_test_total", "test counter", L("cell", "1"))
	if c1 == c3 {
		t.Fatal("distinct labels must yield distinct series")
	}
	if reg.Len() != 2 {
		t.Fatalf("Len = %d, want 2", reg.Len())
	}
	if err := reg.Register("waran_test_total", "dup", &Counter{}, L("cell", "0")); err == nil {
		t.Fatal("duplicate Register must fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	reg.Gauge("waran_test_total", "wrong kind", L("cell", "0"))
}

func TestRegistrySnapshotAndPrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("waran_events_total", "events", L("cell", "0")).Add(7)
	reg.Gauge("waran_depth", "queue depth").Set(3)
	h := reg.Histogram("waran_lat_us", "latency", L("cell", "0"))
	for i := 0; i < 50; i++ {
		h.Observe(float64(i))
	}
	m := metrics.NewDeadlineMeter(time.Millisecond)
	m.Observe(500 * time.Microsecond)
	m.Observe(2 * time.Millisecond)
	reg.MustRegister("waran_deadline", "slot deadline accounting", DeadlineInstrument(m), L("cell", "0"))

	snap := reg.Snapshot()
	if got := snap[`waran_events_total{cell="0"}`]; got != uint64(7) {
		t.Fatalf("snapshot counter = %v (%T), want 7", got, got)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}

	text := promText(t, reg)
	for _, want := range []string{
		"# HELP waran_events_total events",
		"# TYPE waran_events_total counter",
		`waran_events_total{cell="0"} 7`,
		"# TYPE waran_depth gauge",
		"waran_depth 3",
		"# TYPE waran_lat_us summary",
		`waran_lat_us{cell="0",quantile="0.5"}`,
		`waran_lat_us_count{cell="0"} 50`,
		`waran_deadline_slots_total{cell="0"} 2`,
		`waran_deadline_overruns_total{cell="0"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	if strings.Contains(text, "# TYPE waran_deadline") {
		t.Error("untyped instrument must not emit a TYPE line")
	}
}

// TestRegistryConcurrent hammers registration and collection from many
// goroutines; run under -race it proves the registry and instruments are
// safe to scrape while every subsystem updates.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cell := []string{"0", "1", "2"}[id%3]
			c := reg.Counter("waran_conc_total", "c", L("cell", cell))
			g := reg.Gauge("waran_conc_depth", "g", L("cell", cell))
			h := reg.Histogram("waran_conc_lat_us", "h", L("cell", cell))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 100))
			}
		}(w)
	}
	// Concurrent scrapers.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = reg.WritePrometheus(io.Discard)
				_ = reg.Snapshot()
			}
		}()
	}
	wg.Wait()

	var total uint64
	for _, cell := range []string{"0", "1", "2"} {
		total += reg.Counter("waran_conc_total", "c", L("cell", cell)).Value()
	}
	if total != workers*iters {
		t.Fatalf("counter total = %d, want %d", total, workers*iters)
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(4)
	if r.Len() != 0 {
		t.Fatalf("empty ring Len = %d", r.Len())
	}
	for i := 0; i < 6; i++ {
		r.Add(SlotEvent{Slot: uint64(i), Cell: i % 2, WallUs: int64(i * 10)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	last := r.Last(0)
	if len(last) != 4 || last[0].Slot != 2 || last[3].Slot != 5 {
		t.Fatalf("Last(0) = %+v", last)
	}
	two := r.Last(2)
	if len(two) != 2 || two[0].Slot != 4 || two[1].Slot != 5 {
		t.Fatalf("Last(2) = %+v", two)
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(64)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(cell int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Add(SlotEvent{Slot: uint64(i), Cell: cell})
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = r.Last(16)
			_ = r.Len()
		}
	}()
	wg.Wait()
	if r.Len() != 64 {
		t.Fatalf("Len = %d, want 64", r.Len())
	}
}

func TestHTTPEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("waran_http_total", "hits").Add(3)
	ring := NewTraceRing(8)
	ring.Add(SlotEvent{Slot: 1, Cell: 0, WallUs: 42})
	srv := httptest.NewServer(NewMux(reg, ring))
	defer srv.Close()

	body := httpGet(t, srv.URL+"/metrics")
	if !strings.Contains(body, "waran_http_total 3") {
		t.Fatalf("/metrics body:\n%s", body)
	}

	var resp struct {
		Count int         `json:"count"`
		Slots []SlotEvent `json:"slots"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/debug/slots")), &resp); err != nil {
		t.Fatalf("decode /debug/slots: %v", err)
	}
	if resp.Count != 1 || len(resp.Slots) != 1 || resp.Slots[0].WallUs != 42 {
		t.Fatalf("/debug/slots = %+v", resp)
	}

	// nil ring serves an empty list rather than panicking.
	srv2 := httptest.NewServer(NewMux(NewRegistry(), nil))
	defer srv2.Close()
	if err := json.Unmarshal([]byte(httpGet(t, srv2.URL+"/debug/slots?n=5")), &resp); err != nil {
		t.Fatalf("decode empty /debug/slots: %v", err)
	}
	if resp.Count != 0 || resp.Slots == nil {
		t.Fatalf("empty /debug/slots = %+v", resp)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, res.StatusCode)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(body)
}

func TestGaugeAddNaNSafety(t *testing.T) {
	var g Gauge
	g.Set(math.Inf(1))
	g.Add(1)
	if !math.IsInf(g.Value(), 1) {
		t.Fatalf("gauge = %v", g.Value())
	}
}

// TestRegistrySnapshotHeader checks the reserved _snapshot entry: present in
// every Snapshot with a plausible timestamp, a per-registry monotonic
// sequence, and zero effect on the Prometheus exposition (byte-identical
// across snapshots, no reserved key leaking into it).
func TestRegistrySnapshotHeader(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("waran_events_total", "events").Add(3)

	before := promText(t, reg)
	s1 := reg.Snapshot()
	s2 := reg.Snapshot()
	after := promText(t, reg)

	h1, ok := s1[SnapshotHeaderKey].(SnapshotHeader)
	if !ok {
		t.Fatalf("snapshot missing %s header: %T", SnapshotHeaderKey, s1[SnapshotHeaderKey])
	}
	h2 := s2[SnapshotHeaderKey].(SnapshotHeader)
	if h1.UnixNanos <= 0 || h2.UnixNanos < h1.UnixNanos {
		t.Fatalf("header timestamps not plausible: %d then %d", h1.UnixNanos, h2.UnixNanos)
	}
	if h2.Seq != h1.Seq+1 {
		t.Fatalf("header seq not monotonic: %d then %d", h1.Seq, h2.Seq)
	}
	if before != after {
		t.Fatalf("taking snapshots changed the Prometheus exposition:\n%s\nvs\n%s", before, after)
	}
	if strings.Contains(after, SnapshotHeaderKey) {
		t.Fatalf("reserved snapshot key leaked into the exposition:\n%s", after)
	}

	// The header must serialize alongside the series.
	raw, err := json.Marshal(s1)
	if err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
	if !strings.Contains(string(raw), `"unix_nanos"`) || !strings.Contains(string(raw), `"seq"`) {
		t.Fatalf("marshaled snapshot missing header fields: %s", raw)
	}
}

// promText renders reg's exposition text.
func promText(t *testing.T, reg *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
