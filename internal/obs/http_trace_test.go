package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"waran/internal/obs/trace"
)

func decodeSlots(t *testing.T, body []byte) (int, []SlotEvent) {
	t.Helper()
	var resp struct {
		Count int         `json:"count"`
		Slots []SlotEvent `json:"slots"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	return resp.Count, resp.Slots
}

func TestSlotsHandlerFilters(t *testing.T) {
	ring := NewTraceRing(256)
	for i := 0; i < 100; i++ {
		ring.Add(SlotEvent{Slot: uint64(i), Cell: i % 4})
	}
	cases := []struct {
		name      string
		url       string
		status    int
		wantCount int
		wantCell  int // -1 = mixed
	}{
		{"default", "/debug/slots", 200, 64, -1},
		{"explicit n", "/debug/slots?n=10", 200, 10, -1},
		{"n above ring", "/debug/slots?n=1000", 200, 100, -1},
		{"n above hard cap", "/debug/slots?n=99999", 200, 100, -1},
		{"cell filter", "/debug/slots?cell=2", 200, 25, 2},
		{"cell plus n", "/debug/slots?cell=1&n=5", 200, 5, 1},
		{"cell with no events", "/debug/slots?cell=9", 200, 0, -1},
		{"bad n", "/debug/slots?n=zero", 400, 0, -1},
		{"negative n", "/debug/slots?n=-3", 400, 0, -1},
		{"bad cell", "/debug/slots?cell=x", 400, 0, -1},
		{"negative cell", "/debug/slots?cell=-1", 400, 0, -1},
	}
	h := SlotsHandler(ring)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", tc.url, nil))
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d", rec.Code, tc.status)
			}
			if tc.status != 200 {
				return
			}
			count, slots := decodeSlots(t, rec.Body.Bytes())
			if count != tc.wantCount || len(slots) != tc.wantCount {
				t.Fatalf("count %d (len %d), want %d", count, len(slots), tc.wantCount)
			}
			if tc.wantCell >= 0 {
				for _, ev := range slots {
					if ev.Cell != tc.wantCell {
						t.Fatalf("event from cell %d, want %d", ev.Cell, tc.wantCell)
					}
				}
			}
		})
	}

	// Nil ring serves an empty list, not a panic.
	rec := httptest.NewRecorder()
	SlotsHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slots", nil))
	if count, _ := decodeSlots(t, rec.Body.Bytes()); count != 0 {
		t.Fatalf("nil ring served %d events", count)
	}
}

// TestSlotsHandlerCellFilterSeesStarvedCell pins the reason the cell filter
// scans the whole ring: a cell whose events are rare must still be visible
// even when other cells dominate the tail of the ring.
func TestSlotsHandlerCellFilterSeesStarvedCell(t *testing.T) {
	ring := NewTraceRing(128)
	ring.Add(SlotEvent{Slot: 1, Cell: 7})
	for i := 0; i < 100; i++ {
		ring.Add(SlotEvent{Slot: uint64(2 + i), Cell: 0})
	}
	rec := httptest.NewRecorder()
	SlotsHandler(ring).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slots?cell=7&n=4", nil))
	count, slots := decodeSlots(t, rec.Body.Bytes())
	if count != 1 || slots[0].Cell != 7 {
		t.Fatalf("starved cell invisible: count=%d slots=%+v", count, slots)
	}
}

func TestMetricsJSONHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("waran_test_total", "test counter").Add(3)
	rec := httptest.NewRecorder()
	MetricsJSONHandler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics.json", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var snap map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if _, ok := snap["waran_test_total"]; !ok {
		t.Fatalf("snapshot missing registered series: %v", snap)
	}
}

type fakeProfile struct{}

func (fakeProfile) ProfileJSON() any { return map[string]int{"funcs": 2} }
func (fakeProfile) Folded() string   { return "a;b 10\n" }

func TestWasmProfileHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	WasmProfileHandler(fakeProfile{}).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/wasm/profile", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "funcs") {
		t.Fatalf("JSON form: status %d body %q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	WasmProfileHandler(fakeProfile{}).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/wasm/profile?format=folded", nil))
	if rec.Body.String() != "a;b 10\n" {
		t.Fatalf("folded form: %q", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	WasmProfileHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/wasm/profile", nil))
	if rec.Code != 200 {
		t.Fatalf("nil source: status %d", rec.Code)
	}
}

// TestMuxMountsOptions proves the option-mounted endpoints and the always-on
// metrics.json surface are reachable through NewMux.
func TestMuxMountsOptions(t *testing.T) {
	reg := NewRegistry()
	tr := trace.NewTracer(16)
	mux := NewMux(reg, nil, WithTracer(tr), WithWasmProfile(fakeProfile{}))
	for _, url := range []string{"/metrics", "/debug/metrics.json", "/debug/slots", "/debug/trace", "/debug/wasm/profile"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Errorf("%s: status %d", url, rec.Code)
		}
	}
}
