package flight

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"waran/internal/obs"
)

func TestFlightHandler(t *testing.T) {
	rec := NewRecorder(64)
	ds := NewDetectorSet(rec)
	ds.MustAdd(quietSLO("x"), DetectorConfig{})
	cap := testCapturer(t, rec, nil)
	rec.Record(Event{Class: EvShed, Plane: PlaneRIC, Detail: "overflow", TimeNs: 1})
	if _, err := cap.CaptureNow("manual"); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(Handler(rec, ds, cap))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?n=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || len(st.Journal) < 1 || len(st.Detectors) != 1 || len(st.Bundles) != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.Journal[0].Class != EvShed {
		t.Fatalf("journal[0] = %+v", st.Journal[0])
	}

	if resp, _ := http.Get(srv.URL + "?n=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n accepted: %d", resp.StatusCode)
	}
}

func TestFlightHandlerNilRecorder(t *testing.T) {
	srv := httptest.NewServer(Handler(nil, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Enabled {
		t.Fatal("nil recorder reports enabled")
	}
}

func TestJournalHandlerBinary(t *testing.T) {
	rec := NewRecorder(64)
	rec.Record(Event{Class: EvShed, Plane: PlaneRIC, Detail: "overflow", TimeNs: 1})
	rec.Record(Event{Class: EvBreakerOpen, Plane: PlaneGNB, Detail: "xapp=slow", TimeNs: 2})
	srv := httptest.NewServer(JournalHandler(rec))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?format=binary")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	events, err := DecodeJournal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Class != EvBreakerOpen {
		t.Fatalf("binary journal = %+v", events)
	}

	resp, err = http.Get(srv.URL + "?since=1")
	if err != nil {
		t.Fatal(err)
	}
	var inc []Event
	if err := json.NewDecoder(resp.Body).Decode(&inc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(inc) != 1 || inc[0].Seq != 2 {
		t.Fatalf("since=1 = %+v", inc)
	}
}

func TestBundleHandlerDownload(t *testing.T) {
	rec := NewRecorder(64)
	cap := testCapturer(t, rec, nil)
	rec.Record(Event{Class: EvBrownoutShift, Detail: "normal->degraded", TimeNs: 1})
	if _, err := cap.CaptureNow("incident"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(BundleHandler(cap))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?seq=1")
	if err != nil {
		t.Fatal(err)
	}
	var b Bundle
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if b.Seq != 1 || len(b.Journal) != 1 || b.Journal[0].Detail != "normal->degraded" {
		t.Fatalf("downloaded bundle = %+v", b)
	}
	if resp, _ := http.Get(srv.URL + "?seq=99"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing bundle served: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(srv.URL); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing seq accepted: %d", resp.StatusCode)
	}
}

// TestConcurrentScrapeWhileJournaling is the -race coverage for the obs mux
// under a live flight recorder: /debug/slots, /debug/metrics.json and
// /debug/flight are scraped concurrently while slot events and journal
// events stream in.
func TestConcurrentScrapeWhileJournaling(t *testing.T) {
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(256)
	rec := NewRecorder(256)
	rec.Register(reg)
	ds := NewDetectorSet(rec)
	ds.MustAdd(quietSLO("x"), DetectorConfig{})
	cap := testCapturer(t, rec, func(c *CapturerConfig) { c.Registry = reg })

	mux := obs.NewMux(reg, ring, MuxOption(rec, ds, cap))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	stop := make(chan struct{})
	var writers sync.WaitGroup
	// Writer 1: slot events into the obs trace ring + a counter.
	writers.Add(1)
	go func() {
		defer writers.Done()
		c := reg.Counter("waran_scrape_test_total", "test stimulus")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				ring.Add(obs.SlotEvent{Slot: uint64(i), Cell: i % 4})
				c.Inc()
			}
		}
	}()
	// Writer 2: journal events, some through a capture.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				rec.Record(Event{Class: EvShed, Plane: PlaneRIC, Slot: uint64(i), TimeNs: 1})
				if i%64 == 0 {
					_, _ = cap.Capture("load")
				}
			}
		}
	}()

	var scrapers sync.WaitGroup
	for _, path := range []string{"/debug/slots?n=32", "/debug/metrics.json", "/debug/flight?n=32", "/metrics"} {
		for k := 0; k < 2; k++ {
			scrapers.Add(1)
			go func(path string) {
				defer scrapers.Done()
				for i := 0; i < 25; i++ {
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						t.Errorf("scrape %s: %v", path, err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("scrape %s: status %d", path, resp.StatusCode)
						return
					}
					if strings.HasSuffix(path, "metrics.json") && !strings.Contains(string(body), obs.SnapshotHeaderKey) {
						t.Errorf("metrics.json missing snapshot header")
						return
					}
				}
			}(path)
		}
	}
	scrapers.Wait()
	close(stop)
	writers.Wait()
}
