package main

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"testing"
	"time"

	"waran/internal/e2"
	"waran/internal/obs"
	"waran/internal/plugins"
	"waran/internal/ric"
	"waran/internal/wabi"
)

func TestParseRate(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"3M", 3e6, true},
		{"12M", 12e6, true},
		{"1.5G", 1.5e9, true},
		{"500k", 5e5, true},
		{"500K", 5e5, true},
		{"1000", 1000, true},
		{"", 0, false},
		{"abcM", 0, false},
	}
	for _, tc := range cases {
		got, err := parseRate(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("parseRate(%q): err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("parseRate(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseSlice(t *testing.T) {
	name, rate, err := parseSlice(" pf:15M ")
	if err != nil || name != "pf" || rate != 15e6 {
		t.Fatalf("got %q %v %v", name, rate, err)
	}
	if _, _, err := parseSlice("pf"); err == nil {
		t.Fatal("missing rate accepted")
	}
	if _, _, err := parseSlice("bogus:1M"); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestBuildCodec(t *testing.T) {
	c, err := buildCodec("binary", false)
	if err != nil || c.Name() != "binary" {
		t.Fatalf("got %v %v", c, err)
	}
	shimmed, err := buildCodec("varint", true)
	if err != nil {
		t.Fatal(err)
	}
	if shimmed.Name() != "varint+plugin:widen8to12" {
		t.Fatalf("shimmed codec = %q", shimmed.Name())
	}
	if _, err := buildCodec("asn1", false); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

// TestStandaloneRunSmoke drives the whole binary path for a short run.
func TestStandaloneRunSmoke(t *testing.T) {
	cfg := gnbConfig{
		sliceSpec:   "mt:2M,rr:4M",
		uesPerSlice: 2,
		duration:    200 * time.Millisecond,
		codecName:   "binary",
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestServeObservabilityE2E runs a 2-cell gNB with an E2 association to an
// in-process RIC for >= 1000 slots, scraping /metrics and /debug/slots over
// HTTP while the server is still up, and asserts every instrument class of
// the observability layer is present: slot latency, fuel, scheduler calls,
// pool, module cache, deadline watchdog, and E2 association counters.
func TestServeObservabilityE2E(t *testing.T) {
	// In-process near-RT RIC on a loopback listener.
	r, err := ric.New(ric.Config{ReportPeriodMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddXAppWAT("sla", plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
		t.Fatal(err)
	}
	lis, err := e2.Listen("127.0.0.1:0", e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	ricDone := make(chan struct{})
	ricSess, err := ric.NewSession(ric.SessionConfig{RIC: r, Connect: lis.Accept})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(ricDone)
		ricSess.Run(stop)
	}()
	defer func() {
		close(stop)
		lis.Close()
		<-ricDone
	}()

	const slots = 1100 // 1 ms slots -> 1.1 s simulated
	var httpAddr, metricsText, slotsBody string
	cfg := gnbConfig{
		sliceSpec:   "mt:2M,rr:4M",
		uesPerSlice: 2,
		cells:       2,
		duration:    slots * time.Millisecond,
		e2Addr:      lis.Addr().String(),
		codecName:   "binary",
		liveness:    500 * time.Millisecond,
		httpAddr:    "127.0.0.1:0",
		onReady:     func(addr string) { httpAddr = addr },
		afterRun: func() {
			metricsText = httpGet(t, "http://"+httpAddr+"/metrics")
			slotsBody = httpGet(t, "http://"+httpAddr+"/debug/slots?n=16")
		},
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	if httpAddr == "" {
		t.Fatal("onReady never fired")
	}

	// Series that must be populated (value > 0) after >= 1000 slots.
	for series, want := range map[string]float64{
		`waran_slot_latency_us_count{cell="0"}`:      slots,
		`waran_slot_latency_us_count{cell="1"}`:      slots,
		`waran_cell_deadline_slots_total{cell="0"}`:  slots,
		`waran_plugin_fuel_per_call_count{cell="0"}`: 1,
		`waran_sched_calls_total{slice="1"}`:         1,
		`waran_wabi_pool_gets_total{slice="1"}`:      1,
	} {
		if v := metricValue(t, metricsText, series); v < want {
			t.Errorf("%s = %v, want >= %v", series, v, want)
		}
	}
	// Series that must at least be exposed (zero is fine on a clean link).
	for _, series := range []string{
		"waran_wabi_module_cache_hits_total",
		"waran_wabi_module_cache_misses_total",
		"waran_e2_assoc_reconnects_total",
		"waran_e2_assoc_dropped_indications_total",
		"waran_slot_overruns_total",
		"waran_slice_fallback_slots_total",
		"waran_sched_granted_prbs_total",
	} {
		if !regexp.MustCompile(regexp.QuoteMeta(series)).MatchString(metricsText) {
			t.Errorf("exposition missing %s", series)
		}
	}

	var slotsResp struct {
		Count int             `json:"count"`
		Slots []obs.SlotEvent `json:"slots"`
	}
	if err := json.Unmarshal([]byte(slotsBody), &slotsResp); err != nil {
		t.Fatalf("bad /debug/slots payload: %v\n%s", err, slotsBody)
	}
	if slotsResp.Count != 16 || len(slotsResp.Slots) != 16 {
		t.Fatalf("/debug/slots?n=16 returned %d events", slotsResp.Count)
	}
	last := slotsResp.Slots[len(slotsResp.Slots)-1]
	if len(last.Slices) != 2 || last.WallUs <= 0 {
		t.Fatalf("trace event not populated: %+v", last)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}

// metricValue extracts one series' value from Prometheus text exposition.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(series) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Errorf("series %s not found in exposition", series)
		return 0
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %s has bad value %q: %v", series, m[1], err)
	}
	return v
}
