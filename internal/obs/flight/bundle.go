package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"waran/internal/obs"
	"waran/internal/obs/trace"
)

// Bundle is one diagnostic capture: everything an operator needs to answer
// "what happened in the window around the incident", serialized as a single
// JSON file.
type Bundle struct {
	// Seq is the capturer-assigned bundle number (1-based).
	Seq uint64 `json:"seq"`
	// CapturedNs is the wall-clock unix-nanos of the capture.
	CapturedNs int64 `json:"captured_unix_nanos"`
	// Reason says what pulled the trigger: "class:<event class>",
	// "detector:<slo name>", or an explicit caller reason.
	Reason string `json:"reason"`
	// Suppressed counts triggers folded into this bundle by debounce since
	// the previous capture.
	Suppressed uint64 `json:"suppressed_since_last,omitempty"`
	// Journal is the incident's journal window (events since the previous
	// bundle, bounded by the recorder ring).
	Journal []Event `json:"journal"`
	// JournalGap is set when the ring overwrote events between this bundle
	// and the previous one (the first journal Seq is not contiguous).
	JournalGap bool `json:"journal_gap,omitempty"`
	// Detectors is every SLO detector's state at capture time.
	Detectors []DetectorState `json:"detectors,omitempty"`
	// Metrics is the obs registry snapshot (with its _snapshot header, so
	// two bundles' metrics diff into rates).
	Metrics map[string]any `json:"metrics,omitempty"`
	// Spans holds per-plane trace spans published since the previous
	// bundle (SnapshotSince cursors keep consecutive bundles disjoint).
	Spans map[string][]*trace.Span `json:"spans,omitempty"`
	// WasmProfile is the fuel profiler snapshot, when profiling is on.
	WasmProfile any `json:"wasm_profile,omitempty"`
	// Goroutines is the full goroutine dump.
	Goroutines string `json:"goroutines,omitempty"`
}

// BundleInfo is one index row of the retained-bundle index, served at
// /debug/flight.
type BundleInfo struct {
	Seq        uint64 `json:"seq"`
	CapturedNs int64  `json:"captured_unix_nanos"`
	Reason     string `json:"reason"`
	File       string `json:"file"`
	Bytes      int64  `json:"bytes"`
	Events     int    `json:"events"`
}

// CapturerConfig wires a Capturer to its sources and bounds its disk use.
type CapturerConfig struct {
	// Dir is the directory bundles are written into (created if missing).
	// It keeps the newest maxBundles files.
	Dir string
	// Debounce holds back captures closer than this to the previous one;
	// Run captures a held-back trigger when the window closes, with the
	// suppressed count folded in. Default 5s.
	Debounce time.Duration
	// GoroutineDump bounds the goroutine dump size in bytes (0 = default
	// 1 MiB, negative = omit the dump).
	GoroutineDump int

	// Registry, Detectors, Tracer and Profile are the optional snapshot
	// sources; any of them may be nil.
	Registry  *obs.Registry
	Detectors *DetectorSet
	Tracer    *trace.Tracer
	Profile   obs.WasmProfileSource

	// Now is the clock (nil = time.Now), injectable for tests.
	Now func() time.Time
}

// Capturer turns trigger pokes into bundles on disk. One goroutine (Run)
// consumes the recorder's trigger channel; explicit captures go through
// CaptureNow.
type Capturer struct {
	rec *Recorder
	cfg CapturerConfig

	mu          sync.Mutex
	bundleSeq   uint64
	lastCapture time.Time
	suppressed  uint64
	journalSeq  uint64            // last journal seq included in a bundle
	spanCursor  map[string]uint64 // plane -> last span ID included
	index       []BundleInfo
}

// NewCapturer builds a capturer for rec, creating cfg.Dir.
func NewCapturer(rec *Recorder, cfg CapturerConfig) (*Capturer, error) {
	if rec == nil {
		return nil, fmt.Errorf("flight: capturer needs a recorder")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("flight: capturer needs a bundle directory")
	}
	if cfg.Debounce <= 0 {
		cfg.Debounce = 5 * time.Second
	}
	if cfg.GoroutineDump == 0 {
		cfg.GoroutineDump = 1 << 20
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("flight: bundle dir: %w", err)
	}
	return &Capturer{rec: rec, cfg: cfg, spanCursor: make(map[string]uint64)}, nil
}

// Run consumes trigger pokes until stop closes. A trigger inside the
// debounce window is not lost: once the window closes Run captures it, in
// one bundle that reports how many triggers it folded in.
func (c *Capturer) Run(stop <-chan struct{}) {
	var due <-chan time.Time
	var pending string
	for {
		select {
		case <-stop:
			return
		case class := <-c.rec.TriggerC():
			reason := "class:" + class.String()
			if b, err := c.Capture(reason); b == nil && err == nil && due == nil {
				pending = reason
				due = c.retry(pending)
			}
		case <-due:
			due = c.retry(pending)
		}
	}
}

// retry captures the triggers the debounce window suppressed once it has
// closed, under reason. While the window is open it returns when to try
// again; once nothing is pending (captured here, or by a CaptureNow since)
// it returns nil.
func (c *Capturer) retry(reason string) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.suppressed == 0 {
		return nil
	}
	now := c.cfg.Now()
	if wait := c.lastCapture.Add(c.cfg.Debounce).Sub(now); wait > 0 {
		return time.After(wait)
	}
	// Run has no caller to report a failed write to, as with Capture.
	_, _ = c.captureLocked(now, reason)
	return nil
}

// Capture captures a bundle unless the debounce window suppresses it.
// Returns (nil, nil) when suppressed.
func (c *Capturer) Capture(reason string) (*Bundle, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	if !c.lastCapture.IsZero() && now.Sub(c.lastCapture) < c.cfg.Debounce {
		c.suppressed++
		return nil, nil
	}
	return c.captureLocked(now, reason)
}

// CaptureNow captures unconditionally (explicit operator/experiment ask;
// debounce does not apply, but the suppressed count is still folded in).
func (c *Capturer) CaptureNow(reason string) (*Bundle, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.captureLocked(c.cfg.Now(), reason)
}

func (c *Capturer) captureLocked(now time.Time, reason string) (*Bundle, error) {
	c.bundleSeq++
	b := &Bundle{
		Seq:        c.bundleSeq,
		CapturedNs: now.UnixNano(),
		Reason:     reason,
		Suppressed: c.suppressed,
	}
	c.suppressed = 0
	c.lastCapture = now

	b.Journal = c.rec.SnapshotSince(c.journalSeq)
	if len(b.Journal) > 0 {
		b.JournalGap = c.journalSeq != 0 && b.Journal[0].Seq != c.journalSeq+1
		c.journalSeq = b.Journal[len(b.Journal)-1].Seq
	}
	if c.cfg.Detectors != nil {
		b.Detectors = c.cfg.Detectors.States()
	}
	if c.cfg.Registry != nil {
		b.Metrics = c.cfg.Registry.Snapshot()
	}
	if c.cfg.Tracer != nil {
		b.Spans = make(map[string][]*trace.Span)
		for _, plane := range c.cfg.Tracer.Planes() {
			ring := c.cfg.Tracer.Ring(plane)
			spans := ring.SnapshotSince(c.spanCursor[plane])
			if len(spans) > 0 {
				c.spanCursor[plane] = spans[len(spans)-1].SpanID
				b.Spans[plane] = spans
			}
		}
	}
	if c.cfg.Profile != nil {
		b.WasmProfile = c.cfg.Profile.ProfileJSON()
	}
	if c.cfg.GoroutineDump > 0 {
		buf := make([]byte, c.cfg.GoroutineDump)
		b.Goroutines = string(buf[:runtime.Stack(buf, true)])
	}

	info, err := c.writeLocked(b)
	if err != nil {
		return nil, err
	}
	c.index = append(c.index, info)
	c.pruneLocked()
	// The capture itself is journal-worthy: the NEXT bundle's window shows
	// when and why this one was cut. Recorded after the journal snapshot
	// so a bundle never contains its own capture event.
	c.rec.Record(Event{
		Class: EvBundleCaptured, Plane: PlaneFlight, TimeNs: now.UnixNano(),
		Detail: filepath.Base(info.File),
	})
	return b, nil
}

// sanitizeReason keeps bundle file names shell- and URL-friendly.
func sanitizeReason(reason string) string {
	var sb strings.Builder
	for _, r := range reason {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			sb.WriteRune(r)
		default:
			sb.WriteByte('-')
		}
	}
	s := sb.String()
	if len(s) > 48 {
		s = s[:48]
	}
	if s == "" {
		s = "manual"
	}
	return s
}

func (c *Capturer) writeLocked(b *Bundle) (BundleInfo, error) {
	name := fmt.Sprintf("bundle-%06d-%s.json", b.Seq, sanitizeReason(b.Reason))
	path := filepath.Join(c.cfg.Dir, name)
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return BundleInfo{}, fmt.Errorf("flight: marshal bundle: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return BundleInfo{}, fmt.Errorf("flight: write bundle: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return BundleInfo{}, fmt.Errorf("flight: publish bundle: %w", err)
	}
	return BundleInfo{
		Seq: b.Seq, CapturedNs: b.CapturedNs, Reason: b.Reason,
		File: path, Bytes: int64(len(data)), Events: len(b.Journal),
	}, nil
}

// maxBundles caps retained bundle files; the oldest is deleted when the cap
// is exceeded.
const maxBundles = 8

// pruneLocked enforces the retained-bundle cap, deleting oldest first.
func (c *Capturer) pruneLocked() {
	for len(c.index) > maxBundles {
		old := c.index[0]
		c.index = c.index[1:]
		_ = os.Remove(old.File)
	}
}

// Index returns the retained-bundle index, oldest first.
func (c *Capturer) Index() []BundleInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]BundleInfo(nil), c.index...)
}

// Suppressed reports triggers debounced since the last capture.
func (c *Capturer) Suppressed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.suppressed
}

// Lookup resolves a bundle seq to its index row.
func (c *Capturer) Lookup(seq uint64) (BundleInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, info := range c.index {
		if info.Seq == seq {
			return info, true
		}
	}
	return BundleInfo{}, false
}

// ReadBundle loads a bundle file back — the test/experiment half of the
// round trip, and the programmatic consumer of downloaded bundles.
func ReadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("flight: parse bundle %s: %w", filepath.Base(path), err)
	}
	return &b, nil
}

// FindClasses reports which of the wanted classes appear in the bundle's
// journal, in first-occurrence order — the experiment's causal-chain check.
func (b *Bundle) FindClasses(wanted ...Class) map[Class][]Event {
	out := make(map[Class][]Event)
	for _, ev := range b.Journal {
		for _, w := range wanted {
			if ev.Class == w {
				out[w] = append(out[w], ev)
			}
		}
	}
	return out
}
