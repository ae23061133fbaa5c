// Package guard is the plugin lifecycle supervisor: it watches every call a
// Wasm intra-slice scheduler serves, meters failures by class
// (wabi.FailureClass), opens a circuit breaker when the plugin's health
// degrades, refuses the plugin while the breaker is open (the slice's native
// fallback serves those slots), probes for recovery after a backoff, and
// manages canary hot-swaps with shadow validation, probation and automatic
// rollback to the last-known-good scheduler. The slot loop keeps its 1 ms
// deadline throughout: a quarantined plugin costs the slice nothing but the
// fallback's (native) decision time.
package guard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"waran/internal/wabi"
)

// State is the circuit breaker state.
type State int

// Breaker states. Closed admits every call; Open rejects all calls until a
// backoff elapses; HalfOpen admits one probe call at a time.
const (
	Closed State = iota
	Open
	HalfOpen
)

// String returns the conventional lowercase label.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// BreakerConfig tunes one plugin's circuit breaker. The zero value gets
// defaults suitable for a 1 ms slot cadence: a 32-slot outcome window that
// opens at a 50% failure rate, 50 ms initial backoff doubling to 1 s, and 3
// consecutive probe successes to close again.
type BreakerConfig struct {
	// Window is the sliding outcome window length (default 32).
	Window int
	// MinSamples is how many outcomes the window needs before the failure
	// rate is acted on (default 8) — a single early trap must not quarantine
	// a plugin that has served nothing else.
	MinSamples int
	// Backoff is the initial open→half-open delay (default 50 ms). Every
	// failed half-open probe doubles it, up to MaxBackoff.
	Backoff time.Duration
	// MaxBackoff caps the doubling (default 1 s).
	MaxBackoff time.Duration
	// Now is the clock; nil means time.Now. Experiments inject a virtual
	// slot clock so breaker timing is deterministic in slot units.
	Now func() time.Time
}

const (
	// openFailureRate opens the breaker when the window's failure fraction
	// reaches it.
	openFailureRate = 0.5
	// probeSuccesses is how many consecutive half-open probes must succeed
	// to close the breaker.
	probeSuccesses = 3
)

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a sliding-window circuit breaker keyed on wabi failure classes.
// Callers ask Allow before invoking the plugin and Record the classified
// outcome after; the breaker never invokes anything itself. Safe for
// concurrent use — parallel cells sharing one plugin share one breaker, and
// each outcome is recorded exactly once by whichever cell observed it.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	closed   atomic.Bool         // state == Closed, for Allow's lock-free fast path
	window   []wabi.FailureClass // ring buffer of recent outcomes
	head     int
	count    int
	fails    int // failures currently in the window
	backoff  time.Duration
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	probeOK  int  // consecutive successful probes

	opens      uint64
	reopens    uint64
	probes     uint64
	probeFails uint64
	rejects    uint64
	byClass    map[wabi.FailureClass]uint64

	// onTransition, when set, observes every state change. It is invoked
	// with the breaker lock held: implementations must be non-blocking and
	// must not call back into the breaker (the flight recorder's lock-free
	// Record satisfies both).
	onTransition func(from, to State)
}

// NewBreaker creates a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	b := &Breaker{
		cfg:     cfg,
		window:  make([]wabi.FailureClass, cfg.Window),
		backoff: cfg.Backoff,
		byClass: make(map[wabi.FailureClass]uint64),
	}
	b.closed.Store(true)
	return b
}

// SetTransitionHook installs fn to observe every state change (nil removes
// it). fn runs with the breaker lock held: it must be non-blocking and must
// not call back into the breaker.
func (b *Breaker) SetTransitionHook(fn func(from, to State)) {
	b.mu.Lock()
	b.onTransition = fn
	b.mu.Unlock()
}

// shift moves the breaker to state to, notifying the hook; callers hold mu.
func (b *Breaker) shift(to State) {
	from := b.state
	b.state = to
	b.closed.Store(to == Closed)
	if b.onTransition != nil && from != to {
		b.onTransition(from, to)
	}
}

// State returns the current breaker state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow reports whether the caller may invoke the plugin now. Closed admits
// everything. Open admits nothing until the backoff has elapsed, at which
// point the breaker turns half-open and admits a single probe; further
// callers are rejected until that probe's outcome is recorded. A closed
// breaker answers without taking its lock: a call admitted just before a
// trip is a straggler Record already handles.
func (b *Breaker) Allow() bool {
	if b.closed.Load() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.cfg.Now().Sub(b.openedAt) < b.backoff {
			b.rejects++
			return false
		}
		b.shift(HalfOpen)
		b.probing = true
		b.probeOK = 0
		b.probes++
		return true
	default: // HalfOpen
		if b.probing {
			b.rejects++
			return false
		}
		b.probing = true
		b.probes++
		return true
	}
}

// Record feeds one classified call outcome back (FailNone for success). Every
// Allow()==true call must be followed by exactly one Record.
func (b *Breaker) Record(class wabi.FailureClass) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.record(class)
}

// record is Record for a caller holding mu.
func (b *Breaker) record(class wabi.FailureClass) {
	if class != wabi.FailNone {
		b.byClass[class]++
	}
	switch b.state {
	case HalfOpen:
		b.probing = false
		if class == wabi.FailNone {
			b.probeOK++
			if b.probeOK >= probeSuccesses {
				b.close()
			}
			return
		}
		// Probe failed: back to open with a doubled (capped) backoff, so a
		// plugin that keeps failing is probed geometrically less often.
		b.probeFails++
		b.reopens++
		b.backoff *= 2
		if b.backoff > b.cfg.MaxBackoff {
			b.backoff = b.cfg.MaxBackoff
		}
		b.shift(Open)
		b.openedAt = b.cfg.Now()
	case Closed:
		b.push(class)
		if b.count >= b.cfg.MinSamples && b.failureRate() >= openFailureRate {
			b.shift(Open)
			b.opens++
			b.openedAt = b.cfg.Now()
		}
	default: // Open: a straggler finishing after the trip; count only.
	}
}

// push adds one outcome to the window ring.
func (b *Breaker) push(class wabi.FailureClass) {
	if b.count == len(b.window) {
		if b.window[b.head] != wabi.FailNone {
			b.fails--
		}
	} else {
		b.count++
	}
	b.window[b.head] = class
	if class != wabi.FailNone {
		b.fails++
	}
	b.head = (b.head + 1) % len(b.window)
}

// failureRate is the window's failure fraction; callers hold mu.
func (b *Breaker) failureRate() float64 {
	if b.count == 0 {
		return 0
	}
	return float64(b.fails) / float64(b.count)
}

// close resets to a healthy closed state; callers hold mu.
func (b *Breaker) close() {
	b.shift(Closed)
	b.probing = false
	b.probeOK = 0
	b.backoff = b.cfg.Backoff
	b.head, b.count, b.fails = 0, 0, 0
}

// Reset forces the breaker closed with a cleared window and initial backoff.
// Cumulative counters are preserved. Used after a validated hot-swap: the
// new plugin starts with a clean slate.
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.close()
}

// Health scores the plugin 0..1 as one minus the window failure rate; an
// empty window is perfect health.
func (b *Breaker) Health() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return 1 - b.failureRate()
}

// BreakerStats is the flat snapshot of a Breaker.
type BreakerStats struct {
	State           string            `json:"state"`
	Health          float64           `json:"health"`
	BackoffMs       float64           `json:"backoff_ms"`
	Opens           uint64            `json:"opens"`
	Reopens         uint64            `json:"reopens"`
	Probes          uint64            `json:"probes"`
	ProbeFails      uint64            `json:"probe_fails"`
	Rejects         uint64            `json:"rejects"`
	FailuresByClass map[string]uint64 `json:"failures_by_class,omitempty"`
}

// Stats returns current breaker accounting.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	by := make(map[string]uint64, len(b.byClass))
	for c, n := range b.byClass {
		by[c.String()] = n
	}
	return BreakerStats{
		State:           b.state.String(),
		Health:          1 - b.failureRate(),
		BackoffMs:       float64(b.backoff.Nanoseconds()) / 1e6,
		Opens:           b.opens,
		Reopens:         b.reopens,
		Probes:          b.probes,
		ProbeFails:      b.probeFails,
		Rejects:         b.rejects,
		FailuresByClass: by,
	}
}

// FailureCount returns the cumulative count recorded for one class.
func (b *Breaker) FailureCount(class wabi.FailureClass) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.byClass[class]
}
