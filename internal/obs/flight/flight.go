// Package flight is WA-RAN's always-on incident journal: a fixed-memory,
// lock-free flight recorder that captures significant state transitions from
// every plane — slot deadline misses (core), breaker and canary transitions
// (guard), brownout shifts, sheds and admission refusals (ric), sandbox
// failure classes (wabi/wasm), and association lifecycle (e2) — as typed
// events.
//
// On top of the journal sit SLO burn-rate detectors (multi-window, in the
// Google SRE style) and a trigger pipeline: when a detector fires or an
// event of a trigger class lands, a Capturer snapshots everything an
// operator needs — journal window, metrics registry, trace-ring spans, wasm
// profile, goroutine dump — into one bundle file on disk, with debounce and
// a retained-bundle cap so a flapping incident cannot fill the disk.
//
// A nil *Recorder is a valid, fully disabled recorder: every method is a
// no-op and the disabled path costs one pointer comparison and zero
// allocations, the same discipline as trace.Tracer. Instrumentation sites
// therefore record unconditionally on rare transition edges and guard with
// Enabled() only where building the event itself would allocate.
package flight

import (
	"encoding/json"
	"fmt"
)

// Class is the closed taxonomy of journal event classes. The numbering is
// part of the binary codec format (see codec.go): append new classes at the
// end, never renumber.
type Class uint8

const (
	// EvNone is the zero class; decoding it is valid but recorders never
	// emit it.
	EvNone Class = iota

	// Core plane: the slot engine.

	// EvSlotDeadlineMiss: one cell overran its slot deadline budget.
	EvSlotDeadlineMiss
	// Classes 2 and 3 journaled the slot watchdog's retired fallback pin
	// and its release. Their numbers stay reserved (no name, never
	// emitted) so no later class is renumbered.
	_
	_

	// Guard plane: the plugin lifecycle supervisor.

	// EvBreakerOpen: a circuit breaker tripped open (detail names the
	// failure class distribution edge).
	EvBreakerOpen
	// EvBreakerHalfOpen: an open breaker's backoff elapsed; probing.
	EvBreakerHalfOpen
	// EvBreakerClose: a breaker closed after successful probes.
	EvBreakerClose
	// EvCanarySwap: a canary hot-swap was promoted after shadow replay.
	EvCanarySwap
	// EvRollback: a promoted module was rolled back to last-good during
	// probation.
	EvRollback

	// RIC plane: overload control and dispatch.

	// EvBrownoutShift: the brownout state machine changed level (detail is
	// the edge, e.g. "normal->degraded").
	EvBrownoutShift
	// EvShed: a queued indication left the dispatch path unserved (detail
	// is the shed reason: overflow, stale, teardown, refused-late).
	EvShed
	// EvAdmissionRefused: a subscription was refused at admission (detail
	// distinguishes token-bucket "busy" from "brownout-critical").
	EvAdmissionRefused

	// E2 plane: association lifecycle.

	// EvAssocUp: an E2 association was accepted.
	EvAssocUp
	// EvAssocDown: an E2 association ended (detail carries the error, if
	// any).
	EvAssocDown

	// Wasm plane: the sandbox.

	// EvSandboxFault: a plugin call failed; detail names the wabi failure
	// class.
	EvSandboxFault

	// Flight plane: the recorder's own pipeline.

	// EvDetectorFire: an SLO burn-rate detector started firing.
	EvDetectorFire
	// EvDetectorClear: a firing detector dropped back below its clear
	// threshold.
	EvDetectorClear
	// EvBundleCaptured: a diagnostic bundle was written (detail is the
	// bundle file name).
	EvBundleCaptured

	numClasses
)

// classNames maps Class to its stable string form (used in JSON and the
// HTTP surfaces). Indexed by Class.
var classNames = [numClasses]string{
	EvNone:             "none",
	EvSlotDeadlineMiss: "slot.deadline_miss",
	EvBreakerOpen:      "breaker.open",
	EvBreakerHalfOpen:  "breaker.half_open",
	EvBreakerClose:     "breaker.close",
	EvCanarySwap:       "canary.swap",
	EvRollback:         "canary.rollback",
	EvBrownoutShift:    "brownout.shift",
	EvShed:             "ric.shed",
	EvAdmissionRefused: "ric.admission_refused",
	EvAssocUp:          "e2.assoc_up",
	EvAssocDown:        "e2.assoc_down",
	EvSandboxFault:     "wasm.sandbox_fault",
	EvDetectorFire:     "slo.detector_fire",
	EvDetectorClear:    "slo.detector_clear",
	EvBundleCaptured:   "bundle.captured",
}

// Classes enumerates every event class in declaration order, EvNone and
// the reserved numbers excluded — the iteration surface for obs
// registration and the HTTP index.
func Classes() []Class {
	out := make([]Class, 0, int(numClasses)-1)
	for c := EvNone + 1; c < numClasses; c++ {
		if classNames[c] != "" {
			out = append(out, c)
		}
	}
	return out
}

// String returns the stable name of the class.
func (c Class) String() string {
	if c < numClasses && classNames[c] != "" {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ParseClass resolves a stable class name back to its Class.
func ParseClass(s string) (Class, bool) {
	for c := EvNone; c < numClasses; c++ {
		if classNames[c] == s && s != "" {
			return c, true
		}
	}
	return EvNone, false
}

// MarshalJSON renders the class as its stable name.
// api-exempt: encoding/json calls it for every journal and bundle event.
func (c Class) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.String())
}

// UnmarshalJSON accepts either the stable name or the numeric form.
// api-exempt: encoding/json calls it to read events back.
func (c *Class) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, ok := ParseClass(s)
		if !ok {
			return fmt.Errorf("flight: unknown event class %q", s)
		}
		*c = v
		return nil
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	if Class(n) >= numClasses {
		return fmt.Errorf("flight: event class %d out of range", n)
	}
	*c = Class(n)
	return nil
}

// Event is one journal entry: a typed state transition with just enough
// context to correlate it against metrics, spans and the shed ledger.
// Events are immutable once recorded.
type Event struct {
	// Seq is the recorder-assigned monotonic sequence number (1-based).
	Seq uint64 `json:"seq"`
	// TimeNs is the wall-clock unix-nanos timestamp. Zero at Record time
	// means "stamp now".
	TimeNs int64 `json:"time_ns"`
	// Class is the event class.
	Class Class `json:"class"`
	// Plane names the subsystem half that recorded the event (gnb, ric,
	// e2, wasm, flight).
	Plane string `json:"plane,omitempty"`
	// Cell is the cell index for core-plane events.
	Cell uint32 `json:"cell,omitempty"`
	// Slot is the slot counter for core-plane events.
	Slot uint64 `json:"slot,omitempty"`
	// Detail is the human-readable specifics: transition edge, shed
	// reason, failure class, xApp name.
	Detail string `json:"detail,omitempty"`
	// Value is an optional scalar (overrun nanos, queue dwell, burn rate).
	Value float64 `json:"value,omitempty"`
}

// Plane labels used by the built-in instrumentation sites. The gnb and ric
// labels deliberately match trace.PlaneGNB / trace.PlaneRIC so journal
// events and spans correlate by name.
const (
	PlaneGNB    = "gnb"
	PlaneRIC    = "ric"
	PlaneE2     = "e2"
	PlaneWasm   = "wasm"
	PlaneFlight = "flight"
)
