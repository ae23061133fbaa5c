// Package trace is WA-RAN's causal tracing layer: it follows one control
// decision end-to-end — gNB indication, E2 transport, RIC decode, xApp
// invocation, control delivery, supervised hot-swap, and the first slot the
// decision affects — as a tree of spans sharing a TraceID.
//
// The design mirrors W3C trace-context propagation scaled down to E2-lite:
// a 16-byte Context (TraceID, SpanID) is stamped where a decision originates
// and carried inside the E2 message header (see internal/e2's trace
// trailer), so each hop parents its spans to the previous hop's span across
// process planes. Spans land in lock-free per-plane SpanRings and are served
// as Chrome-trace-viewer JSON at /debug/trace.
//
// A nil *Tracer is a valid, fully disabled tracer: every method is a no-op,
// and every instrumentation site guards with Enabled() so the disabled path
// costs one pointer comparison and zero allocations.
package trace

import "sync/atomic"

// Context identifies one position in a trace: the decision's TraceID plus
// the SpanID of the most recent span, which the next hop parents to. It is
// exactly 16 bytes — the wire size of the E2 trace header.
type Context struct {
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
}

// Valid reports whether the context belongs to a live trace. The zero
// Context means "untraced" everywhere.
func (c Context) Valid() bool { return c.TraceID != 0 }

// idSeq feeds the ID generator. IDs must only be unique and nonzero within
// a process, so a scrambled counter suffices — and keeps experiment output
// deterministic, unlike crypto randomness.
var idSeq atomic.Uint64 // metric-exempt: ID generator state, not telemetry

// newID scrambles the next sequence number through the splitmix64 finalizer
// so IDs are unique, nonzero and well spread across the 64-bit space.
func newID() uint64 {
	x := idSeq.Add(1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// NewTraceID allocates a fresh trace identifier.
func NewTraceID() uint64 { return newID() }

// NewSpanID allocates a fresh span identifier.
func NewSpanID() uint64 { return newID() }

// NewContext starts a new trace: fresh TraceID, fresh root SpanID.
func NewContext() Context { return Context{TraceID: NewTraceID(), SpanID: NewSpanID()} }

// Span is one timed hop of a control decision. Parent links spans into the
// per-decision tree; Plane says which process half recorded it.
type Span struct {
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
	Parent  uint64 `json:"parent_id,omitempty"`
	Name    string `json:"name"`
	Plane   string `json:"plane"`
	Slot    uint64 `json:"slot,omitempty"`
	Cell    uint32 `json:"cell,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Err     string `json:"err,omitempty"`
}
