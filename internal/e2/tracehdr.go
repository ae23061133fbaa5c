package e2

import (
	"encoding/binary"

	"waran/internal/obs/trace"
)

// Trace-context propagation on the E2 wire.
//
// A traced message carries a 17-byte trailer after its body:
//
//	+--------+-------------------+-------------------+
//	| 0x54   | TraceID (u64 LE)  | SpanID (u64 LE)   |
//	+--------+-------------------+-------------------+
//
// The trailer rides after the body (never inside it) for both the binary and
// varint codecs, so an untraced message carries no extra byte. Decoders
// consume the body and then accept either zero remaining bytes or exactly
// one trailer; anything else is ErrMalformed. The JSON codec instead adds a
// "trace" object field.
//
// Every endpoint of this build decodes the trailer, so there is nothing to
// negotiate: an end stamps it when its own tracer is on (package ric).
const (
	// traceMarker is the first trailer byte, 'T'.
	traceMarker byte = 0x54
	// traceTrailerLen is the full trailer size: marker + TraceID + SpanID.
	traceTrailerLen = 1 + 8 + 8
)

// appendTraceTrailer appends the wire trailer for c; a zero context appends
// nothing, so an untraced frame carries no trailer byte.
func appendTraceTrailer(b []byte, c trace.Context) []byte {
	if !c.Valid() {
		return b
	}
	b = append(b, traceMarker)
	b = binary.LittleEndian.AppendUint64(b, c.TraceID)
	b = binary.LittleEndian.AppendUint64(b, c.SpanID)
	return b
}

// parseTraceTrailer decodes a trailer from exactly traceTrailerLen bytes.
func parseTraceTrailer(b []byte) (trace.Context, bool) {
	if len(b) != traceTrailerLen || b[0] != traceMarker {
		return trace.Context{}, false
	}
	c := trace.Context{
		TraceID: binary.LittleEndian.Uint64(b[1:]),
		SpanID:  binary.LittleEndian.Uint64(b[9:]),
	}
	return c, c.Valid()
}
