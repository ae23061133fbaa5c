package sched

import (
	"fmt"

	"waran/internal/wabi"
)

// maxRespAllocs bounds the allocation count a response may claim. The
// tightest real bound is the UE count of the request, but the decoder does
// not see the request; this cap only has to stop a hostile length prefix
// from driving a giant allocation before the length check.
const maxRespAllocs = 1 << 20

// BadOutputKind is the structural sub-classification of a rejected plugin
// result, shared by BinaryCodec.DecodeResponse and the zero-copy region reader
// so the differential harness can assert that both paths reject the same
// hostile response the same way.
type BadOutputKind uint8

const (
	// BadOutputMalformed: the bytes do not parse as a response at all
	// (a truncated header).
	BadOutputMalformed BadOutputKind = iota
	// BadOutputOOB: the allocation count points past the payload or region —
	// an out-of-bounds result table.
	BadOutputOOB
	// BadOutputOverlap: two allocation records name the same UE, i.e. the
	// result regions overlap.
	BadOutputOverlap
	// BadOutputSemantic: structurally sound but rejected by
	// Response.Validate (unknown UE, duplicate grant, over-budget PRBs).
	BadOutputSemantic
)

// String implements fmt.Stringer.
func (k BadOutputKind) String() string {
	switch k {
	case BadOutputMalformed:
		return "malformed"
	case BadOutputOOB:
		return "oob"
	case BadOutputOverlap:
		return "overlap"
	case BadOutputSemantic:
		return "semantic"
	default:
		return "unknown"
	}
}

// BadOutputError marks a structurally complete plugin call whose result the
// host rejected: malformed response bytes, out-of-bounds or overlapping
// result regions, grants that fail semantic validation. It implements
// wabi.ClassedError so supervisors meter it as FailBadOutput, distinct from
// sandbox traps — the plugin ran fine and lied.
type BadOutputError struct {
	Kind BadOutputKind
	Err  error
}

// Error implements the error interface.
func (e *BadOutputError) Error() string { return e.Err.Error() }

// FailureClass implements wabi.ClassedError.
func (e *BadOutputError) FailureClass() wabi.FailureClass { return wabi.FailBadOutput }

// badOutputf builds a BadOutputError like fmt.Errorf (with %w support),
// classified BadOutputMalformed.
func badOutputf(format string, args ...any) *BadOutputError {
	return &BadOutputError{Err: fmt.Errorf(format, args...)}
}

// badOutputKind is badOutputf with an explicit structural kind.
func badOutputKind(kind BadOutputKind, format string, args ...any) *BadOutputError {
	return &BadOutputError{Kind: kind, Err: fmt.Errorf(format, args...)}
}
