package wabi

import (
	"errors"

	"waran/internal/wasm"
)

// FailureClass is the stable taxonomy of plugin failure modes. Every error a
// plugin invocation can produce — at compile, instantiation or call time, in
// this package or in the scheduling ABI above it — maps to exactly one class,
// so supervisors can meter, threshold and alert per failure mode instead of
// string-matching undifferentiated errors. Consumers (circuit breakers,
// metrics, experiment reports) key on it; the String labels are stable.
type FailureClass uint8

// Failure classes, in severity-neutral registration order.
const (
	// FailNone classifies a nil error: the call succeeded.
	FailNone FailureClass = iota
	// FailTrap is a sandbox trap other than resource exhaustion:
	// unreachable, out-of-bounds access, divide by zero, stack overflow,
	// indirect-call mismatch, or a host function fault.
	FailTrap
	// FailFuel is per-call instruction-budget exhaustion (infinite loops,
	// runaway computation) converted to a deterministic trap by the meter.
	FailFuel
	// FailBadOutput is a structurally complete call whose result the host
	// rejected: malformed response bytes, out-of-bounds or overlapping
	// allocation regions, over-budget grants.
	FailBadOutput
	// FailInstantiate covers everything that prevents a runnable instance:
	// bytecode that fails decode/validate/flatten, missing exports, memory
	// configuration the policy refuses.
	FailInstantiate
	// FailGuestError is a plugin-reported failure: the entry function
	// returned a non-zero code (optionally with an error_set message). The
	// sandbox completed cleanly; the plugin itself declined.
	FailGuestError
	// FailUnknown is the catch-all for errors outside the plugin taxonomy
	// (host misuse, I/O). Supervisors treat it as a failure; FuzzClassify
	// asserts plugin-originated failures never land here.
	FailUnknown
)

// String returns the stable label used in metrics and experiment JSON.
func (c FailureClass) String() string {
	switch c {
	case FailNone:
		return "none"
	case FailTrap:
		return "trap"
	case FailFuel:
		return "fuel-exhausted"
	case FailBadOutput:
		return "bad-output"
	case FailInstantiate:
		return "instantiation-failure"
	case FailGuestError:
		return "guest-error"
	default:
		return "unknown"
	}
}

// FailureClasses lists every non-nil class in stable order, for metric
// registration and report rendering loops.
func FailureClasses() []FailureClass {
	return []FailureClass{
		FailTrap, FailFuel, FailBadOutput,
		FailInstantiate, FailGuestError, FailUnknown,
	}
}

// ClassedError is implemented by errors that know their own failure class.
// wabi's CallError and InstantiateError implement it, as does the scheduling
// ABI's BadOutputError; wrapping with fmt.Errorf("...: %w", err) preserves
// the class through errors.As.
type ClassedError interface {
	error
	FailureClass() FailureClass
}

// ClassOf classifies any error from the plugin plane into its FailureClass.
// nil maps to FailNone; errors carrying no class map to FailUnknown.
func ClassOf(err error) FailureClass {
	if err == nil {
		return FailNone
	}
	var ce ClassedError
	if errors.As(err, &ce) {
		return ce.FailureClass()
	}
	var trap *wasm.Trap
	if errors.As(err, &trap) {
		return classOfTrap(trap)
	}
	return FailUnknown
}

func classOfTrap(t *wasm.Trap) FailureClass {
	if t.Code == wasm.TrapFuelExhausted {
		return FailFuel
	}
	return FailTrap
}

// FailureClass implements ClassedError: traps split into trap / fuel by
// trap code; a non-zero entry return is a guest error.
func (e *CallError) FailureClass() FailureClass {
	if e.Trap != nil {
		return classOfTrap(e.Trap)
	}
	return FailGuestError
}

// InstantiateError marks failures to produce a runnable plugin instance —
// compile rejections, import/export mismatches, memory policy violations.
type InstantiateError struct {
	Err error
}

// Error implements the error interface.
func (e *InstantiateError) Error() string { return e.Err.Error() }

// FailureClass implements ClassedError.
func (e *InstantiateError) FailureClass() FailureClass { return FailInstantiate }
