package wasm

import "fmt"

// TrapCode classifies runtime traps. Traps abort the plugin invocation but
// never the host: Instance.Call converts them to *Trap errors.
type TrapCode int

// Trap codes mirror the failure classes in the WebAssembly specification.
const (
	TrapUnreachable TrapCode = iota
	TrapOutOfBoundsMemory
	TrapOutOfBoundsTable
	TrapIndirectCallTypeMismatch
	TrapUninitializedElement
	TrapIntegerDivideByZero
	TrapIntegerOverflow
	TrapInvalidConversion
	TrapCallStackExhausted
	TrapFuelExhausted
	TrapHostError
)

// String returns the spec-style description of the trap code.
func (c TrapCode) String() string {
	switch c {
	case TrapUnreachable:
		return "unreachable executed"
	case TrapOutOfBoundsMemory:
		return "out of bounds memory access"
	case TrapOutOfBoundsTable:
		return "undefined element"
	case TrapIndirectCallTypeMismatch:
		return "indirect call type mismatch"
	case TrapUninitializedElement:
		return "uninitialized element"
	case TrapIntegerDivideByZero:
		return "integer divide by zero"
	case TrapIntegerOverflow:
		return "integer overflow"
	case TrapInvalidConversion:
		return "invalid conversion to integer"
	case TrapCallStackExhausted:
		return "call stack exhausted"
	case TrapFuelExhausted:
		return "fuel exhausted"
	case TrapHostError:
		return "host function error"
	default:
		return fmt.Sprintf("trap(%d)", int(c))
	}
}

// Trap is the error produced when sandboxed code faults. It is recoverable by
// the host: the instance remains inspectable (memory, globals), though its
// internal state may be mid-computation.
type Trap struct {
	Code TrapCode
	// Func is the index of the faulting function, when known.
	Func uint32
	// Wrapped is the underlying host error for TrapHostError.
	Wrapped error
}

// Error implements the error interface.
func (t *Trap) Error() string {
	if t.Wrapped != nil {
		return fmt.Sprintf("wasm trap: %s: %v", t.Code, t.Wrapped)
	}
	return "wasm trap: " + t.Code.String()
}

// Is supports errors.Is matching on the trap code.
func (t *Trap) Is(target error) bool {
	o, ok := target.(*Trap)
	return ok && o.Code == t.Code
}

func newTrap(code TrapCode) *Trap { return &Trap{Code: code} }
