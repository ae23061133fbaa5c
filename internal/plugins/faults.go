package plugins

import "fmt"

// Fault-injection plugins for the §5D memory-safety matrix and the Fig. 5c
// memory-leak experiment. Each exports "schedule" like a real scheduler so
// it can be dropped into a slice, and misbehaves in one specific way. The
// point of the experiment: every one of these crashes or corrupts a native
// process, but inside the sandbox the gNB catches a trap and keeps running.

// NullDerefWAT dereferences a null-like pointer: address -16 wraps to
// 0xFFFFFFF0, far beyond any mappable memory, so the load traps.
const NullDerefWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (func (export "schedule") (result i32)
    (drop (i32.load (i32.const -16)))
    (i32.const 0))
)`

// OOBAccessWAT reads one byte past the end of linear memory.
const OOBAccessWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (func (export "schedule") (result i32)
    ;; memory.size * 64KiB is the first out-of-bounds address.
    (drop (i32.load (i32.mul (memory.size) (i32.const 65536))))
    (i32.const 0))
)`

// DoubleFreeWAT models an allocator that detects a double free and aborts
// (as hardened allocators do); the abort is an unreachable trap contained
// by the sandbox.
const DoubleFreeWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (global $allocated (mut i32) (i32.const 0))
  (func $malloc (result i32)
    (global.set $allocated (i32.const 1))
    (i32.const 64))
  (func $free (param $p i32)
    (if (i32.eqz (global.get $allocated))
      (then (unreachable)))          ;; double free detected: abort
    (global.set $allocated (i32.const 0)))
  (func (export "schedule") (result i32)
    (local $p i32)
    (local.set $p (call $malloc))
    (call $free (local.get $p))
    (call $free (local.get $p))      ;; bug: freed twice
    (i32.const 0))
)`

// StackOverflowWAT recurses without a base case, exhausting the call stack.
const StackOverflowWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (func $recurse (result i32) (call $recurse))
  (func (export "schedule") (result i32) (call $recurse))
)`

// InfiniteLoopWAT never terminates; the fuel meter converts the hang into a
// deterministic trap, preserving the slot deadline.
const InfiniteLoopWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (func (export "schedule") (result i32)
    (loop $spin (br $spin))
    (i32.const 0))
)`

// LeakWAT grows linear memory by one page per call and touches it, never
// releasing — the Fig. 5c leaky scheduler. Growth is silently capped by the
// host policy, so the gNB's footprint stays bounded.
const LeakWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (func (export "schedule") (result i32)
    (local $prev i32)
    (local.set $prev (memory.grow (i32.const 1)))
    (if (i32.ne (local.get $prev) (i32.const -1))
      (then
        ;; Touch the new page so the leak is real, then "forget" it.
        (i32.store (i32.mul (local.get $prev) (i32.const 65536)) (i32.const 1))))
    ;; Still produce an empty, valid scheduling response.
    (i32.store (i32.const 0) (i32.const 0))
    (call $output_write (i32.const 0) (i32.const 4))
    (i32.const 0))
)`

// BadOutputWAT produces a syntactically broken response (truncated), which
// the host decoder must reject.
const BadOutputWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (func (export "schedule") (result i32)
    (i32.store (i32.const 0) (i32.const 99))  ;; claims 99 allocations
    (call $output_write (i32.const 0) (i32.const 4))
    (i32.const 0))
)`

// OverBudgetWAT returns a well-formed response granting more PRBs than the
// budget to the first UE in the request — caught by Response.Validate.
const OverBudgetWAT = `(module
  (import "waran" "input_length" (func $input_length (result i32)))
  (import "waran" "input_read"   (func $input_read (param i32 i32 i32) (result i32)))
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (func (export "schedule") (result i32)
    (drop (call $input_read (i32.const 1024) (i32.const 0) (call $input_length)))
    (i32.store (i32.const 0) (i32.const 1))                 ;; one allocation
    (i32.store (i32.const 4) (i32.load (i32.const 1044)))    ;; first UE id
    (i32.store (i32.const 8)
      (i32.add (i32.load (i32.const 1036)) (i32.const 10))) ;; budget + 10
    (call $output_write (i32.const 0) (i32.const 12))
    (i32.const 0))
)`

// GuestErrorWAT reports a plugin-level failure through error_set and a
// non-zero exit code (the "plugin-defined error" path, not a trap).
const GuestErrorWAT = `(module
  (import "waran" "error_set" (func $error_set (param i32 i32)))
  (memory (export "memory") 1)
  (data (i32.const 0) "policy database unavailable")
  (func (export "schedule") (result i32)
    (call $error_set (i32.const 0) (i32.const 27))
    (i32.const 7))
)`

// FaultWAT returns the named fault plugin source.
func FaultWAT(name string) (string, error) {
	switch name {
	case "null-deref":
		return NullDerefWAT, nil
	case "oob-access":
		return OOBAccessWAT, nil
	case "double-free":
		return DoubleFreeWAT, nil
	case "stack-overflow":
		return StackOverflowWAT, nil
	case "infinite-loop":
		return InfiniteLoopWAT, nil
	case "leak":
		return LeakWAT, nil
	case "bad-output":
		return BadOutputWAT, nil
	case "over-budget":
		return OverBudgetWAT, nil
	case "guest-error":
		return GuestErrorWAT, nil
	default:
		return "", fmt.Errorf("plugins: unknown fault plugin %q", name)
	}
}
