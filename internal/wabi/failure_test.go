package wabi

import (
	"errors"
	"fmt"
	"testing"

	"waran/internal/wasm"
)

// taintWAT writes a marker into linear memory and then traps ("taint"), or
// echoes the first 4 bytes of memory ("peek") — the probe pair for
// poisoned-instance recycling.
const taintWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (func (export "taint") (result i32)
    (i32.store (i32.const 0) (i32.const 0xbadc0de))
    (unreachable))
  (func (export "peek") (result i32)
    (call $output_write (i32.const 0) (i32.const 4))
    (i32.const 0))
)`

func TestClassOfTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want FailureClass
	}{
		{"nil", nil, FailNone},
		{"unreachable-trap", &CallError{Entry: "run", Trap: &wasm.Trap{Code: wasm.TrapUnreachable}}, FailTrap},
		{"oob-trap", &CallError{Entry: "run", Trap: &wasm.Trap{Code: wasm.TrapOutOfBoundsMemory}}, FailTrap},
		{"host-trap", &CallError{Entry: "run", Trap: &wasm.Trap{Code: wasm.TrapHostError}}, FailTrap},
		{"fuel", &CallError{Entry: "run", Trap: &wasm.Trap{Code: wasm.TrapFuelExhausted}}, FailFuel},
		{"guest-code", &CallError{Entry: "run", Code: 3}, FailGuestError},
		{"instantiate", &InstantiateError{Err: errors.New("no memory")}, FailInstantiate},
		{"bare-trap", &wasm.Trap{Code: wasm.TrapIntegerDivideByZero}, FailTrap},
		{"unclassed", errors.New("disk on fire"), FailUnknown},
	}
	for _, tc := range cases {
		if got := ClassOf(tc.err); got != tc.want {
			t.Errorf("%s: ClassOf = %v, want %v", tc.name, got, tc.want)
		}
		if tc.err == nil {
			continue
		}
		// Wrapping with %w must preserve the class through errors.As.
		wrapped := fmt.Errorf("sched: plugin %q: %w", "p", tc.err)
		if got := ClassOf(wrapped); got != tc.want {
			t.Errorf("%s: ClassOf(wrapped) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestFailureClassLabelsStable(t *testing.T) {
	want := map[FailureClass]string{
		FailNone:        "none",
		FailTrap:        "trap",
		FailFuel:        "fuel-exhausted",
		FailBadOutput:   "bad-output",
		FailInstantiate: "instantiation-failure",
		FailGuestError:  "guest-error",
		FailUnknown:     "unknown",
	}
	for c, label := range want {
		if c.String() != label {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), label)
		}
	}
	seen := map[FailureClass]bool{}
	for _, c := range FailureClasses() {
		if c == FailNone {
			t.Error("FailureClasses includes FailNone")
		}
		if seen[c] {
			t.Errorf("FailureClasses lists %v twice", c)
		}
		seen[c] = true
	}
	if len(seen) != len(want)-1 {
		t.Fatalf("FailureClasses covers %d classes, want %d", len(seen), len(want)-1)
	}
}

func TestCompileFailureIsInstantiateClass(t *testing.T) {
	_, err := CompileWAT(`(module (garbage))`)
	if err == nil {
		t.Fatal("garbage WAT compiled")
	}
	if got := ClassOf(err); got != FailInstantiate {
		t.Fatalf("compile error class = %v, want %v", got, FailInstantiate)
	}
	mod, err := CompileWAT(`(module (func (export "run") (result i32) i32.const 0))`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewPlugin(mod, Policy{}, Env{})
	if got := ClassOf(err); got != FailInstantiate {
		t.Fatalf("no-memory instantiate class = %v, want %v", got, FailInstantiate)
	}
}

func TestLastFailureClassAndPoisoned(t *testing.T) {
	// Success: class none, not poisoned.
	echo := mustPlugin(t, echoWAT, Policy{}, Env{})
	_, err := echo.Call("run", []byte("ok"))
	if ClassOf(err) != FailNone || echo.Poisoned() {
		t.Fatalf("after success: class=%v poisoned=%v", ClassOf(err), echo.Poisoned())
	}

	// Trap: poisoned.
	taint := mustPlugin(t, taintWAT, Policy{}, Env{})
	_, err = taint.Call("taint", nil)
	if ClassOf(err) != FailTrap || !taint.Poisoned() {
		t.Fatalf("after trap: class=%v poisoned=%v", ClassOf(err), taint.Poisoned())
	}

	// Fuel exhaustion: poisoned.
	spin := mustPlugin(t, `(module (memory (export "memory") 1)
	  (func (export "run") (result i32) (loop $s br $s) (i32.const 0)))`,
		Policy{Fuel: 5000}, Env{})
	_, err = spin.Call("run", nil)
	if ClassOf(err) != FailFuel || !spin.Poisoned() {
		t.Fatalf("after fuel: class=%v poisoned=%v", ClassOf(err), spin.Poisoned())
	}

	// Guest-declared error: clean completion, not poisoned.
	guest := mustPlugin(t, `(module (memory (export "memory") 1)
	  (func (export "run") (result i32) (i32.const 7)))`, Policy{}, Env{})
	_, err = guest.Call("run", nil)
	if ClassOf(err) != FailGuestError || guest.Poisoned() {
		t.Fatalf("after guest error: class=%v poisoned=%v", ClassOf(err), guest.Poisoned())
	}

	// A success after a trap clears the poison.
	_, err = taint.Call("peek", nil)
	if taint.Poisoned() {
		t.Fatalf("poison sticky after a later call (err=%v)", err)
	}
}

// TestPoolDiscardsPoisonedInstance is the regression test for recycling an
// instance whose last call trapped: Put must discard it, and the next Get
// must hand back a fresh instance with zeroed linear memory.
func TestPoolDiscardsPoisonedInstance(t *testing.T) {
	mod, err := CompileWAT(taintWAT)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(mod, Policy{}, Env{}, 2)

	a, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Call("taint", nil); err == nil {
		t.Fatal("taint did not trap")
	}
	pool.Put(a) // must discard, not recycle

	st := pool.Stats()
	if st.Discards != 1 || st.Idle != 0 || st.Created != 0 {
		t.Fatalf("after poisoned Put: discards=%d idle=%d created=%d", st.Discards, st.Idle, st.Created)
	}

	b, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if b == a {
		t.Fatal("poisoned instance recycled")
	}
	out, err := b.Call("peek", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 0 {
			t.Fatalf("fresh instance memory[%d] = %#x, want 0 (tainted memory leaked)", i, v)
		}
	}
	pool.Put(b)
	if st := pool.Stats(); st.Idle != 1 || st.Created != 1 {
		t.Fatalf("healthy instance not recycled: idle=%d created=%d", st.Idle, st.Created)
	}
}

// TestPoolDiscardWakesWaiter pins the waiter handoff: when a poisoned
// instance is discarded while a Get is parked, the waiter must be woken to
// claim the freed creation slot rather than waiting forever.
func TestPoolDiscardWakesWaiter(t *testing.T) {
	mod, err := CompileWAT(taintWAT)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(mod, Policy{}, Env{}, 1)
	a, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Call("taint", nil); err == nil {
		t.Fatal("taint did not trap")
	}

	got := make(chan *Plugin, 1)
	go func() {
		pl, err := pool.Get()
		if err != nil {
			t.Error(err)
		}
		got <- pl
	}()
	// Wait for the goroutine to park as a waiter, then discard.
	for {
		pool.mu.Lock()
		parked := len(pool.waiters) > 0
		pool.mu.Unlock()
		if parked {
			break
		}
	}
	pool.Put(a)
	b := <-got
	if b == nil || b == a {
		t.Fatalf("waiter got %v after discard", b)
	}
	if _, err := b.Call("peek", nil); err != nil {
		t.Fatal(err)
	}
}

// TestLoopingStartFunctionIsInstantiateError: a module whose start function
// never returns is refused at NewPlugin with an *InstantiateError wrapping
// the fuel trap its metered start budget ends in, on both tiers.
func TestLoopingStartFunctionIsInstantiateError(t *testing.T) {
	mod, err := CompileWAT(`(module (func $s (loop $l (br $l))) (start $s))`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range bothTiers {
		_, err := NewPlugin(mod, Policy{Fuel: 100_000, Tier: tier}, Env{})
		var ie *InstantiateError
		if !errors.As(err, &ie) {
			t.Fatalf("%v: NewPlugin = %v, want *InstantiateError", tier, err)
		}
		if !errors.Is(ie.Err, &wasm.Trap{Code: wasm.TrapFuelExhausted}) {
			t.Fatalf("%v: NewPlugin = %v, want it to wrap the fuel trap", tier, err)
		}
	}
}
