package wabi

import (
	"errors"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Fault injection is guest bytecode: these tests run guests that misbehave
// on calls they choose, and check what the host makes of it.

// TestHostRollsNoFaults pins that the host cannot invent a fault: no file of
// the plugin host imports a random source, so every failure a call reports
// is one the guest's own bytecode produced.
func TestHostRollsNoFaults(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "math/rand" || path == "math/rand/v2" {
				t.Errorf("%s imports %q: plugin faults must come from guest bytecode", name, path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no host source files found")
	}
}

// faultWAT echoes its input like echoWAT unless the input's first byte names
// a fault: 't' traps, 's' spins until the meter trips, 'c' emits all but the
// last byte.
const faultWAT = `(module
  (import "waran" "input_length" (func $input_length (result i32)))
  (import "waran" "input_read"   (func $input_read (param i32 i32 i32) (result i32)))
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (func (export "run") (result i32)
    (local $n i32)
    (local.set $n (call $input_length))
    (drop (call $input_read (i32.const 1024) (i32.const 0) (local.get $n)))
    (if (local.get $n)
      (then
        (if (i32.eq (i32.load8_u (i32.const 1024)) (i32.const 116)) ;; 't'
          (then (unreachable)))
        (if (i32.eq (i32.load8_u (i32.const 1024)) (i32.const 115)) ;; 's'
          (then (loop $spin (br $spin))))
        (if (i32.eq (i32.load8_u (i32.const 1024)) (i32.const 99))  ;; 'c'
          (then (local.set $n (i32.sub (local.get $n) (i32.const 1)))))))
    (call $output_write (i32.const 1024) (local.get $n))
    (i32.const 0))
)`

// sleeperWAT echoes for its first three calls and traps on every call after:
// a global counts them, so each instance turns on its own fourth call.
const sleeperWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (global $calls (mut i32) (i32.const 0))
  (func (export "run") (result i32)
    (global.set $calls (i32.add (global.get $calls) (i32.const 1)))
    (if (i32.gt_u (global.get $calls) (i32.const 3))
      (then (unreachable)))
    (i32.const 0))
)`

func TestChaosForcedTrap(t *testing.T) {
	p := mustPlugin(t, faultWAT, Policy{}, Env{})
	for i := 0; i < 5; i++ {
		_, err := p.Call("run", []byte("t"))
		if got := ClassOf(err); got != FailTrap {
			t.Fatalf("call %d: class = %v, want %v (err=%v)", i, got, FailTrap, err)
		}
		if !p.Poisoned() {
			t.Fatal("trap did not poison the instance")
		}
	}
}

func TestChaosFuelTheftWithMetering(t *testing.T) {
	p := mustPlugin(t, faultWAT, Policy{Fuel: 100_000}, Env{})
	_, err := p.Call("run", []byte("spin"))
	if got := ClassOf(err); got != FailFuel {
		t.Fatalf("class = %v, want %v (err=%v)", got, FailFuel, err)
	}
	if !p.Poisoned() {
		t.Fatal("fuel exhaustion did not poison the instance")
	}
	if got := p.LastFuelUsed(); got != 100_000 {
		t.Fatalf("spin burned %d fuel, want the whole budget", got)
	}
}

func TestChaosCorruptOutput(t *testing.T) {
	p := mustPlugin(t, faultWAT, Policy{}, Env{})
	out, err := p.Call("run", []byte("cabd"))
	if err != nil {
		t.Fatalf("corruption must not error at the wabi layer: %v", err)
	}
	if string(out) != "cab" {
		t.Fatalf("out = %q, want truncated %q", out, "cab")
	}
	if p.Poisoned() {
		t.Fatal("a completed call is a success here, not a poisoning")
	}
}

func TestChaosActivateAfter(t *testing.T) {
	p := mustPlugin(t, sleeperWAT, Policy{}, Env{})
	for i := 0; i < 3; i++ {
		if _, err := p.Call("run", nil); err != nil {
			t.Fatalf("sleeper fired during grace call %d: %v", i, err)
		}
	}
	_, err := p.Call("run", nil)
	if got := ClassOf(err); got != FailTrap {
		t.Fatalf("post-activation class = %v, want %v", got, FailTrap)
	}
}

// TestChaosDeterministicSchedule: a guest's faults are a function of its
// inputs, so one input sequence replays to one class sequence on fresh
// instances.
func TestChaosDeterministicSchedule(t *testing.T) {
	inputs := make([][]byte, 64)
	for i := range inputs {
		inputs[i] = []byte{"tscx"[(i*7+i/3)%4], byte(i)}
	}
	run := func() []FailureClass {
		p := mustPlugin(t, faultWAT, Policy{Fuel: 10_000}, Env{})
		var classes []FailureClass
		for _, in := range inputs {
			_, err := p.Call("run", in)
			classes = append(classes, ClassOf(err))
		}
		return classes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at call %d: %v vs %v", i, a[i], b[i])
		}
	}
	var faults int
	for _, c := range a {
		if c != FailNone {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Fatalf("degenerate schedule: %d/%d faults", faults, len(a))
	}
}

// TestChaosThroughPool: every instance that trapped is discarded, and the
// pool keeps serving from fresh ones.
func TestChaosThroughPool(t *testing.T) {
	mod, err := CompileWAT(faultWAT)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(mod, Policy{}, Env{}, 2)
	var traps, oks int
	for i := 0; i < 100; i++ {
		in := []byte("m")
		if i%3 == 1 {
			in = []byte("t")
		}
		_, err := pool.Call("run", in)
		switch ClassOf(err) {
		case FailNone:
			oks++
		case FailTrap:
			traps++
		default:
			t.Fatalf("call %d: unexpected error %v", i, err)
		}
	}
	if traps != 33 || oks != 67 {
		t.Fatalf("traps=%d oks=%d, want 33/67", traps, oks)
	}
	if st := pool.Stats(); st.Discards != uint64(traps) {
		t.Fatalf("discards = %d, want %d (every trapped instance discarded)", st.Discards, traps)
	}
}

func TestChaosErrorsAreCallErrors(t *testing.T) {
	p := mustPlugin(t, faultWAT, Policy{}, Env{})
	_, err := p.Call("run", []byte("t"))
	var ce *CallError
	if !errors.As(err, &ce) || ce.Trap == nil {
		t.Fatalf("guest fault is not a trap-carrying CallError: %v", err)
	}
}
