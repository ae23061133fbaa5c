package wabi

import (
	"errors"
	"strings"
	"testing"

	"waran/internal/wasm"
)

// echoWAT copies its input to its output and logs its length.
const echoWAT = `(module
  (import "waran" "input_length" (func $input_length (result i32)))
  (import "waran" "input_read"   (func $input_read (param i32 i32 i32) (result i32)))
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (import "waran" "log"          (func $log (param i32 i32)))
  (memory (export "memory") 1)
  (data (i32.const 0) "echoing")
  (func (export "run") (result i32)
    (local $n i32)
    (local.set $n (call $input_length))
    (drop (call $input_read (i32.const 1024) (i32.const 0) (local.get $n)))
    (call $log (i32.const 0) (i32.const 7))
    (call $output_write (i32.const 1024) (local.get $n))
    (i32.const 0))
)`

func mustPlugin(t *testing.T, src string, policy Policy, env Env) *Plugin {
	t.Helper()
	mod, err := CompileWAT(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p, err := NewPlugin(mod, policy, env)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	return p
}

func TestEchoRoundTrip(t *testing.T) {
	var logged []string
	p := mustPlugin(t, echoWAT, Policy{}, Env{OnLog: func(m string) { logged = append(logged, m) }})
	in := []byte("hello plugin world")
	out, err := p.Call("run", in)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(in) {
		t.Fatalf("echo = %q", out)
	}
	if len(logged) != 1 || logged[0] != "echoing" {
		t.Fatalf("logs = %v", logged)
	}
}

// TestCallOutputValidUntilNextCall: what Call returns is the plugin's copy,
// not a view of guest memory, so it holds until the next Call on the
// instance, whatever the memory does meanwhile; the next Call reuses it.
func TestCallOutputValidUntilNextCall(t *testing.T) {
	p := mustPlugin(t, echoWAT, Policy{}, Env{})
	out, err := p.Call("run", []byte("first output"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Instance().Memory().Write(1024, []byte("scribbled on!")); err != nil {
		t.Fatal(err)
	}
	if string(out) != "first output" {
		t.Fatalf("output changed with guest memory: %q", out)
	}
	next, err := p.Call("run", []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if string(next) != "second" {
		t.Fatalf("second output = %q", next)
	}
	if &next[0] != &out[0] {
		t.Fatal("the second call's output is not in the first one's buffer")
	}
}

// TestOutsizedOutputNotRetained: the output buffer outlives a call only up
// to maxRetainedOutput, so one large answer does not pin its copy.
func TestOutsizedOutputNotRetained(t *testing.T) {
	const bigWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 2)
  (func (export "run") (result i32)
    (call $output_write (i32.const 0) (i32.const 100000))
    (i32.const 0)))`
	p := mustPlugin(t, bigWAT, Policy{}, Env{})
	out, err := p.Call("run", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100000 {
		t.Fatalf("output of %d bytes, want 100000", len(out))
	}
	if _, err := p.Call("missing", nil); err == nil {
		t.Fatal("a call to a missing export succeeded")
	}
	if c := cap(p.outBuf); c > maxRetainedOutput {
		t.Fatalf("the instance keeps a %d-byte output buffer after the next call", c)
	}
}

func TestEmptyInputAndOutput(t *testing.T) {
	p := mustPlugin(t, echoWAT, Policy{}, Env{})
	out, err := p.Call("run", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("out = %q", out)
	}
}

func TestInputTooLarge(t *testing.T) {
	p := mustPlugin(t, echoWAT, Policy{}, Env{})
	if _, err := p.Call("run", make([]byte, maxInputBytes+1)); err == nil {
		t.Fatal("oversized input accepted")
	}
}

func TestOutputTooLarge(t *testing.T) {
	// 17 pages hold one byte more than the output limit.
	src := `(module
	  (import "waran" "output_write" (func $output_write (param i32 i32)))
	  (memory (export "memory") 17)
	  (func (export "run") (result i32)
	    (call $output_write (i32.const 0) (i32.const 1048577))
	    (i32.const 0)))`
	p := mustPlugin(t, src, Policy{}, Env{})
	_, err := p.Call("run", nil)
	var ce *CallError
	if !errors.As(err, &ce) || ce.Trap == nil {
		t.Fatalf("want trap-carrying CallError, got %v", err)
	}
	if !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("error does not mention the limit: %v", err)
	}
}

func TestInputReadChunked(t *testing.T) {
	// Plugin reads the input 4 bytes at a time and sums the chunks it got.
	src := `(module
	  (import "waran" "input_length" (func $input_length (result i32)))
	  (import "waran" "input_read"   (func $input_read (param i32 i32 i32) (result i32)))
	  (import "waran" "output_write" (func $output_write (param i32 i32)))
	  (memory (export "memory") 1)
	  (func (export "run") (result i32)
	    (local $off i32) (local $got i32) (local $total i32)
	    (block $done (loop $top
	      (local.set $got (call $input_read (i32.const 512) (local.get $off) (i32.const 4)))
	      (br_if $done (i32.eqz (local.get $got)))
	      (local.set $total (i32.add (local.get $total) (local.get $got)))
	      (local.set $off (i32.add (local.get $off) (local.get $got)))
	      (br $top)))
	    (i32.store (i32.const 0) (local.get $total))
	    (call $output_write (i32.const 0) (i32.const 4))
	    (i32.const 0)))`
	p := mustPlugin(t, src, Policy{}, Env{})
	out, err := p.Call("run", make([]byte, 11))
	if err != nil {
		t.Fatal(err)
	}
	if got := uint32(out[0]) | uint32(out[1])<<8; got != 11 {
		t.Fatalf("chunked read total = %d", got)
	}
}

func TestGuestErrorSurfaced(t *testing.T) {
	src := `(module
	  (import "waran" "error_set" (func $error_set (param i32 i32)))
	  (memory (export "memory") 1)
	  (data (i32.const 0) "bad input")
	  (func (export "run") (result i32)
	    (call $error_set (i32.const 0) (i32.const 9))
	    (i32.const 3)))`
	p := mustPlugin(t, src, Policy{}, Env{})
	_, err := p.Call("run", nil)
	var ce *CallError
	if !errors.As(err, &ce) {
		t.Fatalf("want CallError, got %v", err)
	}
	if ce.Code != 3 || ce.Message != "bad input" {
		t.Fatalf("code=%d msg=%q", ce.Code, ce.Message)
	}
	if ClassOf(err) != FailGuestError || p.Poisoned() {
		t.Fatalf("class = %v poisoned = %v, want %v and clean", ClassOf(err), p.Poisoned(), FailGuestError)
	}
}

func TestMissingMemoryRejected(t *testing.T) {
	mod, err := CompileWAT(`(module (func (export "run") (result i32) i32.const 0))`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlugin(mod, Policy{}, Env{}); err == nil {
		t.Fatal("plugin without memory accepted")
	}
}

func TestHostFuncsCannotShadowABI(t *testing.T) {
	mod, err := CompileWAT(echoWAT)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{HostFuncs: wasm.Imports{"waran": {}}}
	if _, err := NewPlugin(mod, Policy{}, env); err == nil {
		t.Fatal(`custom "waran" module accepted`)
	}
}

func TestCustomHostFuncs(t *testing.T) {
	src := `(module
	  (import "gnb" "set_quota" (func $sq (param i32 i32) (result i32)))
	  (import "waran" "output_write" (func $output_write (param i32 i32)))
	  (memory (export "memory") 1)
	  (func (export "run") (result i32)
	    (drop (call $sq (i32.const 3) (i32.const 17)))
	    (i32.const 0)))`
	var gotSlice, gotQuota uint32
	env := Env{HostFuncs: wasm.Imports{"gnb": {
		"set_quota": &wasm.HostFunc{
			Name: "set_quota",
			Type: wasm.FuncType{
				Params:  []wasm.ValType{wasm.ValI32, wasm.ValI32},
				Results: []wasm.ValType{wasm.ValI32},
			},
			Fn: func(ctx *wasm.CallContext, args []uint64) ([]uint64, error) {
				gotSlice, gotQuota = uint32(args[0]), uint32(args[1])
				return []uint64{1}, nil
			},
		},
	}}}
	p := mustPlugin(t, src, Policy{}, env)
	if _, err := p.Call("run", nil); err != nil {
		t.Fatal(err)
	}
	if gotSlice != 3 || gotQuota != 17 {
		t.Fatalf("host func saw %d/%d", gotSlice, gotQuota)
	}
}

func TestFuelExhaustionIsDeterministic(t *testing.T) {
	src := `(module
	  (memory (export "memory") 1)
	  (func (export "run") (result i32)
	    (loop $spin br $spin)
	    (i32.const 0)))`
	p := mustPlugin(t, src, Policy{Fuel: 5000}, Env{})
	for i := 0; i < 3; i++ {
		_, err := p.Call("run", nil)
		var ce *CallError
		if !errors.As(err, &ce) || ce.Trap == nil || ce.Trap.Code != wasm.TrapFuelExhausted {
			t.Fatalf("call %d: want fuel trap, got %v", i, err)
		}
	}
}

// TestResetWipesState: an instance that trapped is never reused; the pool's
// replacement starts from the module's initial state.
func TestResetWipesState(t *testing.T) {
	src := `(module
	  (import "waran" "input_length" (func $input_length (result i32)))
	  (import "waran" "output_write" (func $output_write (param i32 i32)))
	  (memory (export "memory") 1)
	  (global $n (mut i32) (i32.const 0))
	  (func (export "run") (result i32)
	    (global.set $n (i32.add (global.get $n) (i32.const 1)))
	    (if (call $input_length) (then (unreachable)))
	    (i32.store (i32.const 0) (global.get $n))
	    (call $output_write (i32.const 0) (i32.const 4))
	    (i32.const 0)))`
	mod, err := CompileWAT(src)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(mod, Policy{}, Env{}, 1)
	count := func() byte {
		out, err := pool.Call("run", nil)
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	count()
	if got := count(); got != 2 {
		t.Fatalf("reused instance counter = %d, want 2", got)
	}
	if _, err := pool.Call("run", []byte("trap")); ClassOf(err) != FailTrap {
		t.Fatalf("want a trap, got %v", err)
	}
	if got := count(); got != 1 {
		t.Fatalf("counter after the trapped instance was replaced = %d, want 1", got)
	}
}

func TestHasEntrySignatureCheck(t *testing.T) {
	src := `(module
	  (memory (export "memory") 1)
	  (func (export "good") (result i32) i32.const 0)
	  (func (export "bad_params") (param i32) (result i32) i32.const 0)
	  (func (export "bad_results")))`
	p := mustPlugin(t, src, Policy{}, Env{})
	if !p.HasEntry("good") {
		t.Error("good entry not recognized")
	}
	if p.HasEntry("bad_params") || p.HasEntry("bad_results") || p.HasEntry("missing") {
		t.Error("invalid entries recognized")
	}
}

func TestCompileWasmBinary(t *testing.T) {
	mod, err := CompileWAT(echoWAT)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := wasm.Encode(mod.cm.Module())
	if err != nil {
		t.Fatal(err)
	}
	mod2, err := CompileWasm(bin)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlugin(mod2, Policy{}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Call("run", []byte("xyz"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "xyz" {
		t.Fatalf("binary-path echo = %q", out)
	}
}

func TestCallErrorMessageFormats(t *testing.T) {
	trapErr := &CallError{Entry: "run", Trap: &wasm.Trap{Code: wasm.TrapUnreachable}}
	if !strings.Contains(trapErr.Error(), "faulted") {
		t.Errorf("trap error: %v", trapErr)
	}
	codeErr := &CallError{Entry: "run", Code: 2, Message: "oops"}
	if !strings.Contains(codeErr.Error(), "oops") {
		t.Errorf("code error: %v", codeErr)
	}
	bare := &CallError{Entry: "run", Code: 9}
	if !strings.Contains(bare.Error(), "code 9") {
		t.Errorf("bare error: %v", bare)
	}
}
