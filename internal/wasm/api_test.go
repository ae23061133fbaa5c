package wasm_test

import (
	"strings"
	"testing"

	"waran/internal/wasm"
	"waran/internal/wat"
)

// TestInstanceAccessors covers the host-facing inspection API.
func TestInstanceAccessors(t *testing.T) {
	src := `(module
	  (memory (export "memory") 2 8)
	  (func $add (export "add") (param i32 i32) (result i32)
	    local.get 0 local.get 1 i32.add)
	  (func (export "noargs") (result i64) i64.const 3))`
	in := mustInstance(t, src)

	if in.Module() == nil {
		t.Fatal("Module() nil")
	}
	mem := in.Memory()
	if mem == nil || mem.Len() != 2*wasm.PageSize {
		t.Fatalf("memory len = %v", mem)
	}
	if mem.MaxPages() != 8 {
		t.Fatalf("max pages = %d", mem.MaxPages())
	}
	ft, ok := in.FuncType("add")
	if !ok || len(ft.Params) != 2 || ft.Params[0] != wasm.ValI32 {
		t.Fatalf("FuncType = %v, %v", ft, ok)
	}
	if _, ok := in.FuncType("nope"); ok {
		t.Fatal("FuncType found an export that is not there")
	}
	res, err := in.Call("add", 4, 5)
	if err != nil || res[0] != 9 {
		t.Fatalf("Call = %v, %v", res, err)
	}
	// Wrong arity is an error, not a panic.
	if _, err := in.Call("add", 1); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	// Fuel accounting is visible.
	in.SetFuel(100)
	if in.Fuel() != 100 {
		t.Fatalf("Fuel = %d", in.Fuel())
	}
}

// TestMemoryHostAccessors covers the error-returning host-facing memory API.
func TestMemoryHostAccessors(t *testing.T) {
	m := wasm.NewMemory(1, 2)
	if err := m.WriteUint32(8, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	if v, err := m.ReadUint32(8); err != nil || v != 0xDEADBEEF {
		t.Fatalf("u32 = %#x, %v", v, err)
	}
	// Out-of-bounds host access errors (never panics).
	if _, err := m.ReadUint32(wasm.PageSize - 2); err == nil {
		t.Fatal("OOB u32 read accepted")
	}
	if err := m.WriteUint32(wasm.PageSize-2, 1); err == nil {
		t.Fatal("OOB u32 write accepted")
	}
	if _, err := m.Read(10, wasm.PageSize); err == nil {
		t.Fatal("OOB bulk read accepted")
	}
	if err := m.Write(wasm.PageSize-1, []byte{1, 2}); err == nil {
		t.Fatal("OOB bulk write accepted")
	}
	// Reset shrinks/zeroes.
	if _, ok := m.Grow(1); !ok {
		t.Fatal("grow failed")
	}
	m.Reset(1)
	if m.Size() != 1 {
		t.Fatalf("size after reset = %d", m.Size())
	}
	if v, _ := m.ReadUint32(8); v != 0 {
		t.Fatalf("reset did not zero: %#x", v)
	}
	// NewMemory clamps an absurd max.
	huge := wasm.NewMemory(0, 1<<31)
	if huge.MaxPages() != wasm.MaxPages {
		t.Fatalf("max not clamped: %d", huge.MaxPages())
	}
}

// TestGlobalConstExprForms exercises every constant-expression opcode
// through decode, encode, disassembly and instantiation.
func TestGlobalConstExprForms(t *testing.T) {
	src := `(module
	  (global $a i32 (i32.const -1))
	  (global $b i64 (i64.const 123456789012345))
	  (global $c f32 (f32.const 1.5))
	  (global $d f64 (f64.const -2.5))
	  (export "a" (global $a))
	  (export "b" (global $b))
	  (export "c" (global $c))
	  (export "d" (global $d)))`
	bin, err := wat.CompileToBinary(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := wasm.Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	// Disassembly must render all four constant forms.
	text := wasm.Disassemble(m)
	for _, want := range []string{"i32.const -1", "i64.const 123456789012345", "f32.const 1.5", "f64.const -2.5"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
	cm, err := wasm.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	in, err := cm.Instantiate(nil, wasm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := in.GlobalValue("a"); int32(uint32(v)) != -1 {
		t.Errorf("a = %d", int32(uint32(v)))
	}
	if v, _ := in.GlobalValue("b"); int64(v) != 123456789012345 {
		t.Errorf("b = %d", int64(v))
	}
}

// TestDeadCodeVariants: the compiler's dead-code skipper must cope with
// every instruction class appearing after an unconditional branch.
func TestDeadCodeVariants(t *testing.T) {
	src := `(module
	  (memory 1)
	  (func $h (param i32) (result i32) local.get 0)
	  (table 1 funcref)
	  (func (export "f") (result i32)
	    block (result i32)
	      i32.const 42
	      br 0
	      ;; everything below is dead but must parse/compile
	      drop
	      i32.const 1
	      if
	        nop
	      else
	        nop
	      end
	      block
	        loop
	          br 0
	        end
	      end
	      i32.const 0
	      call $h
	      drop
	      i32.const 0
	      i32.const 0
	      call_indirect (param i32) (result i32)
	      drop
	      i64.const 9 drop
	      f32.const 1.5 drop
	      f64.const 2.5 drop
	      i32.const 0 i32.load drop
	      memory.size drop
	      i32.const 0 i32.const 0 i32.const 0 memory.fill
	      i32.const 0 i32.const 0 i32.const 0 memory.copy
	      i32.const 0
	      br_table 0 0
	    end))`
	in := mustInstance(t, src)
	if got := call1(t, in, "f"); got != 42 {
		t.Fatalf("f = %d", got)
	}
}

// TestReturnInsideNestedBlocks covers the return-from-depth path of the
// compiler (skipDead at nesting > 0).
func TestReturnInsideNestedBlocks(t *testing.T) {
	src := `(module (func (export "f") (param i32) (result i32)
	  block
	    block
	      local.get 0
	      if
	        i32.const 11
	        return
	      end
	    end
	  end
	  i32.const 22))`
	in := mustInstance(t, src)
	if got := call1(t, in, "f", 1); got != 11 {
		t.Fatalf("f(1) = %d", got)
	}
	if got := call1(t, in, "f", 0); got != 22 {
		t.Fatalf("f(0) = %d", got)
	}
}

// TestCallResultsSurviveSubsequentCalls: the public API must hand out
// results that remain valid after further calls (internal buffers are
// pooled, so this guards the copy at the boundary).
func TestCallResultsSurviveSubsequentCalls(t *testing.T) {
	src := `(module (func (export "id") (param i64) (result i64) local.get 0))`
	in := mustInstance(t, src)
	first, err := in.Call("id", 111)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Call("id", 222); err != nil {
		t.Fatal(err)
	}
	if first[0] != 111 {
		t.Fatalf("earlier result mutated by later call: %d", first[0])
	}
}
