package wasm_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"waran/internal/wasm"
	"waran/internal/wat"
)

// binOpModule builds a module exporting one function per listed binary
// operator: (param T T) (result R).
func binOpModule(paramT, resultT string, ops []string) string {
	var b strings.Builder
	b.WriteString("(module\n")
	for _, op := range ops {
		fmt.Fprintf(&b, "(func (export %q) (param %s %s) (result %s) local.get 0 local.get 1 %s)\n",
			op, paramT, paramT, resultT, op)
	}
	b.WriteString(")")
	return b.String()
}

func unOpModule(paramT, resultT string, ops []string) string {
	var b strings.Builder
	b.WriteString("(module\n")
	for _, op := range ops {
		fmt.Fprintf(&b, "(func (export %q) (param %s) (result %s) local.get 0 %s)\n",
			op, paramT, resultT, op)
	}
	b.WriteString(")")
	return b.String()
}

func TestI32Arithmetic(t *testing.T) {
	ops := []string{"i32.add", "i32.sub", "i32.mul", "i32.div_s", "i32.div_u",
		"i32.rem_s", "i32.rem_u", "i32.and", "i32.or", "i32.xor",
		"i32.shl", "i32.shr_s", "i32.shr_u", "i32.rotl", "i32.rotr"}
	in := mustInstance(t, binOpModule("i32", "i32", ops))
	cases := []struct {
		op   string
		a, b int32
		want int32
	}{
		{"i32.add", 2, 3, 5},
		{"i32.add", math.MaxInt32, 1, math.MinInt32}, // wrapping
		{"i32.sub", 3, 5, -2},
		{"i32.mul", -4, 3, -12},
		{"i32.mul", 0x10000, 0x10000, 0}, // wrapping
		{"i32.div_s", 7, -2, -3},         // truncated toward zero
		{"i32.div_s", -7, 2, -3},
		{"i32.div_u", -1, 2, math.MaxInt32}, // 0xFFFFFFFF / 2
		{"i32.rem_s", 7, -2, 1},
		{"i32.rem_s", -7, 2, -1},
		{"i32.rem_s", math.MinInt32, -1, 0}, // no trap
		{"i32.rem_u", -1, 10, 5},            // 4294967295 % 10
		{"i32.and", 0b1100, 0b1010, 0b1000},
		{"i32.or", 0b1100, 0b1010, 0b1110},
		{"i32.xor", 0b1100, 0b1010, 0b0110},
		{"i32.shl", 1, 33, 2},    // shift mod 32
		{"i32.shr_s", -8, 1, -4}, // arithmetic
		{"i32.shr_u", -8, 1, 0x7FFFFFFC},
		{"i32.rotl", 0x40000000, 2, 1},
		{"i32.rotr", 1, 1, math.MinInt32},
	}
	for _, tc := range cases {
		got := int32(call1(t, in, tc.op, i32(tc.a), i32(tc.b)))
		if got != tc.want {
			t.Errorf("%s(%d, %d) = %d, want %d", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
	wantTrap(t, in, wasm.TrapIntegerDivideByZero, "i32.div_s", i32(5), i32(0))
	wantTrap(t, in, wasm.TrapIntegerDivideByZero, "i32.div_u", i32(5), i32(0))
	wantTrap(t, in, wasm.TrapIntegerDivideByZero, "i32.rem_s", i32(5), i32(0))
	wantTrap(t, in, wasm.TrapIntegerDivideByZero, "i32.rem_u", i32(5), i32(0))
	wantTrap(t, in, wasm.TrapIntegerOverflow, "i32.div_s", i32(math.MinInt32), i32(-1))
}

func TestI64Arithmetic(t *testing.T) {
	ops := []string{"i64.add", "i64.sub", "i64.mul", "i64.div_s", "i64.div_u",
		"i64.rem_s", "i64.rem_u", "i64.shl", "i64.shr_s", "i64.shr_u", "i64.rotl", "i64.rotr"}
	in := mustInstance(t, binOpModule("i64", "i64", ops))
	cases := []struct {
		op   string
		a, b int64
		want int64
	}{
		{"i64.add", math.MaxInt64, 1, math.MinInt64},
		{"i64.sub", 0, 1, -1},
		{"i64.mul", (1 << 40) + 1, 1 << 30, 1 << 30}, // wraps mod 2^64
		{"i64.div_s", -9, 2, -4},
		{"i64.div_u", -1, 1 << 32, (1 << 32) - 1},
		{"i64.rem_s", math.MinInt64, -1, 0},
		{"i64.rem_u", 10, 3, 1},
		{"i64.shl", 1, 65, 2},
		{"i64.shr_s", -16, 2, -4},
		{"i64.shr_u", -16, 60, 15},
		{"i64.rotl", math.MinInt64, 1, 1},
		{"i64.rotr", 1, 1, math.MinInt64},
	}
	for _, tc := range cases {
		got := int64(call1(t, in, tc.op, i64(tc.a), i64(tc.b)))
		if got != tc.want {
			t.Errorf("%s(%d, %d) = %d, want %d", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
	wantTrap(t, in, wasm.TrapIntegerOverflow, "i64.div_s", i64(math.MinInt64), i64(-1))
	wantTrap(t, in, wasm.TrapIntegerDivideByZero, "i64.div_u", i64(1), i64(0))
}

func TestI32Comparisons(t *testing.T) {
	ops := []string{"i32.eq", "i32.ne", "i32.lt_s", "i32.lt_u", "i32.gt_s",
		"i32.gt_u", "i32.le_s", "i32.le_u", "i32.ge_s", "i32.ge_u"}
	in := mustInstance(t, binOpModule("i32", "i32", ops))
	cases := []struct {
		op   string
		a, b int32
		want uint64
	}{
		{"i32.eq", 5, 5, 1},
		{"i32.ne", 5, 5, 0},
		{"i32.lt_s", -1, 0, 1},
		{"i32.lt_u", -1, 0, 0}, // 0xFFFFFFFF not < 0
		{"i32.gt_s", -1, 0, 0},
		{"i32.gt_u", -1, 0, 1},
		{"i32.le_s", 3, 3, 1},
		{"i32.le_u", 4, 3, 0},
		{"i32.ge_s", math.MinInt32, math.MaxInt32, 0},
		{"i32.ge_u", math.MinInt32, math.MaxInt32, 1}, // 0x80000000 >= 0x7FFFFFFF
	}
	for _, tc := range cases {
		if got := call1(t, in, tc.op, i32(tc.a), i32(tc.b)); got != tc.want {
			t.Errorf("%s(%d, %d) = %d, want %d", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCountingOps(t *testing.T) {
	in := mustInstance(t, unOpModule("i32", "i32", []string{"i32.clz", "i32.ctz", "i32.popcnt"})+"")
	if got := call1(t, in, "i32.clz", i32(1)); got != 31 {
		t.Errorf("clz(1) = %d", got)
	}
	if got := call1(t, in, "i32.clz", i32(0)); got != 32 {
		t.Errorf("clz(0) = %d", got)
	}
	if got := call1(t, in, "i32.ctz", i32(0x1000)); got != 12 {
		t.Errorf("ctz(0x1000) = %d", got)
	}
	if got := call1(t, in, "i32.popcnt", i32(-1)); got != 32 {
		t.Errorf("popcnt(-1) = %d", got)
	}
}

func TestSignExtensionOps(t *testing.T) {
	in32 := mustInstance(t, unOpModule("i32", "i32", []string{"i32.extend8_s", "i32.extend16_s"}))
	if got := int32(call1(t, in32, "i32.extend8_s", i32(0x80))); got != -128 {
		t.Errorf("extend8_s(0x80) = %d", got)
	}
	if got := int32(call1(t, in32, "i32.extend16_s", i32(0x8000))); got != -32768 {
		t.Errorf("extend16_s(0x8000) = %d", got)
	}
	in64 := mustInstance(t, unOpModule("i64", "i64", []string{"i64.extend8_s", "i64.extend16_s", "i64.extend32_s"}))
	if got := int64(call1(t, in64, "i64.extend32_s", i64(0x80000000))); got != math.MinInt32 {
		t.Errorf("extend32_s = %d", got)
	}
}

func TestF64Arithmetic(t *testing.T) {
	ops := []string{"f64.add", "f64.sub", "f64.mul", "f64.div", "f64.min", "f64.max", "f64.copysign"}
	in := mustInstance(t, binOpModule("f64", "f64", ops))
	check := func(op string, a, b, want float64) {
		t.Helper()
		got := math.Float64frombits(call1(t, in, op, f64(a), f64(b)))
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Errorf("%s(%v, %v) = %v, want NaN", op, a, b, got)
			}
			return
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s(%v, %v) = %v (bits %x), want %v", op, a, b, got, math.Float64bits(got), want)
		}
	}
	check("f64.add", 1.5, 2.25, 3.75)
	check("f64.div", 1, 0, math.Inf(1))
	check("f64.div", 0, 0, math.NaN())
	check("f64.min", math.Copysign(0, -1), 0, math.Copysign(0, -1)) // min(-0, +0) = -0
	check("f64.max", math.Copysign(0, -1), 0, 0)
	check("f64.min", math.NaN(), 1, math.NaN())
	check("f64.max", 1, math.NaN(), math.NaN())
	check("f64.copysign", 3, -1, -3)
}

func TestF64Unary(t *testing.T) {
	ops := []string{"f64.abs", "f64.neg", "f64.ceil", "f64.floor", "f64.trunc", "f64.nearest", "f64.sqrt"}
	in := mustInstance(t, unOpModule("f64", "f64", ops))
	check := func(op string, a, want float64) {
		t.Helper()
		got := math.Float64frombits(call1(t, in, op, f64(a)))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s(%v) = %v, want %v", op, a, got, want)
		}
	}
	check("f64.abs", -2.5, 2.5)
	check("f64.neg", 2.5, -2.5)
	check("f64.ceil", 2.1, 3)
	check("f64.floor", -2.1, -3)
	check("f64.trunc", -2.9, -2)
	check("f64.nearest", 2.5, 2) // ties to even
	check("f64.nearest", 3.5, 4)
	check("f64.sqrt", 9, 3)
}

func TestTruncations(t *testing.T) {
	src := `(module
	  (func (export "i32s") (param f64) (result i32) local.get 0 i32.trunc_f64_s)
	  (func (export "i32u") (param f64) (result i32) local.get 0 i32.trunc_f64_u)
	  (func (export "i64s") (param f64) (result i64) local.get 0 i64.trunc_f64_s)
	  (func (export "i64u") (param f64) (result i64) local.get 0 i64.trunc_f64_u)
	  (func (export "sat32s") (param f64) (result i32) local.get 0 i32.trunc_sat_f64_s)
	  (func (export "sat32u") (param f64) (result i32) local.get 0 i32.trunc_sat_f64_u)
	  (func (export "sat64s") (param f64) (result i64) local.get 0 i64.trunc_sat_f64_s)
	)`
	in := mustInstance(t, src)
	if got := int32(call1(t, in, "i32s", f64(-2.7))); got != -2 {
		t.Errorf("trunc_f64_s(-2.7) = %d", got)
	}
	if got := int32(call1(t, in, "i32s", f64(2147483647.9))); got != math.MaxInt32 {
		t.Errorf("trunc at upper edge = %d", got)
	}
	wantTrap(t, in, wasm.TrapIntegerOverflow, "i32s", f64(2147483648.0))
	wantTrap(t, in, wasm.TrapIntegerOverflow, "i32u", f64(-1.0))
	wantTrap(t, in, wasm.TrapInvalidConversion, "i32s", f64(math.NaN()))
	wantTrap(t, in, wasm.TrapIntegerOverflow, "i64s", f64(9.3e18))
	if got := int64(call1(t, in, "i64u", f64(1.8e19))); uint64(got) != 18000000000000000000 {
		t.Errorf("trunc_f64_u(1.8e19) = %d", uint64(got))
	}
	// Saturating versions never trap.
	if got := int32(call1(t, in, "sat32s", f64(1e12))); got != math.MaxInt32 {
		t.Errorf("sat32s(1e12) = %d", got)
	}
	if got := int32(call1(t, in, "sat32s", f64(-1e12))); got != math.MinInt32 {
		t.Errorf("sat32s(-1e12) = %d", got)
	}
	if got := int32(call1(t, in, "sat32s", f64(math.NaN()))); got != 0 {
		t.Errorf("sat32s(NaN) = %d", got)
	}
	if got := int32(call1(t, in, "sat32u", f64(-5))); got != 0 {
		t.Errorf("sat32u(-5) = %d", got)
	}
	if got := int64(call1(t, in, "sat64s", f64(1e30))); got != math.MaxInt64 {
		t.Errorf("sat64s(1e30) = %d", got)
	}
}

func TestConversions(t *testing.T) {
	src := `(module
	  (func (export "wrap") (param i64) (result i32) local.get 0 i32.wrap_i64)
	  (func (export "ext_s") (param i32) (result i64) local.get 0 i64.extend_i32_s)
	  (func (export "ext_u") (param i32) (result i64) local.get 0 i64.extend_i32_u)
	  (func (export "conv") (param i64) (result f64) local.get 0 f64.convert_i64_u)
	  (func (export "demote") (param f64) (result f32) local.get 0 f32.demote_f64)
	  (func (export "promote") (param f32) (result f64) local.get 0 f64.promote_f32)
	  (func (export "reinterp") (param f64) (result i64) local.get 0 i64.reinterpret_f64)
	)`
	in := mustInstance(t, src)
	if got := int32(call1(t, in, "wrap", i64(0x1_0000_0005))); got != 5 {
		t.Errorf("wrap = %d", got)
	}
	if got := int64(call1(t, in, "ext_s", i32(-7))); got != -7 {
		t.Errorf("extend_s = %d", got)
	}
	if got := int64(call1(t, in, "ext_u", i32(-7))); got != 0xFFFFFFF9 {
		t.Errorf("extend_u = %d", got)
	}
	if got := math.Float64frombits(call1(t, in, "conv", ^uint64(0))); got != 1.8446744073709552e19 {
		t.Errorf("convert_i64_u(max) = %v", got)
	}
	if got := math.Float32frombits(uint32(call1(t, in, "demote", f64(1.5)))); got != 1.5 {
		t.Errorf("demote = %v", got)
	}
	if got := math.Float64frombits(call1(t, in, "promote", f32(2.5))); got != 2.5 {
		t.Errorf("promote = %v", got)
	}
	if got := call1(t, in, "reinterp", f64(1.0)); got != 0x3FF0000000000000 {
		t.Errorf("reinterpret = %#x", got)
	}
}

func TestMemoryLoadsStores(t *testing.T) {
	src := `(module
	  (memory (export "memory") 1)
	  (func (export "s8") (param i32 i32) local.get 0 local.get 1 i32.store8)
	  (func (export "l8s") (param i32) (result i32) local.get 0 i32.load8_s)
	  (func (export "l8u") (param i32) (result i32) local.get 0 i32.load8_u)
	  (func (export "s16") (param i32 i32) local.get 0 local.get 1 i32.store16)
	  (func (export "l16s") (param i32) (result i32) local.get 0 i32.load16_s)
	  (func (export "l16u") (param i32) (result i32) local.get 0 i32.load16_u)
	  (func (export "s64") (param i32 i64) local.get 0 local.get 1 i64.store)
	  (func (export "l64") (param i32) (result i64) local.get 0 i64.load)
	  (func (export "l32s_64") (param i32) (result i64) local.get 0 i64.load32_s)
	  (func (export "loff") (param i32) (result i32) local.get 0 i32.load offset=16)
	  (func (export "f64rt") (param i32 f64) (result f64)
	    local.get 0 local.get 1 f64.store
	    local.get 0 f64.load)
	)`
	in := mustInstance(t, src)
	if _, err := in.Call("s8", 10, i32(-1)); err != nil {
		t.Fatal(err)
	}
	if got := int32(call1(t, in, "l8s", 10)); got != -1 {
		t.Errorf("l8s = %d", got)
	}
	if got := call1(t, in, "l8u", 10); got != 255 {
		t.Errorf("l8u = %d", got)
	}
	if _, err := in.Call("s16", 20, i32(-2)); err != nil {
		t.Fatal(err)
	}
	if got := int32(call1(t, in, "l16s", 20)); got != -2 {
		t.Errorf("l16s = %d", got)
	}
	if got := call1(t, in, "l16u", 20); got != 0xFFFE {
		t.Errorf("l16u = %d", got)
	}
	if _, err := in.Call("s64", 32, i64(-1234567890123)); err != nil {
		t.Fatal(err)
	}
	if got := int64(call1(t, in, "l64", 32)); got != -1234567890123 {
		t.Errorf("l64 = %d", got)
	}
	// i64.load32_s reads the low 32 bits of the stored value, sign extended.
	stored := int64(-1234567890123)
	if got, want := int64(call1(t, in, "l32s_64", 32)), int64(int32(uint32(uint64(stored)&0xFFFFFFFF))); got != want {
		t.Errorf("l32s_64 = %d, want %d", got, want)
	}
	if got := math.Float64frombits(call1(t, in, "f64rt", 100, f64(3.14))); got != 3.14 {
		t.Errorf("f64 roundtrip = %v", got)
	}
	// Offsets participate in bounds checks; 65536-4+16 overflows.
	wantTrap(t, in, wasm.TrapOutOfBoundsMemory, "loff", i32(65520))
	// Effective address overflow (u32 + offset) must not wrap.
	wantTrap(t, in, wasm.TrapOutOfBoundsMemory, "loff", i32(-4))
}

func TestMemoryGrowAndSize(t *testing.T) {
	src := `(module
	  (memory (export "memory") 1 3)
	  (func (export "size") (result i32) memory.size)
	  (func (export "grow") (param i32) (result i32) local.get 0 memory.grow)
	)`
	in := mustInstance(t, src)
	if got := call1(t, in, "size"); got != 1 {
		t.Fatalf("initial size = %d", got)
	}
	if got := call1(t, in, "grow", 1); got != 1 {
		t.Fatalf("grow returned %d, want previous size 1", got)
	}
	if got := call1(t, in, "size"); got != 2 {
		t.Fatalf("size after grow = %d", got)
	}
	// Growing past the declared max fails with -1.
	if got := int32(call1(t, in, "grow", 5)); got != -1 {
		t.Fatalf("over-max grow returned %d, want -1", got)
	}
	if got := call1(t, in, "size"); got != 2 {
		t.Fatalf("size changed after failed grow: %d", got)
	}
}

func TestHostMemoryCapOverridesModuleMax(t *testing.T) {
	src := `(module (memory (export "memory") 1 100)
	  (func (export "grow") (param i32) (result i32) local.get 0 memory.grow))`
	m := mustModule(t, src)
	cm, err := wasm.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	in, err := cm.Instantiate(nil, wasm.Config{MaxMemoryPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := int32(call1(t, in, "grow", 1)); got != 1 {
		t.Fatalf("grow to cap returned %d", got)
	}
	if got := int32(call1(t, in, "grow", 1)); got != -1 {
		t.Fatalf("grow beyond host cap returned %d, want -1", got)
	}
}

func TestBulkMemory(t *testing.T) {
	src := `(module
	  (memory (export "memory") 1)
	  (data (i32.const 0) "hello")
	  (func (export "copy") (param i32 i32 i32)
	    local.get 0 local.get 1 local.get 2 memory.copy)
	  (func (export "fill") (param i32 i32 i32)
	    local.get 0 local.get 1 local.get 2 memory.fill)
	  (func (export "l8") (param i32) (result i32) local.get 0 i32.load8_u)
	)`
	in := mustInstance(t, src)
	if _, err := in.Call("copy", 100, 0, 5); err != nil {
		t.Fatal(err)
	}
	if got := call1(t, in, "l8", 100); got != 'h' {
		t.Errorf("copied byte = %c", rune(got))
	}
	// Overlapping copy must behave like memmove.
	if _, err := in.Call("copy", 1, 0, 4); err != nil {
		t.Fatal(err)
	}
	if got := call1(t, in, "l8", 4); got != 'l' {
		t.Errorf("overlap copy: byte 4 = %c, want l", rune(got))
	}
	if _, err := in.Call("fill", 200, 'x', 10); err != nil {
		t.Fatal(err)
	}
	if got := call1(t, in, "l8", 209); got != 'x' {
		t.Errorf("fill: byte 209 = %c", rune(got))
	}
	wantTrap(t, in, wasm.TrapOutOfBoundsMemory, "copy", i32(65530), i32(0), i32(100))
	wantTrap(t, in, wasm.TrapOutOfBoundsMemory, "fill", i32(65530), i32(0), i32(100))
}

func TestGlobals(t *testing.T) {
	src := `(module
	  (global $counter (mut i64) (i64.const 10))
	  (global $ro f64 (f64.const 2.5))
	  (export "counter" (global $counter))
	  (func (export "bump") (result i64)
	    global.get $counter i64.const 1 i64.add global.set $counter
	    global.get $counter)
	  (func (export "ro") (result f64) global.get $ro)
	)`
	in := mustInstance(t, src)
	if got := int64(call1(t, in, "bump")); got != 11 {
		t.Fatalf("bump = %d", got)
	}
	if got := int64(call1(t, in, "bump")); got != 12 {
		t.Fatalf("bump = %d", got)
	}
	if v, ok := in.GlobalValue("counter"); !ok || v != 12 {
		t.Fatalf("exported global = %d (%v)", v, ok)
	}
	if got := math.Float64frombits(call1(t, in, "ro")); got != 2.5 {
		t.Fatalf("ro = %v", got)
	}
}

func TestCallStackExhaustion(t *testing.T) {
	src := `(module (func $r (export "r") (result i32) call $r))`
	in := mustInstance(t, src)
	wantTrap(t, in, wasm.TrapCallStackExhausted, "r")
}

func TestFuelMetering(t *testing.T) {
	src := `(module (func (export "spin")
	  (loop $top br $top)))`
	m := mustModule(t, src)
	cm, err := wasm.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	in, err := cm.Instantiate(nil, wasm.Config{MeterFuel: true})
	if err != nil {
		t.Fatal(err)
	}
	in.SetFuel(10_000)
	_, err = in.Call("spin")
	var trap *wasm.Trap
	if !errors.As(err, &trap) || trap.Code != wasm.TrapFuelExhausted {
		t.Fatalf("want fuel trap, got %v", err)
	}
	if in.InstrCount == 0 {
		t.Fatal("instruction counter not advanced")
	}
}

func TestSelectAndDrop(t *testing.T) {
	src := `(module
	  (func (export "sel") (param i32 i64 i64) (result i64)
	    local.get 1 local.get 2 local.get 0 select)
	  (func (export "dropper") (result i32)
	    i32.const 1 i32.const 2 drop)
	)`
	in := mustInstance(t, src)
	if got := call1(t, in, "sel", 1, 111, 222); got != 111 {
		t.Fatalf("select(true) = %d", got)
	}
	if got := call1(t, in, "sel", 0, 111, 222); got != 222 {
		t.Fatalf("select(false) = %d", got)
	}
	if got := call1(t, in, "dropper"); got != 1 {
		t.Fatalf("drop = %d", got)
	}
}

func TestLoopWithBlockParamsViaLocals(t *testing.T) {
	// Sum 1..n through a loop with explicit branching both ways.
	src := `(module (func (export "sum") (param $n i32) (result i32)
	  (local $i i32) (local $s i32)
	  block $exit
	    loop $top
	      local.get $i local.get $n i32.gt_u br_if $exit
	      local.get $s local.get $i i32.add local.set $s
	      local.get $i i32.const 1 i32.add local.set $i
	      br $top
	    end
	  end
	  local.get $s))`
	in := mustInstance(t, src)
	if got := call1(t, in, "sum", 100); got != 5050 {
		t.Fatalf("sum(100) = %d", got)
	}
	if got := call1(t, in, "sum", 0); got != 0 {
		t.Fatalf("sum(0) = %d", got)
	}
}

func TestStartFunctionRuns(t *testing.T) {
	src := `(module
	  (global $g (mut i32) (i32.const 0))
	  (export "g" (global $g))
	  (func $init (global.set $g (i32.const 99)))
	  (start $init)
	  (memory (export "memory") 1))`
	in := mustInstance(t, src)
	if v, _ := in.GlobalValue("g"); v != 99 {
		t.Fatalf("start did not run: g = %d", v)
	}
}

// loopingStartWAT is a module whose start function never returns.
const loopingStartWAT = `(module (func $s (loop $l (br $l))) (start $s))`

// TestMeteredStartFunctionRunsOutOfFuel: under MeterFuel a start function
// runs on StartFuel, so a looping one fails Instantiate with a fuel trap
// on both tiers instead of hanging it; a start function that returns is
// counted in InstrCount and leaves the fuel unlimited until SetFuel.
func TestMeteredStartFunctionRunsOutOfFuel(t *testing.T) {
	loop, err := wat.Compile(loopingStartWAT)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := wasm.Compile(loop)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := wat.Compile(`(module
	  (global $g (mut i32) (i32.const 0))
	  (func $init (global.set $g (i32.const 99)))
	  (start $init))`)
	if err != nil {
		t.Fatal(err)
	}
	okCM, err := wasm.Compile(ok)
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []wasm.Tier{wasm.TierInterp, wasm.TierClosure} {
		done := make(chan error, 1)
		go func() {
			_, err := cm.Instantiate(nil, wasm.Config{MeterFuel: true, Tier: tier})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, &wasm.Trap{Code: wasm.TrapFuelExhausted}) {
				t.Fatalf("%v: Instantiate = %v, want a wrapped fuel trap", tier, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%v: metered Instantiate of a looping start function did not return", tier)
		}

		in, err := okCM.Instantiate(nil, wasm.Config{MeterFuel: true, Tier: tier})
		if err != nil {
			t.Fatal(err)
		}
		if in.InstrCount == 0 || in.InstrCount >= wasm.StartFuel {
			t.Fatalf("%v: InstrCount = %d after the start function, want its few instructions", tier, in.InstrCount)
		}
		if f := in.Fuel(); f != -1 {
			t.Fatalf("%v: fuel after Instantiate = %d, want -1 (unlimited until SetFuel)", tier, f)
		}
	}
}

func TestCallIndirectTraps(t *testing.T) {
	src := `(module
	  (type $void (func))
	  (type $bin (func (param i32 i32) (result i32)))
	  (table 4 funcref)
	  (elem (i32.const 0) $nop)
	  (func $nop)
	  (func (export "bad_type") (result i32)
	    i32.const 1 i32.const 2 i32.const 0 call_indirect (type $bin))
	  (func (export "oob")
	    i32.const 9 call_indirect (type $void))
	  (func (export "uninit")
	    i32.const 2 call_indirect (type $void))
	)`
	in := mustInstance(t, src)
	wantTrap(t, in, wasm.TrapIndirectCallTypeMismatch, "bad_type")
	wantTrap(t, in, wasm.TrapOutOfBoundsTable, "oob")
	wantTrap(t, in, wasm.TrapUninitializedElement, "uninit")
}
