package wasm_test

import (
	"errors"
	"testing"

	"waran/internal/wasm"
	"waran/internal/wat"
)

// allTiers are the two execution tiers under the bit-identity contract: the
// reference interpreter first, then the production closure tier.
var allTiers = []wasm.Tier{wasm.TierInterp, wasm.TierClosure}

// tierInstance compiles src once per call and instantiates it on tier.
func tierInstance(t *testing.T, src string, tier wasm.Tier, cfg wasm.Config) *wasm.Instance {
	t.Helper()
	m, err := wat.Compile(src)
	if err != nil {
		t.Fatalf("wat: %v", err)
	}
	cm, err := wasm.Compile(m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg.Tier = tier
	in, err := cm.Instantiate(nil, cfg)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	return in
}

// tierRun captures everything the bit-identity contract covers for one call.
type tierRun struct {
	res        []uint64
	trap       wasm.TrapCode // 0 = no trap
	instrCount uint64
	fuelLeft   int64
}

func runOnTier(t *testing.T, src string, tier wasm.Tier, fuel int64, fn string, args ...uint64) tierRun {
	t.Helper()
	in := tierInstance(t, src, tier, wasm.Config{MeterFuel: true})
	in.SetFuel(fuel)
	res, err := in.Call(fn, args...)
	r := tierRun{res: res, instrCount: in.InstrCount, fuelLeft: in.Fuel()}
	if err != nil {
		var trap *wasm.Trap
		if !errors.As(err, &trap) {
			t.Fatalf("tier %v: non-trap error: %v", tier, err)
		}
		r.trap = trap.Code
	}
	if got := in.EffectiveTier(); got != tier {
		t.Fatalf("EffectiveTier = %v, want %v", got, tier)
	}
	return r
}

// assertTiersAgree runs one call on both tiers and requires identical
// results, trap classes, instruction counts and remaining fuel.
func assertTiersAgree(t *testing.T, src string, fuel int64, fn string, args ...uint64) tierRun {
	t.Helper()
	base := runOnTier(t, src, wasm.TierInterp, fuel, fn, args...)
	for _, tier := range allTiers[1:] {
		got := runOnTier(t, src, tier, fuel, fn, args...)
		if got.trap != base.trap {
			t.Errorf("%s%v on %v: trap %v, interp has %v", fn, args, tier, got.trap, base.trap)
		}
		if len(got.res) != len(base.res) {
			t.Fatalf("%s%v on %v: %d results, interp has %d", fn, args, tier, len(got.res), len(base.res))
		}
		for i := range got.res {
			if got.res[i] != base.res[i] {
				t.Errorf("%s%v on %v: result[%d] = %#x, interp has %#x", fn, args, tier, i, got.res[i], base.res[i])
			}
		}
		if got.instrCount != base.instrCount {
			t.Errorf("%s%v on %v: InstrCount %d, interp has %d", fn, args, tier, got.instrCount, base.instrCount)
		}
		if got.fuelLeft != base.fuelLeft {
			t.Errorf("%s%v on %v: fuel left %d, interp has %d", fn, args, tier, got.fuelLeft, base.fuelLeft)
		}
	}
	return base
}

// tierCorpusWAT exercises the operand folding of the closure tier plus the
// paths it must not break: loops over memory, mixed-width arithmetic, traps,
// calls, branch tables, floats, and the folding hazards — a pending or held
// local overwritten before its consumer, a folded local.set after a trapping
// load, operands pending across a branch target, dropped and selected
// operands.
const tierCorpusWAT = `(module
  (memory (export "memory") 1 4)
  (table 2 funcref)
  (elem (i32.const 0) $sum $fib)
  (global $g (mut i32) (i32.const 0))

  ;; Writes i*i at 4*i for i in [0,n), then sums the array: folded
  ;; operands into stores, loads, compares that branch and local.set.
  (func $sum (export "sum") (param $n i32) (result i32)
    (local $i i32) (local $acc i32) (local $p i32)
    (block $done
      (loop $fill
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (i32.store (i32.mul (local.get $i) (i32.const 4))
                   (i32.mul (local.get $i) (local.get $i)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $fill)))
    (local.set $i (i32.const 0))
    (block $done2
      (loop $acc2
        (br_if $done2 (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $p (i32.mul (local.get $i) (i32.const 4)))
        (local.set $acc (i32.add (local.get $acc) (i32.load (local.get $p))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $acc2)))
    local.get $acc)

  ;; Recursive call tree: exercises call boundaries on both tiers.
  (func $fib (export "fib") (param $n i32) (result i32)
    (if (result i32) (i32.lt_u (local.get $n) (i32.const 2))
      (then (local.get $n))
      (else (i32.add
        (call $fib (i32.sub (local.get $n) (i32.const 1)))
        (call $fib (i32.sub (local.get $n) (i32.const 2)))))))

  ;; Indirect dispatch through the table.
  (func (export "via_table") (param $idx i32) (param $arg i32) (result i32)
    (call_indirect (type $unary) (local.get $arg) (local.get $idx)))
  (type $unary (func (param i32) (result i32)))

  ;; Trap sites: division, OOB access, unreachable, memory.grow results.
  (func (export "div") (param i32 i32) (result i32)
    local.get 0 local.get 1 i32.div_s)
  (func (export "load_at") (param i32) (result i32)
    local.get 0 i32.load)
  (func (export "boom") unreachable)
  (func (export "grow") (param i32) (result i32)
    local.get 0 memory.grow)

  ;; Branch table with fall-through.
  (func (export "route") (param i32) (result i32)
    (block $b2
      (block $b1
        (block $b0
          (br_table $b0 $b1 $b2 (local.get 0)))
        (return (i32.const 10)))
      (return (i32.const 20)))
    (i32.const 30))

  ;; Float and 64-bit mix.
  (func (export "mix") (param $x f64) (param $k i64) (result f64)
    (f64.add (f64.mul (local.get $x) (f64.convert_i64_s (local.get $k)))
             (f64.sqrt (local.get $x))))

  ;; Globals + tee + select, with an eqz-guarded branch.
  (func (export "gsel") (param $c i32) (result i32)
    (global.set $g (i32.add (global.get $g) (i32.const 1)))
    (block $z (result i32)
      (br_if $z (global.get $g) (i32.eqz (local.get $c)))
      (drop)
      (select (i32.const 100) (i32.const 200) (local.get $c))))

  ;; A local.tee, then a local.set, of x between a pending local.get x and
  ;; its consumer: the consumer must see the old x.
  (func (export "tee_between") (param $x i32) (result i32)
    (i32.add (local.get $x) (local.tee $x (i32.mul (local.get $x) (i32.const 3)))))
  (func (export "set_between") (param $x i32) (result i32)
    (i32.sub (local.get $x)
      (block (result i32) (local.set $x (i32.const 5)) (i32.add (local.get $x) (i32.const 1)))))
  ;; A store whose address local is rewritten by its own value expression.
  (func (export "store_tee") (param $p i32) (result i32)
    (i32.store (local.get $p) (local.tee $p (i32.add (local.get $p) (i32.const 8))))
    (i32.load (i32.const 0)))

  ;; A folded local.set after a load that traps out of bounds, and a folded
  ;; local.tee after one that does not.
  (func (export "load_set") (param $a i32) (result i32) (local $v i32)
    (local.set $v (i32.load offset=4 (local.get $a)))
    (i32.add (local.tee $v (i32.load (local.get $a))) (local.get $v)))

  ;; Operands pending across branch targets: a block end reached by a
  ;; branch, and a loop head.
  (func (export "pend_target") (param $x i32) (param $c i32) (result i32)
    (local $i i32)
    (i32.add (local.get $x)
      (block $b (result i32)
        (drop (br_if $b (i32.const 7) (local.get $c)))
        (i32.const 9)))
    (i32.add (local.get $x)
      (loop $l (result i32)
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br_if $l (i32.lt_u (local.get $i) (i32.const 3)))
        (local.get $i)))
    (i32.add))

  ;; Drops of a pending local and constant, and selects over folded
  ;; operands.
  (func (export "drop_sel") (param $a i32) (param $b i32) (param $c i32) (result i32)
    (drop (local.get $a))
    (drop (i32.const 1))
    (i32.add
      (select (local.get $a) (local.get $b) (local.get $c))
      (select (i32.const 10) (i32.const 20) (local.get $c))))

  ;; i64 and f64 binops over local and constant operands, into the stack, a
  ;; local and a branch; the division into a local.set can trap.
  (func (export "wide") (param $k i64) (param $d i64) (param $x f64) (result f64)
    (local $q i64) (local $y f64)
    (local.set $y (f64.sub (local.get $x) (f64.const 0.5)))
    (local.set $q (i64.div_s (i64.mul (local.get $k) (i64.const 3)) (local.get $d)))
    (block $neg
      (br_if $neg (i64.lt_s (local.get $q) (i64.const 0)))
      (local.set $y (f64.mul (local.get $y) (f64.convert_i64_s (local.get $q)))))
    (f64.add (local.get $y) (f64.convert_i64_s (i64.rem_u (local.get $k) (i64.const 7)))))
)`

// tierHazards are the corpus calls of the folding hazards above, each run
// at every fuel boundary by TestTierFuelSweepHazards. want, where set, is
// the result worked out by hand, so a mistake both tiers shared would
// still show.
var tierHazards = []struct {
	fn   string
	args []uint64
	want uint64
}{
	{"tee_between", []uint64{7}, 28},
	{"set_between", []uint64{40}, 34},
	{"store_tee", []uint64{0}, 8},
	{"store_tee", []uint64{65533}, 0}, // the store traps out of bounds
	{"load_set", []uint64{0}, 0},
	{"load_set", []uint64{65532}, 0}, // the first load traps out of bounds
	{"pend_target", []uint64{100, 1}, 210},
	{"pend_target", []uint64{100, 0}, 212},
	{"drop_sel", []uint64{3, 4, 0}, 24},
	{"drop_sel", []uint64{3, 4, 1}, 13},
	{"wide", []uint64{i64(-9), i64(2), f64(1.25)}, 0},
	{"wide", []uint64{i64(9), i64(2), f64(1.25)}, 0},
	{"wide", []uint64{i64(9), 0, f64(1.25)}, 0}, // division by zero
}

func TestTierEquivalence(t *testing.T) {
	const fuel = 1 << 20
	cases := []struct {
		fn   string
		args []uint64
	}{
		{"sum", []uint64{0}},
		{"sum", []uint64{1}},
		{"sum", []uint64{37}},
		{"fib", []uint64{10}},
		{"via_table", []uint64{0, 9}},
		{"via_table", []uint64{1, 9}},
		{"via_table", []uint64{5, 9}}, // out-of-bounds table index
		{"div", []uint64{i32(-7), 2}},
		{"div", []uint64{7, 0}},                      // divide by zero
		{"div", []uint64{i32(-2147483648), i32(-1)}}, // overflow
		{"load_at", []uint64{0}},
		{"load_at", []uint64{65536}}, // out of bounds
		{"boom", nil},
		{"grow", []uint64{1}},
		{"grow", []uint64{0xFFFFFFFF}}, // must fail, not wrap
		{"route", []uint64{0}},
		{"route", []uint64{1}},
		{"route", []uint64{2}},
		{"route", []uint64{9}},
		{"mix", []uint64{f64(2.25), i64(-3)}},
		{"gsel", []uint64{0}},
		{"gsel", []uint64{4}},
	}
	for _, tc := range cases {
		assertTiersAgree(t, tierCorpusWAT, fuel, tc.fn, tc.args...)
	}
	for _, tc := range tierHazards {
		got := assertTiersAgree(t, tierCorpusWAT, fuel, tc.fn, tc.args...)
		if tc.want != 0 && (got.trap != 0 || got.res[0] != tc.want) {
			t.Errorf("%s%v = %v (trap %v), want %d", tc.fn, tc.args, got.res, got.trap, tc.want)
		}
	}
}

// TestTierFuelSweepHazards runs every folding hazard at every fuel value
// from 0 to its cost + 2: trap class, InstrCount and fuel left must match
// the interpreter at each boundary, including the ones inside ops that
// fold several instructions.
func TestTierFuelSweepHazards(t *testing.T) {
	for _, tc := range tierHazards {
		cost := runOnTier(t, tierCorpusWAT, wasm.TierInterp, 1<<20, tc.fn, tc.args...).instrCount
		for fuel := int64(0); fuel <= int64(cost)+2; fuel++ {
			assertTiersAgree(t, tierCorpusWAT, fuel, tc.fn, tc.args...)
		}
	}
}

// TestTierFuelSweep pins the exhaustion boundary: for every fuel value from
// 0 up past the guest's exact cost, both tiers must agree on trap class,
// InstrCount (== fuel consumed, even at the trap boundary) and remaining
// fuel. This is the regression test for the fuel off-by-one: InstrCount at
// exhaustion used to count the instruction that never ran.
func TestTierFuelSweep(t *testing.T) {
	const fn = "sum"
	args := []uint64{5}
	// Discover the exact cost on the baseline tier.
	full := runOnTier(t, tierCorpusWAT, wasm.TierInterp, 1<<20, fn, args...)
	if full.trap != 0 {
		t.Fatalf("baseline run trapped: %v", full.trap)
	}
	cost := full.instrCount
	if cost == 0 || cost > 4096 {
		t.Fatalf("unexpected baseline cost %d", cost)
	}
	for fuel := int64(0); fuel <= int64(cost)+2; fuel++ {
		base := runOnTier(t, tierCorpusWAT, wasm.TierInterp, fuel, fn, args...)
		// The boundary invariant, independent of tier agreement:
		if fuel < int64(cost) {
			if base.trap != wasm.TrapFuelExhausted {
				t.Fatalf("fuel %d: trap %v, want fuel exhaustion", fuel, base.trap)
			}
			if base.instrCount != uint64(fuel) {
				t.Fatalf("fuel %d: InstrCount %d, want %d (count only paid instructions)", fuel, base.instrCount, fuel)
			}
			if base.fuelLeft != 0 {
				t.Fatalf("fuel %d: %d fuel left after exhaustion", fuel, base.fuelLeft)
			}
		} else {
			if base.trap != 0 || base.instrCount != cost || base.fuelLeft != fuel-int64(cost) {
				t.Fatalf("fuel %d: trap %v count %d left %d, want clean run of %d", fuel, base.trap, base.instrCount, base.fuelLeft, cost)
			}
		}
		for _, tier := range allTiers[1:] {
			got := runOnTier(t, tierCorpusWAT, tier, fuel, fn, args...)
			if got.trap != base.trap || got.instrCount != base.instrCount || got.fuelLeft != base.fuelLeft {
				t.Fatalf("fuel %d on %v: (trap %v, count %d, left %d) vs interp (%v, %d, %d)",
					fuel, tier, got.trap, got.instrCount, got.fuelLeft, base.trap, base.instrCount, base.fuelLeft)
			}
		}
	}
}

// TestTierFixedAtInstantiation covers tier resolution: a zero Config runs on
// the closure tier from its first call, Config.Tier = TierInterp selects the
// reference interpreter, instances of one module on different tiers do not
// affect each other, and an out-of-range tier is refused.
func TestTierFixedAtInstantiation(t *testing.T) {
	m, err := wat.Compile(`(module (func (export "f") (result i32) (i32.const 3)))`)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := wasm.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := cm.Instantiate(nil, wasm.Config{Tier: wasm.TierInterp})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := cm.Instantiate(nil, wasm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, in := range []*wasm.Instance{prod, oracle} {
			if got, err := in.Call("f"); err != nil || got[0] != 3 {
				t.Fatalf("call %d on %v: %v %v", i, in.EffectiveTier(), got, err)
			}
		}
		if got := prod.EffectiveTier(); got != wasm.TierClosure {
			t.Fatalf("call %d: zero Config ran on %v, want closure", i, got)
		}
		if got := oracle.EffectiveTier(); got != wasm.TierInterp {
			t.Fatalf("call %d: TierInterp instance ran on %v", i, got)
		}
	}
	if got := wasm.TierClosure.String() + "/" + wasm.TierInterp.String(); got != "closure/interp" {
		t.Fatalf("tier names %q", got)
	}
	if _, err := cm.Instantiate(nil, wasm.Config{Tier: wasm.NumTiers}); err == nil {
		t.Fatal("out-of-range tier instantiated")
	}
}

// TestMemoryGrowOverflow is the table-driven regression test for the Grow
// size check: deltas near 2^32 must fail cleanly instead of wrapping the
// page arithmetic.
func TestMemoryGrowOverflow(t *testing.T) {
	cases := []struct {
		name     string
		min, max uint32
		grows    []uint32 // applied in order
		delta    uint32
		wantPrev uint32
		wantOK   bool
	}{
		{name: "zero delta", min: 1, max: 4, delta: 0, wantPrev: 1, wantOK: true},
		{name: "simple grow", min: 1, max: 4, delta: 2, wantPrev: 1, wantOK: true},
		{name: "exact to max", min: 1, max: 4, delta: 3, wantPrev: 1, wantOK: true},
		{name: "one past max", min: 1, max: 4, delta: 4, wantPrev: 1, wantOK: false},
		{name: "huge delta", min: 1, max: 4, delta: 0xFFFFFFFF, wantPrev: 1, wantOK: false},
		{name: "wrap32 attempt", min: 2, max: 4, delta: 0xFFFFFFFE, wantPrev: 2, wantOK: false},
		{name: "wrap to exact max", min: 4, max: 4, delta: 0xFFFFFFFC, wantPrev: 4, wantOK: false},
		{name: "after growth", min: 1, max: 8, grows: []uint32{3}, delta: 0xFFFFFFFD, wantPrev: 4, wantOK: false},
		{name: "max pages clamp", min: 0, max: 0xFFFFFFFF, delta: 0xFFFFFFFF, wantPrev: 0, wantOK: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := wasm.NewMemory(tc.min, tc.max)
			for _, g := range tc.grows {
				if _, ok := m.Grow(g); !ok {
					t.Fatalf("setup grow %d failed", g)
				}
			}
			prev, ok := m.Grow(tc.delta)
			if prev != tc.wantPrev || ok != tc.wantOK {
				t.Fatalf("Grow(%#x) = (%d, %v), want (%d, %v)", tc.delta, prev, ok, tc.wantPrev, tc.wantOK)
			}
			if !tc.wantOK && m.Size() != tc.wantPrev {
				t.Fatalf("failed grow changed size to %d", m.Size())
			}
		})
	}
}

// TestTierEquivalenceUnfueled runs the corpus without metering: the fuel-free
// dispatch loops must produce the same results and traps.
func TestTierEquivalenceUnfueled(t *testing.T) {
	run := func(tier wasm.Tier, fn string, args ...uint64) ([]uint64, wasm.TrapCode) {
		in := tierInstance(t, tierCorpusWAT, tier, wasm.Config{})
		res, err := in.Call(fn, args...)
		if err != nil {
			var trap *wasm.Trap
			if !errors.As(err, &trap) {
				t.Fatalf("tier %v: %v", tier, err)
			}
			return res, trap.Code
		}
		return res, 0
	}
	cases := []struct {
		fn   string
		args []uint64
	}{
		{"sum", []uint64{37}},
		{"fib", []uint64{12}},
		{"div", []uint64{7, 0}},
		{"route", []uint64{1}},
		{"mix", []uint64{f64(9.0), i64(2)}},
	}
	for _, tc := range cases {
		baseRes, baseTrap := run(wasm.TierInterp, tc.fn, tc.args...)
		for _, tier := range allTiers[1:] {
			res, trap := run(tier, tc.fn, tc.args...)
			if trap != baseTrap {
				t.Errorf("%s on %v: trap %v vs %v", tc.fn, tier, trap, baseTrap)
			}
			for i := range res {
				if res[i] != baseRes[i] {
					t.Errorf("%s on %v: result %#x vs %#x", tc.fn, tier, res[i], baseRes[i])
				}
			}
		}
	}
}

// TestCallDepthRestoredAfterTraps: the call path decrements the depth only
// on return, with no defer, so a trap unwinds past every decrement and
// Instance.call restores the depth it entered at. After a call that
// exhausts the call stack, a trap two calls deep and a failing host call,
// the same instance still reaches exactly MaxCallDepth, on both tiers.
func TestCallDepthRestoredAfterTraps(t *testing.T) {
	const src = `(module
	  (import "env" "fail" (func $fail))
	  (func $rec (export "rec") (param $n i32) (result i32)
	    (if (result i32) (i32.eqz (local.get $n))
	      (then (i32.const 0))
	      (else (i32.add (call $rec (i32.sub (local.get $n) (i32.const 1))) (i32.const 1)))))
	  (func $boom unreachable)
	  (func (export "trap2") (call $boom))
	  (func (export "host2") (call $fail)))`
	const depth = 50
	imports := wasm.Imports{"env": {"fail": &wasm.HostFunc{Name: "fail",
		Fn: func(*wasm.CallContext, []uint64) ([]uint64, error) { return nil, errors.New("host says no") }}}}
	m, err := wat.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := wasm.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	trapOf := func(err error) wasm.TrapCode {
		var trap *wasm.Trap
		if !errors.As(err, &trap) {
			t.Fatalf("want a trap, got %v", err)
		}
		return trap.Code
	}
	for _, tier := range allTiers {
		in, err := cm.Instantiate(imports, wasm.Config{MaxCallDepth: depth, Tier: tier})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			if _, err := in.Call("rec", depth); trapOf(err) != wasm.TrapCallStackExhausted {
				t.Fatalf("%v round %d: rec(%d) = %v, want call stack exhausted", tier, round, depth, err)
			}
			if _, err := in.Call("trap2"); trapOf(err) != wasm.TrapUnreachable {
				t.Fatalf("%v round %d: trap2 = %v", tier, round, err)
			}
			if _, err := in.Call("host2"); trapOf(err) != wasm.TrapHostError {
				t.Fatalf("%v round %d: host2 = %v", tier, round, err)
			}
			if got, err := in.Call("rec", depth-1); err != nil || got[0] != depth-1 {
				t.Fatalf("%v round %d: rec(%d) at full depth = %v, %v", tier, round, depth-1, got, err)
			}
		}
	}
}
