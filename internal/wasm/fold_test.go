package wasm_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"waran/internal/plugins"
	"waran/internal/wasm"
	"waran/internal/wat"
)

// tierState is everything a call may leave behind that the tiers must agree
// on: results, trap class, InstrCount, fuel left and the memory bytes.
type tierState struct {
	res        []uint64
	err        string // trap class, or a non-trap error
	instrCount uint64
	fuelLeft   int64
	mem        []byte
}

func callState(in *wasm.Instance, fn string, args ...uint64) tierState {
	res, err := in.Call(fn, args...)
	st := tierState{res: res, instrCount: in.InstrCount, fuelLeft: in.Fuel()}
	var trap *wasm.Trap
	switch {
	case errors.As(err, &trap):
		st.err = "trap:" + trap.Code.String()
	case err != nil:
		st.err = err.Error()
	}
	st.mem = memBytes(in)
	return st
}

func memBytes(in *wasm.Instance) []byte {
	if m := in.Memory(); m != nil {
		b, _ := m.Read(0, uint32(m.Len()))
		return b
	}
	return nil
}

func (s tierState) diff(o tierState) string {
	switch {
	case s.err != o.err:
		return fmt.Sprintf("outcome %q vs %q", s.err, o.err)
	case fmt.Sprint(s.res) != fmt.Sprint(o.res):
		return fmt.Sprintf("results %#x vs %#x", s.res, o.res)
	case s.instrCount != o.instrCount || s.fuelLeft != o.fuelLeft:
		return fmt.Sprintf("InstrCount/fuel %d/%d vs %d/%d", s.instrCount, s.fuelLeft, o.instrCount, o.fuelLeft)
	case !bytes.Equal(s.mem, o.mem):
		return "memory differs"
	}
	return ""
}

// shapeType holds, per value type, the expressions the shape matrix builds
// operands from: a constant, and a value of parameter p computed on the
// stack (it folds nothing away, so the operand arrives from the stack
// without a call, which would push every pending operand).
var shapeType = map[string]struct{ konst, stacked string }{
	"i32": {"(i32.const 7)", "(i32.xor (local.get %d) (i32.const 0))"},
	"i64": {"(i64.const -7)", "(i64.xor (local.get %d) (i64.const 0))"},
	"f32": {"(f32.const 2.5)", "(f32.neg (f32.neg (local.get %d)))"},
	"f64": {"(f64.const -2.5)", "(f64.neg (f64.neg (local.get %d)))"},
}

func shapeOperand(typ string, src byte, p int) string {
	switch src {
	case 's':
		return fmt.Sprintf(shapeType[typ].stacked, p)
	case 'l':
		return fmt.Sprintf("(local.get %d)", p)
	}
	return shapeType[typ].konst
}

// shapeBodies wraps expression x, of type out, in each destination a
// lowered op can fold — the stack, local.set, local.tee, and for i32 br_if
// and if — and gives each body's result type. Local 2 is the destination
// local.
func shapeBodies(x, out string) [][2]string {
	bodies := [][2]string{
		{x, out},
		{fmt.Sprintf("(local.set 2 %s) (local.get 2)", x), out},
		{fmt.Sprintf("(local.tee 2 %s)", x), out},
	}
	if out == "i32" {
		bodies = append(bodies,
			[2]string{fmt.Sprintf("(block $b (br_if $b %s) (return (i32.const 100))) (i32.const 200)", x), "i32"},
			[2]string{fmt.Sprintf("(if (result i32) %s (then (i32.const 100)) (else (i32.const 200)))", x), "i32"})
	}
	return bodies
}

// TestTierShapeMatrix runs every operand shape and destination the folding
// lowering has a template for, over ops from every per-opcode table, on
// both tiers and at every fuel boundary: results, trap class, InstrCount,
// fuel left and memory must be identical.
func TestTierShapeMatrix(t *testing.T) {
	type fn struct {
		name, params, result string
		args                 [][]uint64
	}
	var funcs []fn
	var src strings.Builder
	src.WriteString("(module (memory 1) (data (i32.const 0) \"\\01\\82\\03\\f4\\05\\06\\07\\08\\00\\00\\f8\\7f\")\n")
	add := func(params, result, local, body string, args [][]uint64) {
		name := fmt.Sprintf("f%d", len(funcs))
		fmt.Fprintf(&src, "(func (export %q) (param %s) (result %s) (local %s) %s)\n", name, params, result, local, body)
		funcs = append(funcs, fn{name, params, result, args})
	}
	bins := []struct {
		op, in, out string
		args        [][]uint64
	}{
		{"i32.add", "i32", "i32", [][]uint64{{5, 9}, {0xFFFFFFFF, 2}}},
		{"i32.div_s", "i32", "i32", [][]uint64{{i32(-7), 2}, {5, 0}, {i32(math.MinInt32), i32(-1)}}},
		{"i32.lt_u", "i32", "i32", [][]uint64{{3, 4}, {4, 3}}},
		{"i64.sub", "i64", "i64", [][]uint64{{5, 9}}},
		{"i64.rem_u", "i64", "i64", [][]uint64{{17, 5}, {1, 0}}},
		{"i64.gt_s", "i64", "i32", [][]uint64{{i64(-1), 1}, {1, i64(-1)}}},
		{"f32.mul", "f32", "f32", [][]uint64{{f32(1.5), f32(-2)}}},
		{"f64.div", "f64", "f64", [][]uint64{{f64(1), 0}, {f64(-3), f64(2)}}},
		{"f64.lt", "f64", "i32", [][]uint64{{f64(math.NaN()), f64(1)}, {f64(0.5), f64(1)}}},
	}
	for _, b := range bins {
		// Shapes: first operand stack or local, second stack, local or
		// constant, plus "ls" — a local held beneath a value computed on
		// the stack above it.
		for _, sh := range []string{"ss", "sl", "sc", "ls", "ll", "lc", "cl", "cc"} {
			x := fmt.Sprintf("(%s %s %s)", b.op, shapeOperand(b.in, sh[0], 0), shapeOperand(b.in, sh[1], 1))
			for _, body := range shapeBodies(x, b.out) {
				add(b.in+" "+b.in, body[1], b.out, body[0], b.args)
			}
		}
	}
	uns := []struct {
		op, in, out string
		args        [][]uint64
	}{
		{"i32.clz", "i32", "i32", [][]uint64{{0x00F0}}},
		{"i32.eqz", "i32", "i32", [][]uint64{{0}, {3}}},
		{"i64.eqz", "i64", "i32", [][]uint64{{0}, {1 << 40}}},
		{"i64.extend_i32_s", "i32", "i64", [][]uint64{{i32(-3)}}},
		{"i32.wrap_i64", "i64", "i32", [][]uint64{{1<<40 | 5}}},
		{"f64.sqrt", "f64", "f64", [][]uint64{{f64(2)}}},
		{"i32.trunc_f64_s", "f64", "i32", [][]uint64{{f64(-3.7)}, {f64(math.NaN())}, {f64(1e10)}}},
		{"f32.demote_f64", "f64", "f32", [][]uint64{{f64(1.1)}}},
	}
	for _, u := range uns {
		for _, sh := range []byte("slc") {
			for _, body := range shapeBodies(fmt.Sprintf("(%s %s)", u.op, shapeOperand(u.in, sh, 0)), u.out) {
				add(u.in+" "+u.in, body[1], u.out, body[0], pad(u.args))
			}
		}
	}
	for _, ld := range []struct{ op, out string }{{"i32.load", "i32"}, {"i64.load8_s", "i64"}, {"f64.load offset=4", "f64"}, {"i32.load16_u", "i32"}} {
		for _, sh := range []byte("slc") {
			for _, body := range shapeBodies(fmt.Sprintf("(%s %s)", ld.op, shapeOperand("i32", sh, 0)), ld.out)[:3] {
				add("i32 i32", body[1], ld.out, body[0], [][]uint64{{0, 0}, {1, 0}, {65535, 0}})
			}
		}
	}
	// A local held beneath a loaded value that goes through two unary ops,
	// and one held above a stack value that a binary op takes with it.
	add("i32 i32", "i32", "i32", "(i32.add (local.get 0) (i32.wrap_i64 (i64.extend_i32_u (i32.load (local.get 1)))))",
		[][]uint64{{5, 0}, {5, 65535}})
	add("i32 i32", "i32", "i32", "local.get 1 i32.const 0 i32.xor local.get 0 local.get 1 local.set 2 i32.sub",
		[][]uint64{{5, 9}})
	for _, st := range []struct{ op, typ string }{{"i32.store", "i32"}, {"i64.store16 offset=2", "i64"}, {"f64.store", "f64"}} {
		for _, sh := range []string{"ss", "sl", "sc", "ls", "ll", "lc", "cl", "cc"} {
			addr := strings.Replace(shapeOperand("i32", sh[0], 0), "7", "16", 1)
			body := fmt.Sprintf("(%s %s %s) (i64.load (i32.const 16))", st.op, addr, shapeOperand(st.typ, sh[1], 1))
			add("i32 "+st.typ, "i64", "i32", body, [][]uint64{{16, 0x1234567890}, {65530, 1}})
		}
		// The address local overwritten by the value expression.
		add("i32 "+st.typ, "i64", "i32",
			fmt.Sprintf("(%s (local.get 0) (block (result %s) (local.set 0 (i32.const 40)) %s)) (i64.load (i32.const 16))",
				st.op, st.typ, shapeOperand(st.typ, 's', 1)),
			[][]uint64{{16, 99}})
	}
	for _, c := range []byte("slc") {
		for _, v := range []string{"ll", "cc", "ls", "sl"} {
			body := fmt.Sprintf("(select %s %s %s)", shapeOperand("i64", v[0], 0), shapeOperand("i64", v[1], 1), shapeOperand("i32", c, 2))
			add("i64 i64 i32", "i64", "i64", body, [][]uint64{{1, 2, 0}, {1, 2, 5}})
		}
	}
	for _, sh := range []byte("slc") {
		add("i32 i32", "i32", "i32", fmt.Sprintf("(drop %s) (local.get 1)", shapeOperand("i32", sh, 0)), [][]uint64{{1, 2}})
		add("i32 i32", "i32", "i32", fmt.Sprintf("(local.set 0 %s) (local.get 0)", shapeOperand("i32", sh, 1)), [][]uint64{{1, 2}})
		add("i32 i32", "i32", "i32", fmt.Sprintf("(i32.add (local.tee 0 %s) (local.get 0))", shapeOperand("i32", sh, 1)), [][]uint64{{1, 2}})
	}
	src.WriteString(")")

	m, err := wat.Compile(src.String())
	if err != nil {
		t.Fatalf("wat: %v", err)
	}
	cm, err := wasm.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	run := func(tier wasm.Tier, fuel int64, name string, args []uint64) tierState {
		in, err := cm.Instantiate(nil, wasm.Config{MeterFuel: true, Tier: tier})
		if err != nil {
			t.Fatal(err)
		}
		in.SetFuel(fuel)
		return callState(in, name, args...)
	}
	sweep := !testing.Short()
	for _, f := range funcs {
		for _, args := range f.args {
			args = args[:len(strings.Fields(f.params))]
			full := run(wasm.TierInterp, 1<<20, f.name, args)
			top := int64(1 << 20)
			if sweep {
				top = int64(full.instrCount) + 2
			}
			for fuel := int64(0); fuel <= top; fuel++ {
				if !sweep {
					fuel = top
				}
				want, got := run(wasm.TierInterp, fuel, f.name, args), run(wasm.TierClosure, fuel, f.name, args)
				if d := got.diff(want); d != "" {
					t.Fatalf("%s (param %s) %v at fuel %d: closure vs interpreter: %s", f.name, f.params, args, fuel, d)
				}
			}
		}
	}
}

// pad gives unary-op argument rows a second value for the functions' second
// parameter.
func pad(rows [][]uint64) [][]uint64 {
	out := make([][]uint64, len(rows))
	for i, r := range rows {
		out[i] = append(append([]uint64(nil), r...), r[0])
	}
	return out
}

// TestFoldingPinned pins how far folding shrinks the shipped scheduler
// guests: lowered ops per compiled instruction, per guest, below the 0.70 to
// 0.74 the fixed-window fuser reached (rr 134/191, pf 136/184, mt 127/175).
// A change that quietly stops folding operands or destinations fails here
// before it shows as time.
func TestFoldingPinned(t *testing.T) {
	ceiling := map[string]float64{"rr": 0.52, "pf": 0.53, "mt": 0.52}
	for name, max := range ceiling {
		src, _ := plugins.SchedulerWAT(name)
		m, err := wat.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := wasm.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		var ops, instrs int
		for _, c := range wasm.LoweredOps(cm) {
			ops += c[0]
			instrs += c[1]
		}
		ratio := float64(ops) / float64(instrs)
		t.Logf("%s: %d ops for %d instructions (%.3f)", name, ops, instrs, ratio)
		if ratio > max {
			t.Errorf("%s: %d ops for %d instructions = %.3f, pinned at ≤ %.2f", name, ops, instrs, ratio, max)
		}
	}
}

// TestTierRandomPrograms is the lowering's randomized differential: seeded
// random i32 programs — local.get/set/tee, constants, binary, unary and
// compare ops, loads and stores, select, drop, calls, and blocks, ifs and
// loops left by br_if with and without a value — run on both tiers at full
// fuel and at fuel values inside their cost. Results, trap class,
// InstrCount, fuel left and memory must be identical.
func TestTierRandomPrograms(t *testing.T) {
	programs := 1000
	if testing.Short() {
		programs = 150
	}
	rng := rand.New(rand.NewSource(7))
	for p := 0; p < programs; p++ {
		g := &progGen{rng: rng}
		g.expr(4)
		src := `(module (memory 1)
		  (func $h (param i32 i32) (result i32) (i32.sub (local.get 0) (i32.mul (local.get 1) (i32.const 3))))
		  (func (export "f") (param i32 i32) (result i32) (local i32 i32)
		    ` + g.b.String() + `))`
		m, err := wat.Compile(src)
		if err != nil {
			t.Fatalf("program %d: %v\n%s", p, err, src)
		}
		cm, err := wasm.Compile(m)
		if err != nil {
			t.Fatalf("program %d: %v\n%s", p, err, src)
		}
		args := []uint64{uint64(rng.Intn(40)), uint64(rng.Uint32())}
		run := func(tier wasm.Tier, fuel int64) tierState {
			in, err := cm.Instantiate(nil, wasm.Config{MeterFuel: true, Tier: tier})
			if err != nil {
				t.Fatal(err)
			}
			in.SetFuel(fuel)
			return callState(in, "f", args...)
		}
		full := run(wasm.TierInterp, 5000)
		for _, fuel := range []int64{5000, int64(full.instrCount) - 1, rng.Int63n(int64(full.instrCount) + 1), 0} {
			if d := run(wasm.TierClosure, fuel).diff(run(wasm.TierInterp, fuel)); d != "" {
				t.Fatalf("program %d%v at fuel %d: closure vs interpreter: %s\n%s", p, args, fuel, d, src)
			}
		}
	}
}

// progGen writes one random i32 expression sequence in flat WAT.
type progGen struct {
	rng *rand.Rand
	b   strings.Builder
}

func (g *progGen) emit(s string, a ...any) { fmt.Fprintf(&g.b, s+" ", a...) }

// expr emits instructions that leave exactly one more i32 on the stack
// than they found, nesting blocks up to level deep.
func (g *progGen) expr(level int) {
	r := g.rng
	d := 0 // values pushed so far
	for steps := 3 + r.Intn(10); steps > 0 || d != 1; steps-- {
		k := r.Intn(20)
		switch {
		case d == 0 || k < 4:
			g.emit("local.get %d", r.Intn(4))
			d++
		case steps <= 0 || (k < 9 && d >= 2):
			g.emit([]string{"i32.add", "i32.sub", "i32.mul", "i32.div_u", "i32.rem_s", "i32.lt_u", "i32.eq", "i32.shl", "i32.and"}[r.Intn(9)])
			d--
		case k < 6:
			g.emit("i32.const %d", int32(r.Intn(70))-5)
			d++
		case k < 10:
			g.emit([]string{"i32.eqz", "i32.clz", "i32.popcnt"}[r.Intn(3)])
		case k < 11:
			g.emit("local.tee %d", r.Intn(4))
		case k < 12:
			g.emit("local.set %d", r.Intn(4))
			d--
		case k < 13:
			g.emit("i32.load offset=%d", r.Intn(8))
		case k < 14 && d >= 2:
			g.emit("i32.store offset=%d", r.Intn(8))
			d -= 2
		case k < 15 && d >= 3:
			g.emit("select")
			d -= 2
		case k < 16:
			g.emit("drop")
			d--
		case k < 17 && d >= 2:
			g.emit("call $h")
			d--
		case level > 0 && k < 18:
			// Left early with its first value, or run on to its second.
			g.emit("block (result i32)")
			g.expr(level - 1)
			g.emit("local.get %d br_if 0 drop", r.Intn(4))
			g.expr(level - 1)
			g.emit("end")
			d++
		case level > 0 && k < 19:
			g.emit("if (result i32)")
			g.expr(level - 1)
			g.emit("else")
			g.expr(level - 1)
			g.emit("end")
		case level > 0:
			// Runs until the first parameter counts down to zero.
			g.emit("loop (result i32)")
			g.expr(level - 1)
			g.emit("local.get 0 i32.const 1 i32.sub local.tee 0 br_if 0 end")
			d++
		default:
			g.emit("i32.const 1")
			d++
		}
	}
}
