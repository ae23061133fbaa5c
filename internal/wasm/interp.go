package wasm

import (
	"math"
	"math/bits"
)

// exec is the reference interpreter (TierInterp): it runs a compiled
// function body one unfused instruction per switch dispatch. It panics with
// *Trap on any sandbox fault; Instance.call converts that to an error at the
// outermost boundary.
func (in *Instance) exec(f *compiledFunc, args []uint64) []uint64 {
	// Reuse this depth's buffers (the instance is single-threaded, so the
	// depth uniquely identifies the live frame). Stack capacity comes from
	// the compile-time high-water mark; +2 covers call-result appends.
	for len(in.frameBufs) <= in.depth {
		in.frameBufs = append(in.frameBufs, frameBuf{})
	}
	fb := &in.frameBufs[in.depth]
	nLocals := f.numParams + f.numLocals
	if cap(fb.locals) < nLocals {
		fb.locals = make([]uint64, nLocals)
	}
	locals := fb.locals[:nLocals]
	copy(locals, args)
	clear(locals[len(args):])
	if cap(fb.stack) < f.maxStack+2 {
		fb.stack = make([]uint64, 0, f.maxStack+2)
	}
	stack := fb.stack[:0]
	mem := in.mem
	code := f.code

	for pc := 0; pc < len(code); pc++ {
		if in.fuelEnabled {
			// Exhaustion traps BEFORE the unpaid instruction runs, and
			// InstrCount advances only for instructions that actually paid,
			// so at the trap boundary InstrCount equals the fuel consumed —
			// the invariant the profiler's fuel deltas and both execution
			// tiers agree on (see chargeFuel in tier.go).
			if in.fuel == 0 {
				panic(newTrap(TrapFuelExhausted))
			}
			if in.fuel > 0 {
				in.fuel--
			}
			in.InstrCount++
		}
		ins := &code[pc]
		switch ins.op {

		// Control flow -------------------------------------------------
		case uint16(OpUnreachable):
			panic(newTrap(TrapUnreachable))
		case opJump:
			t := ins.targets[0]
			stack = takeBranch(stack, t)
			pc = int(t.pc) - 1
		case opBrIfFalse:
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if uint32(c) == 0 {
				t := ins.targets[0]
				stack = takeBranch(stack, t)
				pc = int(t.pc) - 1
			}
		case uint16(OpBrIf):
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if uint32(c) != 0 {
				t := ins.targets[0]
				stack = takeBranch(stack, t)
				pc = int(t.pc) - 1
			}
		case uint16(OpBrTable):
			sel := uint32(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			ti := int(sel)
			if ti >= len(ins.targets)-1 {
				ti = len(ins.targets) - 1 // default target
			}
			t := ins.targets[ti]
			stack = takeBranch(stack, t)
			pc = int(t.pc) - 1
		case opReturnOp:
			// Results ride in this depth's reusable buffer: the caller
			// copies them onto its own stack immediately, before any new
			// call could reuse this depth.
			n := int(ins.a)
			if cap(fb.res) < n {
				fb.res = make([]uint64, n)
			}
			res := fb.res[:n]
			copy(res, stack[len(stack)-n:])
			// Donate possibly-grown buffers back for this depth.
			fb.locals = locals
			fb.stack = stack
			return res
		case uint16(OpCall):
			callee := in.cm.types[ins.a]
			np := len(callee.Params)
			callArgs := stack[len(stack)-np:]
			res := in.invoke(ins.a, callArgs)
			stack = stack[:len(stack)-np]
			stack = append(stack, res...)
		case uint16(OpCallIndirect):
			elem := uint32(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			if int(elem) >= len(in.table) {
				panic(newTrap(TrapOutOfBoundsTable))
			}
			entry := in.table[elem]
			if entry == 0 {
				panic(newTrap(TrapUninitializedElement))
			}
			funcIdx := entry - 1
			want := in.cm.m.Types[ins.a]
			if !in.cm.types[funcIdx].Equal(want) {
				panic(newTrap(TrapIndirectCallTypeMismatch))
			}
			np := len(want.Params)
			callArgs := stack[len(stack)-np:]
			res := in.invoke(funcIdx, callArgs)
			stack = stack[:len(stack)-np]
			stack = append(stack, res...)

		// Parametric ----------------------------------------------------
		case uint16(OpDrop):
			stack = stack[:len(stack)-1]
		case uint16(OpSelect):
			c := uint32(stack[len(stack)-1])
			v2 := stack[len(stack)-2]
			v1 := stack[len(stack)-3]
			stack = stack[:len(stack)-3]
			if c != 0 {
				stack = append(stack, v1)
			} else {
				stack = append(stack, v2)
			}

		// Variables -----------------------------------------------------
		case uint16(OpLocalGet):
			stack = append(stack, locals[ins.a])
		case uint16(OpLocalSet):
			locals[ins.a] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case uint16(OpLocalTee):
			locals[ins.a] = stack[len(stack)-1]
		case uint16(OpGlobalGet):
			stack = append(stack, in.globals[ins.a])
		case uint16(OpGlobalSet):
			in.globals[ins.a] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]

		// Memory --------------------------------------------------------
		case uint16(OpI32Load):
			a := uint64(uint32(stack[len(stack)-1])) + ins.imm
			b := mem.mustRange(a, 4)
			stack[len(stack)-1] = uint64(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
		case uint16(OpI64Load):
			a := uint64(uint32(stack[len(stack)-1])) + ins.imm
			b := mem.mustRange(a, 8)
			stack[len(stack)-1] = leUint64(b)
		case uint16(OpF32Load):
			a := uint64(uint32(stack[len(stack)-1])) + ins.imm
			b := mem.mustRange(a, 4)
			stack[len(stack)-1] = uint64(leUint32(b))
		case uint16(OpF64Load):
			a := uint64(uint32(stack[len(stack)-1])) + ins.imm
			b := mem.mustRange(a, 8)
			stack[len(stack)-1] = leUint64(b)
		case uint16(OpI32Load8S):
			a := uint64(uint32(stack[len(stack)-1])) + ins.imm
			b := mem.mustRange(a, 1)
			stack[len(stack)-1] = uint64(uint32(int32(int8(b[0]))))
		case uint16(OpI32Load8U):
			a := uint64(uint32(stack[len(stack)-1])) + ins.imm
			b := mem.mustRange(a, 1)
			stack[len(stack)-1] = uint64(b[0])
		case uint16(OpI32Load16S):
			a := uint64(uint32(stack[len(stack)-1])) + ins.imm
			b := mem.mustRange(a, 2)
			stack[len(stack)-1] = uint64(uint32(int32(int16(leUint16(b)))))
		case uint16(OpI32Load16U):
			a := uint64(uint32(stack[len(stack)-1])) + ins.imm
			b := mem.mustRange(a, 2)
			stack[len(stack)-1] = uint64(leUint16(b))
		case uint16(OpI64Load8S):
			a := uint64(uint32(stack[len(stack)-1])) + ins.imm
			b := mem.mustRange(a, 1)
			stack[len(stack)-1] = uint64(int64(int8(b[0])))
		case uint16(OpI64Load8U):
			a := uint64(uint32(stack[len(stack)-1])) + ins.imm
			b := mem.mustRange(a, 1)
			stack[len(stack)-1] = uint64(b[0])
		case uint16(OpI64Load16S):
			a := uint64(uint32(stack[len(stack)-1])) + ins.imm
			b := mem.mustRange(a, 2)
			stack[len(stack)-1] = uint64(int64(int16(leUint16(b))))
		case uint16(OpI64Load16U):
			a := uint64(uint32(stack[len(stack)-1])) + ins.imm
			b := mem.mustRange(a, 2)
			stack[len(stack)-1] = uint64(leUint16(b))
		case uint16(OpI64Load32S):
			a := uint64(uint32(stack[len(stack)-1])) + ins.imm
			b := mem.mustRange(a, 4)
			stack[len(stack)-1] = uint64(int64(int32(leUint32(b))))
		case uint16(OpI64Load32U):
			a := uint64(uint32(stack[len(stack)-1])) + ins.imm
			b := mem.mustRange(a, 4)
			stack[len(stack)-1] = uint64(leUint32(b))

		case uint16(OpI32Store):
			v := uint32(stack[len(stack)-1])
			a := uint64(uint32(stack[len(stack)-2])) + ins.imm
			stack = stack[:len(stack)-2]
			b := mem.mustRange(a, 4)
			putLeUint32(b, v)
		case uint16(OpI64Store):
			v := stack[len(stack)-1]
			a := uint64(uint32(stack[len(stack)-2])) + ins.imm
			stack = stack[:len(stack)-2]
			b := mem.mustRange(a, 8)
			putLeUint64(b, v)
		case uint16(OpF32Store):
			v := uint32(stack[len(stack)-1])
			a := uint64(uint32(stack[len(stack)-2])) + ins.imm
			stack = stack[:len(stack)-2]
			b := mem.mustRange(a, 4)
			putLeUint32(b, v)
		case uint16(OpF64Store):
			v := stack[len(stack)-1]
			a := uint64(uint32(stack[len(stack)-2])) + ins.imm
			stack = stack[:len(stack)-2]
			b := mem.mustRange(a, 8)
			putLeUint64(b, v)
		case uint16(OpI32Store8), uint16(OpI64Store8):
			v := byte(stack[len(stack)-1])
			a := uint64(uint32(stack[len(stack)-2])) + ins.imm
			stack = stack[:len(stack)-2]
			b := mem.mustRange(a, 1)
			b[0] = v
		case uint16(OpI32Store16), uint16(OpI64Store16):
			v := uint16(stack[len(stack)-1])
			a := uint64(uint32(stack[len(stack)-2])) + ins.imm
			stack = stack[:len(stack)-2]
			b := mem.mustRange(a, 2)
			b[0], b[1] = byte(v), byte(v>>8)
		case uint16(OpI64Store32):
			v := uint32(stack[len(stack)-1])
			a := uint64(uint32(stack[len(stack)-2])) + ins.imm
			stack = stack[:len(stack)-2]
			b := mem.mustRange(a, 4)
			putLeUint32(b, v)

		case uint16(OpMemorySize):
			stack = append(stack, uint64(mem.Size()))
		case uint16(OpMemoryGrow):
			delta := uint32(stack[len(stack)-1])
			prev, ok := mem.Grow(delta)
			if ok {
				stack[len(stack)-1] = uint64(prev)
			} else {
				stack[len(stack)-1] = uint64(uint32(0xFFFFFFFF))
			}

		// Constants -----------------------------------------------------
		case uint16(OpI32Const), uint16(OpI64Const), uint16(OpF32Const), uint16(OpF64Const):
			stack = append(stack, ins.imm)

		// i32 comparisons -------------------------------------------------
		case uint16(OpI32Eqz):
			stack[len(stack)-1] = b2i(uint32(stack[len(stack)-1]) == 0)
		case uint16(OpI32Eq):
			stack = cmpTop(stack, uint32(stack[len(stack)-2]) == uint32(stack[len(stack)-1]))
		case uint16(OpI32Ne):
			stack = cmpTop(stack, uint32(stack[len(stack)-2]) != uint32(stack[len(stack)-1]))
		case uint16(OpI32LtS):
			stack = cmpTop(stack, int32(stack[len(stack)-2]) < int32(stack[len(stack)-1]))
		case uint16(OpI32LtU):
			stack = cmpTop(stack, uint32(stack[len(stack)-2]) < uint32(stack[len(stack)-1]))
		case uint16(OpI32GtS):
			stack = cmpTop(stack, int32(stack[len(stack)-2]) > int32(stack[len(stack)-1]))
		case uint16(OpI32GtU):
			stack = cmpTop(stack, uint32(stack[len(stack)-2]) > uint32(stack[len(stack)-1]))
		case uint16(OpI32LeS):
			stack = cmpTop(stack, int32(stack[len(stack)-2]) <= int32(stack[len(stack)-1]))
		case uint16(OpI32LeU):
			stack = cmpTop(stack, uint32(stack[len(stack)-2]) <= uint32(stack[len(stack)-1]))
		case uint16(OpI32GeS):
			stack = cmpTop(stack, int32(stack[len(stack)-2]) >= int32(stack[len(stack)-1]))
		case uint16(OpI32GeU):
			stack = cmpTop(stack, uint32(stack[len(stack)-2]) >= uint32(stack[len(stack)-1]))

		// i64 comparisons -------------------------------------------------
		case uint16(OpI64Eqz):
			stack[len(stack)-1] = b2i(stack[len(stack)-1] == 0)
		case uint16(OpI64Eq):
			stack = cmpTop(stack, stack[len(stack)-2] == stack[len(stack)-1])
		case uint16(OpI64Ne):
			stack = cmpTop(stack, stack[len(stack)-2] != stack[len(stack)-1])
		case uint16(OpI64LtS):
			stack = cmpTop(stack, int64(stack[len(stack)-2]) < int64(stack[len(stack)-1]))
		case uint16(OpI64LtU):
			stack = cmpTop(stack, stack[len(stack)-2] < stack[len(stack)-1])
		case uint16(OpI64GtS):
			stack = cmpTop(stack, int64(stack[len(stack)-2]) > int64(stack[len(stack)-1]))
		case uint16(OpI64GtU):
			stack = cmpTop(stack, stack[len(stack)-2] > stack[len(stack)-1])
		case uint16(OpI64LeS):
			stack = cmpTop(stack, int64(stack[len(stack)-2]) <= int64(stack[len(stack)-1]))
		case uint16(OpI64LeU):
			stack = cmpTop(stack, stack[len(stack)-2] <= stack[len(stack)-1])
		case uint16(OpI64GeS):
			stack = cmpTop(stack, int64(stack[len(stack)-2]) >= int64(stack[len(stack)-1]))
		case uint16(OpI64GeU):
			stack = cmpTop(stack, stack[len(stack)-2] >= stack[len(stack)-1])

		// float comparisons -----------------------------------------------
		case uint16(OpF32Eq):
			stack = cmpTop(stack, f32FromBits(stack[len(stack)-2]) == f32FromBits(stack[len(stack)-1]))
		case uint16(OpF32Ne):
			stack = cmpTop(stack, f32FromBits(stack[len(stack)-2]) != f32FromBits(stack[len(stack)-1]))
		case uint16(OpF32Lt):
			stack = cmpTop(stack, f32FromBits(stack[len(stack)-2]) < f32FromBits(stack[len(stack)-1]))
		case uint16(OpF32Gt):
			stack = cmpTop(stack, f32FromBits(stack[len(stack)-2]) > f32FromBits(stack[len(stack)-1]))
		case uint16(OpF32Le):
			stack = cmpTop(stack, f32FromBits(stack[len(stack)-2]) <= f32FromBits(stack[len(stack)-1]))
		case uint16(OpF32Ge):
			stack = cmpTop(stack, f32FromBits(stack[len(stack)-2]) >= f32FromBits(stack[len(stack)-1]))
		case uint16(OpF64Eq):
			stack = cmpTop(stack, f64FromBits(stack[len(stack)-2]) == f64FromBits(stack[len(stack)-1]))
		case uint16(OpF64Ne):
			stack = cmpTop(stack, f64FromBits(stack[len(stack)-2]) != f64FromBits(stack[len(stack)-1]))
		case uint16(OpF64Lt):
			stack = cmpTop(stack, f64FromBits(stack[len(stack)-2]) < f64FromBits(stack[len(stack)-1]))
		case uint16(OpF64Gt):
			stack = cmpTop(stack, f64FromBits(stack[len(stack)-2]) > f64FromBits(stack[len(stack)-1]))
		case uint16(OpF64Le):
			stack = cmpTop(stack, f64FromBits(stack[len(stack)-2]) <= f64FromBits(stack[len(stack)-1]))
		case uint16(OpF64Ge):
			stack = cmpTop(stack, f64FromBits(stack[len(stack)-2]) >= f64FromBits(stack[len(stack)-1]))

		// i32 arithmetic --------------------------------------------------
		case uint16(OpI32Clz):
			stack[len(stack)-1] = uint64(bits.LeadingZeros32(uint32(stack[len(stack)-1])))
		case uint16(OpI32Ctz):
			stack[len(stack)-1] = uint64(bits.TrailingZeros32(uint32(stack[len(stack)-1])))
		case uint16(OpI32Popcnt):
			stack[len(stack)-1] = uint64(bits.OnesCount32(uint32(stack[len(stack)-1])))
		case uint16(OpI32Add):
			stack = bin32(stack, uint32(stack[len(stack)-2])+uint32(stack[len(stack)-1]))
		case uint16(OpI32Sub):
			stack = bin32(stack, uint32(stack[len(stack)-2])-uint32(stack[len(stack)-1]))
		case uint16(OpI32Mul):
			stack = bin32(stack, uint32(stack[len(stack)-2])*uint32(stack[len(stack)-1]))
		case uint16(OpI32DivS):
			d := int32(stack[len(stack)-1])
			n := int32(stack[len(stack)-2])
			if d == 0 {
				panic(newTrap(TrapIntegerDivideByZero))
			}
			if n == math.MinInt32 && d == -1 {
				panic(newTrap(TrapIntegerOverflow))
			}
			stack = bin32(stack, uint32(n/d))
		case uint16(OpI32DivU):
			d := uint32(stack[len(stack)-1])
			if d == 0 {
				panic(newTrap(TrapIntegerDivideByZero))
			}
			stack = bin32(stack, uint32(stack[len(stack)-2])/d)
		case uint16(OpI32RemS):
			d := int32(stack[len(stack)-1])
			n := int32(stack[len(stack)-2])
			if d == 0 {
				panic(newTrap(TrapIntegerDivideByZero))
			}
			if n == math.MinInt32 && d == -1 {
				stack = bin32(stack, 0)
			} else {
				stack = bin32(stack, uint32(n%d))
			}
		case uint16(OpI32RemU):
			d := uint32(stack[len(stack)-1])
			if d == 0 {
				panic(newTrap(TrapIntegerDivideByZero))
			}
			stack = bin32(stack, uint32(stack[len(stack)-2])%d)
		case uint16(OpI32And):
			stack = bin32(stack, uint32(stack[len(stack)-2])&uint32(stack[len(stack)-1]))
		case uint16(OpI32Or):
			stack = bin32(stack, uint32(stack[len(stack)-2])|uint32(stack[len(stack)-1]))
		case uint16(OpI32Xor):
			stack = bin32(stack, uint32(stack[len(stack)-2])^uint32(stack[len(stack)-1]))
		case uint16(OpI32Shl):
			stack = bin32(stack, uint32(stack[len(stack)-2])<<(uint32(stack[len(stack)-1])&31))
		case uint16(OpI32ShrS):
			stack = bin32(stack, uint32(int32(stack[len(stack)-2])>>(uint32(stack[len(stack)-1])&31)))
		case uint16(OpI32ShrU):
			stack = bin32(stack, uint32(stack[len(stack)-2])>>(uint32(stack[len(stack)-1])&31))
		case uint16(OpI32Rotl):
			stack = bin32(stack, bits.RotateLeft32(uint32(stack[len(stack)-2]), int(uint32(stack[len(stack)-1])&31)))
		case uint16(OpI32Rotr):
			stack = bin32(stack, bits.RotateLeft32(uint32(stack[len(stack)-2]), -int(uint32(stack[len(stack)-1])&31)))

		// i64 arithmetic --------------------------------------------------
		case uint16(OpI64Clz):
			stack[len(stack)-1] = uint64(bits.LeadingZeros64(stack[len(stack)-1]))
		case uint16(OpI64Ctz):
			stack[len(stack)-1] = uint64(bits.TrailingZeros64(stack[len(stack)-1]))
		case uint16(OpI64Popcnt):
			stack[len(stack)-1] = uint64(bits.OnesCount64(stack[len(stack)-1]))
		case uint16(OpI64Add):
			stack = bin64(stack, stack[len(stack)-2]+stack[len(stack)-1])
		case uint16(OpI64Sub):
			stack = bin64(stack, stack[len(stack)-2]-stack[len(stack)-1])
		case uint16(OpI64Mul):
			stack = bin64(stack, stack[len(stack)-2]*stack[len(stack)-1])
		case uint16(OpI64DivS):
			d := int64(stack[len(stack)-1])
			n := int64(stack[len(stack)-2])
			if d == 0 {
				panic(newTrap(TrapIntegerDivideByZero))
			}
			if n == math.MinInt64 && d == -1 {
				panic(newTrap(TrapIntegerOverflow))
			}
			stack = bin64(stack, uint64(n/d))
		case uint16(OpI64DivU):
			d := stack[len(stack)-1]
			if d == 0 {
				panic(newTrap(TrapIntegerDivideByZero))
			}
			stack = bin64(stack, stack[len(stack)-2]/d)
		case uint16(OpI64RemS):
			d := int64(stack[len(stack)-1])
			n := int64(stack[len(stack)-2])
			if d == 0 {
				panic(newTrap(TrapIntegerDivideByZero))
			}
			if n == math.MinInt64 && d == -1 {
				stack = bin64(stack, 0)
			} else {
				stack = bin64(stack, uint64(n%d))
			}
		case uint16(OpI64RemU):
			d := stack[len(stack)-1]
			if d == 0 {
				panic(newTrap(TrapIntegerDivideByZero))
			}
			stack = bin64(stack, stack[len(stack)-2]%d)
		case uint16(OpI64And):
			stack = bin64(stack, stack[len(stack)-2]&stack[len(stack)-1])
		case uint16(OpI64Or):
			stack = bin64(stack, stack[len(stack)-2]|stack[len(stack)-1])
		case uint16(OpI64Xor):
			stack = bin64(stack, stack[len(stack)-2]^stack[len(stack)-1])
		case uint16(OpI64Shl):
			stack = bin64(stack, stack[len(stack)-2]<<(stack[len(stack)-1]&63))
		case uint16(OpI64ShrS):
			stack = bin64(stack, uint64(int64(stack[len(stack)-2])>>(stack[len(stack)-1]&63)))
		case uint16(OpI64ShrU):
			stack = bin64(stack, stack[len(stack)-2]>>(stack[len(stack)-1]&63))
		case uint16(OpI64Rotl):
			stack = bin64(stack, bits.RotateLeft64(stack[len(stack)-2], int(stack[len(stack)-1]&63)))
		case uint16(OpI64Rotr):
			stack = bin64(stack, bits.RotateLeft64(stack[len(stack)-2], -int(stack[len(stack)-1]&63)))

		// f32 arithmetic --------------------------------------------------
		case uint16(OpF32Abs):
			stack[len(stack)-1] = uint64(uint32(stack[len(stack)-1]) &^ (1 << 31))
		case uint16(OpF32Neg):
			stack[len(stack)-1] = uint64(uint32(stack[len(stack)-1]) ^ (1 << 31))
		case uint16(OpF32Ceil):
			stack = f32un(stack, float32(math.Ceil(float64(f32FromBits(stack[len(stack)-1])))))
		case uint16(OpF32Floor):
			stack = f32un(stack, float32(math.Floor(float64(f32FromBits(stack[len(stack)-1])))))
		case uint16(OpF32Trunc):
			stack = f32un(stack, float32(math.Trunc(float64(f32FromBits(stack[len(stack)-1])))))
		case uint16(OpF32Nearest):
			stack = f32un(stack, float32(math.RoundToEven(float64(f32FromBits(stack[len(stack)-1])))))
		case uint16(OpF32Sqrt):
			stack = f32un(stack, float32(math.Sqrt(float64(f32FromBits(stack[len(stack)-1])))))
		case uint16(OpF32Add):
			stack = f32bin(stack, f32FromBits(stack[len(stack)-2])+f32FromBits(stack[len(stack)-1]))
		case uint16(OpF32Sub):
			stack = f32bin(stack, f32FromBits(stack[len(stack)-2])-f32FromBits(stack[len(stack)-1]))
		case uint16(OpF32Mul):
			stack = f32bin(stack, f32FromBits(stack[len(stack)-2])*f32FromBits(stack[len(stack)-1]))
		case uint16(OpF32Div):
			stack = f32bin(stack, f32FromBits(stack[len(stack)-2])/f32FromBits(stack[len(stack)-1]))
		case uint16(OpF32Min):
			stack = f32bin(stack, float32(math.Min(float64(f32FromBits(stack[len(stack)-2])), float64(f32FromBits(stack[len(stack)-1])))))
		case uint16(OpF32Max):
			stack = f32bin(stack, float32(math.Max(float64(f32FromBits(stack[len(stack)-2])), float64(f32FromBits(stack[len(stack)-1])))))
		case uint16(OpF32Copysign):
			stack = f32bin(stack, float32(math.Copysign(float64(f32FromBits(stack[len(stack)-2])), float64(f32FromBits(stack[len(stack)-1])))))

		// f64 arithmetic --------------------------------------------------
		case uint16(OpF64Abs):
			stack[len(stack)-1] &^= 1 << 63
		case uint16(OpF64Neg):
			stack[len(stack)-1] ^= 1 << 63
		case uint16(OpF64Ceil):
			stack = f64un(stack, math.Ceil(f64FromBits(stack[len(stack)-1])))
		case uint16(OpF64Floor):
			stack = f64un(stack, math.Floor(f64FromBits(stack[len(stack)-1])))
		case uint16(OpF64Trunc):
			stack = f64un(stack, math.Trunc(f64FromBits(stack[len(stack)-1])))
		case uint16(OpF64Nearest):
			stack = f64un(stack, math.RoundToEven(f64FromBits(stack[len(stack)-1])))
		case uint16(OpF64Sqrt):
			stack = f64un(stack, math.Sqrt(f64FromBits(stack[len(stack)-1])))
		case uint16(OpF64Add):
			stack = f64bin(stack, f64FromBits(stack[len(stack)-2])+f64FromBits(stack[len(stack)-1]))
		case uint16(OpF64Sub):
			stack = f64bin(stack, f64FromBits(stack[len(stack)-2])-f64FromBits(stack[len(stack)-1]))
		case uint16(OpF64Mul):
			stack = f64bin(stack, f64FromBits(stack[len(stack)-2])*f64FromBits(stack[len(stack)-1]))
		case uint16(OpF64Div):
			stack = f64bin(stack, f64FromBits(stack[len(stack)-2])/f64FromBits(stack[len(stack)-1]))
		case uint16(OpF64Min):
			stack = f64bin(stack, math.Min(f64FromBits(stack[len(stack)-2]), f64FromBits(stack[len(stack)-1])))
		case uint16(OpF64Max):
			stack = f64bin(stack, math.Max(f64FromBits(stack[len(stack)-2]), f64FromBits(stack[len(stack)-1])))
		case uint16(OpF64Copysign):
			stack = f64bin(stack, math.Copysign(f64FromBits(stack[len(stack)-2]), f64FromBits(stack[len(stack)-1])))

		// Conversions -----------------------------------------------------
		case uint16(OpI32WrapI64):
			stack[len(stack)-1] = uint64(uint32(stack[len(stack)-1]))
		case uint16(OpI32TruncF32S):
			stack[len(stack)-1] = uint64(uint32(truncToI32S(float64(f32FromBits(stack[len(stack)-1])))))
		case uint16(OpI32TruncF32U):
			stack[len(stack)-1] = uint64(truncToI32U(float64(f32FromBits(stack[len(stack)-1]))))
		case uint16(OpI32TruncF64S):
			stack[len(stack)-1] = uint64(uint32(truncToI32S(f64FromBits(stack[len(stack)-1]))))
		case uint16(OpI32TruncF64U):
			stack[len(stack)-1] = uint64(truncToI32U(f64FromBits(stack[len(stack)-1])))
		case uint16(OpI64ExtendI32S):
			stack[len(stack)-1] = uint64(int64(int32(stack[len(stack)-1])))
		case uint16(OpI64ExtendI32U):
			stack[len(stack)-1] = uint64(uint32(stack[len(stack)-1]))
		case uint16(OpI64TruncF32S):
			stack[len(stack)-1] = uint64(truncToI64S(float64(f32FromBits(stack[len(stack)-1]))))
		case uint16(OpI64TruncF32U):
			stack[len(stack)-1] = truncToI64U(float64(f32FromBits(stack[len(stack)-1])))
		case uint16(OpI64TruncF64S):
			stack[len(stack)-1] = uint64(truncToI64S(f64FromBits(stack[len(stack)-1])))
		case uint16(OpI64TruncF64U):
			stack[len(stack)-1] = truncToI64U(f64FromBits(stack[len(stack)-1]))
		case uint16(OpF32ConvertI32S):
			stack = f32un(stack, float32(int32(stack[len(stack)-1])))
		case uint16(OpF32ConvertI32U):
			stack = f32un(stack, float32(uint32(stack[len(stack)-1])))
		case uint16(OpF32ConvertI64S):
			stack = f32un(stack, float32(int64(stack[len(stack)-1])))
		case uint16(OpF32ConvertI64U):
			stack = f32un(stack, float32(stack[len(stack)-1]))
		case uint16(OpF32DemoteF64):
			stack = f32un(stack, float32(f64FromBits(stack[len(stack)-1])))
		case uint16(OpF64ConvertI32S):
			stack = f64un(stack, float64(int32(stack[len(stack)-1])))
		case uint16(OpF64ConvertI32U):
			stack = f64un(stack, float64(uint32(stack[len(stack)-1])))
		case uint16(OpF64ConvertI64S):
			stack = f64un(stack, float64(int64(stack[len(stack)-1])))
		case uint16(OpF64ConvertI64U):
			stack = f64un(stack, float64(stack[len(stack)-1]))
		case uint16(OpF64PromoteF32):
			stack = f64un(stack, float64(f32FromBits(stack[len(stack)-1])))
		case uint16(OpI32ReinterpretF32), uint16(OpI64ReinterpretF64),
			uint16(OpF32ReinterpretI32), uint16(OpF64ReinterpretI64):
			// Bit patterns are already raw; nothing to do.

		// Sign extension ---------------------------------------------------
		case uint16(OpI32Extend8S):
			stack[len(stack)-1] = uint64(uint32(int32(int8(stack[len(stack)-1]))))
		case uint16(OpI32Extend16S):
			stack[len(stack)-1] = uint64(uint32(int32(int16(stack[len(stack)-1]))))
		case uint16(OpI64Extend8S):
			stack[len(stack)-1] = uint64(int64(int8(stack[len(stack)-1])))
		case uint16(OpI64Extend16S):
			stack[len(stack)-1] = uint64(int64(int16(stack[len(stack)-1])))
		case uint16(OpI64Extend32S):
			stack[len(stack)-1] = uint64(int64(int32(stack[len(stack)-1])))

		// Misc (0xFC) -------------------------------------------------------
		case miscBase + uint16(MiscI32TruncSatF32S):
			stack[len(stack)-1] = uint64(uint32(truncSatI32S(float64(f32FromBits(stack[len(stack)-1])))))
		case miscBase + uint16(MiscI32TruncSatF32U):
			stack[len(stack)-1] = uint64(truncSatI32U(float64(f32FromBits(stack[len(stack)-1]))))
		case miscBase + uint16(MiscI32TruncSatF64S):
			stack[len(stack)-1] = uint64(uint32(truncSatI32S(f64FromBits(stack[len(stack)-1]))))
		case miscBase + uint16(MiscI32TruncSatF64U):
			stack[len(stack)-1] = uint64(truncSatI32U(f64FromBits(stack[len(stack)-1])))
		case miscBase + uint16(MiscI64TruncSatF32S):
			stack[len(stack)-1] = uint64(truncSatI64S(float64(f32FromBits(stack[len(stack)-1]))))
		case miscBase + uint16(MiscI64TruncSatF32U):
			stack[len(stack)-1] = truncSatI64U(float64(f32FromBits(stack[len(stack)-1])))
		case miscBase + uint16(MiscI64TruncSatF64S):
			stack[len(stack)-1] = uint64(truncSatI64S(f64FromBits(stack[len(stack)-1])))
		case miscBase + uint16(MiscI64TruncSatF64U):
			stack[len(stack)-1] = truncSatI64U(f64FromBits(stack[len(stack)-1]))
		case miscBase + uint16(MiscMemoryCopy):
			n := uint64(uint32(stack[len(stack)-1]))
			src := uint64(uint32(stack[len(stack)-2]))
			dst := uint64(uint32(stack[len(stack)-3]))
			stack = stack[:len(stack)-3]
			s := mem.mustRange(src, n)
			d := mem.mustRange(dst, n)
			copy(d, s)
		case miscBase + uint16(MiscMemoryFill):
			n := uint64(uint32(stack[len(stack)-1]))
			val := byte(stack[len(stack)-2])
			dst := uint64(uint32(stack[len(stack)-3]))
			stack = stack[:len(stack)-3]
			d := mem.mustRange(dst, n)
			for i := range d {
				d[i] = val
			}

		default:
			panic(&Trap{Code: TrapHostError, Wrapped: errUnknownInstr(ins.op)})
		}
	}
	// The compiler always emits an explicit return; reaching here means a
	// compiler bug, not guest misbehaviour.
	panic(&Trap{Code: TrapHostError, Wrapped: errUnknownInstr(0xFFFF)})
}

// takeBranch applies a resolved branch target to the operand stack.
func takeBranch(stack []uint64, t branchTarget) []uint64 {
	if t.keep > 0 {
		copy(stack[t.unwind:], stack[uint32(len(stack))-t.keep:])
	}
	return stack[:t.unwind+t.keep]
}

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func cmpTop(stack []uint64, b bool) []uint64 {
	stack = stack[:len(stack)-1]
	stack[len(stack)-1] = b2i(b)
	return stack
}

func bin32(stack []uint64, v uint32) []uint64 {
	stack = stack[:len(stack)-1]
	stack[len(stack)-1] = uint64(v)
	return stack
}

func bin64(stack []uint64, v uint64) []uint64 {
	stack = stack[:len(stack)-1]
	stack[len(stack)-1] = v
	return stack
}

func f32un(stack []uint64, v float32) []uint64 {
	stack[len(stack)-1] = uint64(math.Float32bits(v))
	return stack
}

func f64un(stack []uint64, v float64) []uint64 {
	stack[len(stack)-1] = math.Float64bits(v)
	return stack
}

func f32bin(stack []uint64, v float32) []uint64 {
	stack = stack[:len(stack)-1]
	stack[len(stack)-1] = uint64(math.Float32bits(v))
	return stack
}

func f64bin(stack []uint64, v float64) []uint64 {
	stack = stack[:len(stack)-1]
	stack[len(stack)-1] = math.Float64bits(v)
	return stack
}

// Trapping float -> int truncations (spec-exact bounds).

func truncToI32S(f float64) int32 {
	if f != f {
		panic(newTrap(TrapInvalidConversion))
	}
	f = math.Trunc(f)
	if f < -2147483648 || f > 2147483647 {
		panic(newTrap(TrapIntegerOverflow))
	}
	return int32(f)
}

func truncToI32U(f float64) uint32 {
	if f != f {
		panic(newTrap(TrapInvalidConversion))
	}
	f = math.Trunc(f)
	if f < 0 || f > 4294967295 {
		panic(newTrap(TrapIntegerOverflow))
	}
	return uint32(f)
}

func truncToI64S(f float64) int64 {
	if f != f {
		panic(newTrap(TrapInvalidConversion))
	}
	f = math.Trunc(f)
	if f < -9223372036854775808 || f >= 9223372036854775808 {
		panic(newTrap(TrapIntegerOverflow))
	}
	return int64(f)
}

func truncToI64U(f float64) uint64 {
	if f != f {
		panic(newTrap(TrapInvalidConversion))
	}
	f = math.Trunc(f)
	if f < 0 || f >= 18446744073709551616 {
		panic(newTrap(TrapIntegerOverflow))
	}
	return uint64(f)
}

// Saturating variants.

func truncSatI32S(f float64) int32 {
	if f != f {
		return 0
	}
	f = math.Trunc(f)
	if f < -2147483648 {
		return math.MinInt32
	}
	if f > 2147483647 {
		return math.MaxInt32
	}
	return int32(f)
}

func truncSatI32U(f float64) uint32 {
	if f != f || f < 0 {
		return 0
	}
	f = math.Trunc(f)
	if f > 4294967295 {
		return math.MaxUint32
	}
	return uint32(f)
}

func truncSatI64S(f float64) int64 {
	if f != f {
		return 0
	}
	f = math.Trunc(f)
	if f < -9223372036854775808 {
		return math.MinInt64
	}
	if f >= 9223372036854775808 {
		return math.MaxInt64
	}
	return int64(f)
}

func truncSatI64U(f float64) uint64 {
	if f != f || f < 0 {
		return 0
	}
	f = math.Trunc(f)
	if f >= 18446744073709551616 {
		return math.MaxUint64
	}
	return uint64(f)
}

// Little-endian helpers avoiding encoding/binary's interface indirection on
// the hot path.

func leUint16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }

func leUint32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func leUint64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeUint32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putLeUint64(b []byte, v uint64) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

type errUnknownInstr uint16

func (e errUnknownInstr) Error() string {
	return "wasm: internal error: unknown compiled instruction"
}
