package wasm

import (
	"math"
	"math/bits"
	"time"
)

// Closure tier: each (fused) instruction is lowered once per module, on the
// first closure-tier instantiation, to a Go closure with its immediates,
// branch targets and successor pc captured as constants. Execution is a
// register-caching dispatch loop — pc and sp live in registers, the operand
// stack is indexed (no append traffic), and there is no per-instruction
// switch: the cost per op is one indirect call. Opcodes embedded in fused
// instructions (the i32 binop / compare selectors) are resolved to direct
// function values during compilation, so no fused op re-dispatches on its
// selector at run time.
//
// Fuel/InstrCount/trap accounting is bit-identical to the interpreter, but
// charged at straight-line segment granularity: the stream is cut at every
// instruction that can trap, branch, call or return (and at every branch
// target), and the dispatch loop pre-charges each segment's total fused
// width at the segment's first op. Because nothing before a segment's
// final instruction can fault or leave the segment, the only early exit a
// pre-charge moves is fuel exhaustion itself — and Instance.chargeFuel
// makes that land on the exact instruction boundary (InstrCount advances
// only by the units actually paid), so exhaustion, InstrCount and every
// trap class remain indistinguishable from per-instruction charging. The
// one op whose trapping operation is not last (fLoadEqzBr) splits its
// charge around the load (see fusedPreCharge).

// closOp executes one lowered instruction and returns (next pc, next sp).
// A negative pc terminates the loop; results sit at stack[sp-n:sp].
type closOp func(e *closEnv, sp int) (int, int)

// closEnv is the per-depth execution environment, cached in frameBuf so an
// outer call's env (and its locals/stack buffers) is reused across calls at
// the same depth without heap churn.
type closEnv struct {
	in     *Instance
	mem    *Memory
	locals []uint64
	stack  []uint64
}

// closFunc is the closure-compiled form of one function body. charge holds
// the batch fuel charge per pc: the segment's total fused width at each
// segment head, zero for mid-segment ops.
type closFunc struct {
	ops        []closOp
	charge     []uint32
	numLocals  int // params + locals
	numResults int
	stackCap   int
}

// execClosures runs a closure-compiled body. Panics with *Trap on fault,
// exactly like exec.
func (in *Instance) execClosures(cf *closFunc, args []uint64) []uint64 {
	for len(in.frameBufs) <= in.depth {
		in.frameBufs = append(in.frameBufs, frameBuf{})
	}
	fb := &in.frameBufs[in.depth]
	if fb.env == nil {
		fb.env = &closEnv{}
	}
	e := fb.env
	if cap(e.locals) < cf.numLocals {
		e.locals = make([]uint64, cf.numLocals)
	}
	e.locals = e.locals[:cf.numLocals]
	copy(e.locals, args)
	clear(e.locals[len(args):])
	if cap(e.stack) < cf.stackCap {
		e.stack = make([]uint64, cf.stackCap)
	}
	e.stack = e.stack[:cf.stackCap]
	e.in = in
	e.mem = in.mem

	ops := cf.ops
	sp := 0
	if in.fuelEnabled {
		charge := cf.charge
		for pc := 0; pc >= 0; {
			if k := charge[pc]; k != 0 { // mid-segment ops were charged at their head
				if f := in.fuel; f >= int64(k) {
					in.fuel = f - int64(k)
					in.InstrCount += uint64(k)
					if in.deadline != 0 && in.InstrCount>>16 != (in.InstrCount-uint64(k))>>16 &&
						time.Now().UnixNano() > in.deadline {
						panic(newTrap(TrapDeadlineExceeded))
					}
				} else {
					in.chargeFuel(k) // slow path: unlimited (-1) or exhaustion
				}
			}
			pc, sp = ops[pc](e, sp)
		}
	} else {
		for pc := 0; pc >= 0; {
			pc, sp = ops[pc](e, sp)
		}
	}

	n := cf.numResults
	if cap(fb.res) < n {
		fb.res = make([]uint64, n)
	}
	res := fb.res[:n]
	copy(res, e.stack[sp-n:sp])
	return res
}

// takeBranchSP applies a branch target to the indexed operand stack.
func takeBranchSP(stack []uint64, sp int, t branchTarget) int {
	if t.keep > 0 {
		copy(stack[t.unwind:], stack[sp-int(t.keep):sp])
	}
	return int(t.unwind + t.keep)
}

// Generic closure generators. The hot i32/fused ops get hand-specialized
// closures below; everything else funnels through these.

func clUn(next int, fn func(uint64) uint64) closOp {
	return func(e *closEnv, sp int) (int, int) {
		e.stack[sp-1] = fn(e.stack[sp-1])
		return next, sp
	}
}

func clBin(next int, fn func(x, y uint64) uint64) closOp {
	return func(e *closEnv, sp int) (int, int) {
		e.stack[sp-2] = fn(e.stack[sp-2], e.stack[sp-1])
		return next, sp - 1
	}
}

func clCmp(next int, fn func(x, y uint64) bool) closOp {
	return func(e *closEnv, sp int) (int, int) {
		e.stack[sp-2] = b2i(fn(e.stack[sp-2], e.stack[sp-1]))
		return next, sp - 1
	}
}

func clLoad(next int, off, n uint64, conv func([]byte) uint64) closOp {
	return func(e *closEnv, sp int) (int, int) {
		a := uint64(uint32(e.stack[sp-1])) + off
		e.stack[sp-1] = conv(e.mem.mustRange(a, n))
		return next, sp
	}
}

func clStore(next int, off, n uint64, put func([]byte, uint64)) closOp {
	return func(e *closEnv, sp int) (int, int) {
		v := e.stack[sp-1]
		a := uint64(uint32(e.stack[sp-2])) + off
		put(e.mem.mustRange(a, n), v)
		return next, sp - 2
	}
}

// i32binFn resolves an i32 binop opcode (standalone or embedded in a fused
// op as a selector) to a direct function at compile time, so arithmetic
// costs one call, not a switch per execution.
func i32binFn(op uint16) func(x, y uint32) uint32 {
	switch op {
	case uint16(OpI32Add):
		return func(x, y uint32) uint32 { return x + y }
	case uint16(OpI32Sub):
		return func(x, y uint32) uint32 { return x - y }
	case uint16(OpI32Mul):
		return func(x, y uint32) uint32 { return x * y }
	case uint16(OpI32DivS):
		return func(x, y uint32) uint32 {
			if y == 0 {
				panic(newTrap(TrapIntegerDivideByZero))
			}
			if int32(x) == math.MinInt32 && int32(y) == -1 {
				panic(newTrap(TrapIntegerOverflow))
			}
			return uint32(int32(x) / int32(y))
		}
	case uint16(OpI32DivU):
		return func(x, y uint32) uint32 {
			if y == 0 {
				panic(newTrap(TrapIntegerDivideByZero))
			}
			return x / y
		}
	case uint16(OpI32RemS):
		return func(x, y uint32) uint32 {
			if y == 0 {
				panic(newTrap(TrapIntegerDivideByZero))
			}
			if int32(x) == math.MinInt32 && int32(y) == -1 {
				return 0
			}
			return uint32(int32(x) % int32(y))
		}
	case uint16(OpI32RemU):
		return func(x, y uint32) uint32 {
			if y == 0 {
				panic(newTrap(TrapIntegerDivideByZero))
			}
			return x % y
		}
	case uint16(OpI32And):
		return func(x, y uint32) uint32 { return x & y }
	case uint16(OpI32Or):
		return func(x, y uint32) uint32 { return x | y }
	case uint16(OpI32Xor):
		return func(x, y uint32) uint32 { return x ^ y }
	case uint16(OpI32Shl):
		return func(x, y uint32) uint32 { return x << (y & 31) }
	case uint16(OpI32ShrS):
		return func(x, y uint32) uint32 { return uint32(int32(x) >> (y & 31)) }
	case uint16(OpI32ShrU):
		return func(x, y uint32) uint32 { return x >> (y & 31) }
	case uint16(OpI32Rotl):
		return func(x, y uint32) uint32 { return bits.RotateLeft32(x, int(y&31)) }
	case uint16(OpI32Rotr):
		return func(x, y uint32) uint32 { return bits.RotateLeft32(x, -int(y&31)) }
	}
	return func(x, y uint32) uint32 { panic(&Trap{Code: TrapHostError, Wrapped: errUnknownInstr(op)}) }
}

// i32cmpFn is the comparison counterpart of i32binFn.
func i32cmpFn(op uint16) func(x, y uint32) bool {
	switch op {
	case uint16(OpI32Eq):
		return func(x, y uint32) bool { return x == y }
	case uint16(OpI32Ne):
		return func(x, y uint32) bool { return x != y }
	case uint16(OpI32LtS):
		return func(x, y uint32) bool { return int32(x) < int32(y) }
	case uint16(OpI32LtU):
		return func(x, y uint32) bool { return x < y }
	case uint16(OpI32GtS):
		return func(x, y uint32) bool { return int32(x) > int32(y) }
	case uint16(OpI32GtU):
		return func(x, y uint32) bool { return x > y }
	case uint16(OpI32LeS):
		return func(x, y uint32) bool { return int32(x) <= int32(y) }
	case uint16(OpI32LeU):
		return func(x, y uint32) bool { return x <= y }
	case uint16(OpI32GeS):
		return func(x, y uint32) bool { return int32(x) >= int32(y) }
	case uint16(OpI32GeU):
		return func(x, y uint32) bool { return x >= y }
	}
	return func(x, y uint32) bool { panic(&Trap{Code: TrapHostError, Wrapped: errUnknownInstr(op)}) }
}

// compileClosures lowers a function's fused stream (code, the fusion pass's
// scratch output for f) to closures; nothing it returns references code. It
// never fails: any instruction the compiler emitted has a lowering, and an
// unknown op becomes a trapping closure, the same internal-error trap the
// interpreter raises.
//
// The charge array is built by segmenting the code at every instruction
// that can leave the straight line (trap, branch, call, return) and at
// every branch target: each segment head carries the segment's total fused
// width, every other pc charges zero.
func compileClosures(cm *CompiledModule, f *compiledFunc, code []instr) *closFunc {
	cf := &closFunc{
		ops:        make([]closOp, len(code)),
		charge:     make([]uint32, len(code)),
		numLocals:  f.numParams + f.numLocals,
		numResults: len(f.typ.Results),
		stackCap:   f.maxStack + 2,
	}
	for pc := range code {
		cf.ops[pc] = lowerInstr(cm, &code[pc], pc)
	}

	// head[pc] marks the first instruction of a charge segment: the entry,
	// every branch target (control can land there without paying the
	// segment head), and every successor of a segment-ending instruction.
	head := make([]bool, len(code)+1)
	head[0] = true
	for pc := range code {
		for _, t := range code[pc].targets {
			head[t.pc] = true
		}
		if !closMidSegment(&code[pc]) {
			head[pc+1] = true
		}
	}
	for pc := 0; pc < len(code); {
		end := pc
		for !head[end+1] {
			end++
		}
		var k uint32
		for i := pc; i <= end; i++ {
			k += fusedPreCharge(code[i].op)
		}
		cf.charge[pc] = k
		pc = end + 1
	}
	return cf
}

// closMidSegment reports whether an instruction may sit before the end of a
// fuel pre-charge segment: it must not trap, branch, call or return, so the
// only way execution leaves a pre-charged segment early is fuel exhaustion
// at the segment head — the boundary chargeFuel accounts for exactly.
// Anything unrecognized conservatively ends its segment.
func closMidSegment(ins *instr) bool {
	op := ins.op
	switch op {
	case uint16(OpDrop), uint16(OpSelect),
		uint16(OpLocalGet), uint16(OpLocalSet), uint16(OpLocalTee),
		uint16(OpGlobalGet), uint16(OpGlobalSet),
		uint16(OpMemorySize), uint16(OpMemoryGrow),
		fGetGet, fGetConst, fGetGetCmp32, fGetConstCmp32, fGetConstAddSet:
		return true
	case fGetBin32, fGetGetBin32:
		return !i32binTraps(uint16(ins.imm))
	case fGetConstBin32:
		return !i32binTraps(uint16(ins.b))
	}
	switch {
	case op >= uint16(OpI32Const) && op <= uint16(OpF64Ge):
		return true // constants, tests, comparisons
	case op >= uint16(OpI32Clz) && op <= uint16(OpI64Rotr):
		return !i32binTraps(op) && !(op >= uint16(OpI64DivS) && op <= uint16(OpI64RemU))
	case op >= uint16(OpF32Abs) && op <= uint16(OpI32WrapI64):
		return true // float arithmetic never traps
	case op >= uint16(OpI32TruncF32S) && op <= uint16(OpI64TruncF64U):
		return op == uint16(OpI64ExtendI32S) || op == uint16(OpI64ExtendI32U)
	case op >= uint16(OpF32ConvertI32S) && op <= uint16(OpI64Extend32S):
		return true // conversions, reinterprets, sign extensions
	case op >= miscBase+uint16(MiscI32TruncSatF32S) && op <= miscBase+uint16(MiscI64TruncSatF64U):
		return true // saturating truncation never traps
	}
	return false
}

// i32binTraps reports whether an i32 binop selector can trap (div/rem).
func i32binTraps(op uint16) bool {
	return op >= uint16(OpI32DivS) && op <= uint16(OpI32RemU)
}

// callClosure is dispatch specialized for a compile-time-resolved guest
// callee on the closure tier. Semantics are identical to dispatch: same
// depth guard, same call-boundary deadline poll, and the profiled path
// falls back to the shared shadow-stack wrapper.
func (in *Instance) callClosure(fx uint32, f *compiledFunc, args []uint64) []uint64 {
	if in.prof != nil {
		return in.invokeProfiled(fx, args)
	}
	if in.depth >= in.maxDepth {
		panic(newTrap(TrapCallStackExhausted))
	}
	in.depth++
	defer func() { in.depth-- }()
	if in.deadline != 0 {
		in.pollDeadline()
	}
	return in.execClosures(f.clos, args)
}

// branchOp builds the taken-branch closure body shared by all branching
// lowerings: deadline poll on back-edges, stack adjustment, target pc.
func takeBranchOp(e *closEnv, sp int, t branchTarget, back bool) (int, int) {
	if back && e.in.deadline != 0 {
		e.in.pollDeadline()
	}
	return int(t.pc), takeBranchSP(e.stack, sp, t)
}

func lowerInstr(cm *CompiledModule, ins *instr, pc int) closOp {
	next := pc + 1
	op := ins.op

	// Embedded-selector fused ops resolve their function values up front.
	switch op {

	// Control flow ------------------------------------------------------
	case uint16(OpUnreachable):
		return func(e *closEnv, sp int) (int, int) { panic(newTrap(TrapUnreachable)) }
	case opJump:
		t := ins.targets[0]
		back := int(t.pc) <= pc
		return func(e *closEnv, sp int) (int, int) { return takeBranchOp(e, sp, t, back) }
	case opBrIfFalse:
		t := ins.targets[0]
		back := int(t.pc) <= pc
		return func(e *closEnv, sp int) (int, int) {
			c := uint32(e.stack[sp-1])
			sp--
			if c == 0 {
				return takeBranchOp(e, sp, t, back)
			}
			return next, sp
		}
	case uint16(OpBrIf):
		t := ins.targets[0]
		back := int(t.pc) <= pc
		return func(e *closEnv, sp int) (int, int) {
			c := uint32(e.stack[sp-1])
			sp--
			if c != 0 {
				return takeBranchOp(e, sp, t, back)
			}
			return next, sp
		}
	case uint16(OpBrTable):
		ts := append([]branchTarget(nil), ins.targets...) // ins lives in fusion scratch
		return func(e *closEnv, sp int) (int, int) {
			sel := int(uint32(e.stack[sp-1]))
			sp--
			if sel >= len(ts)-1 {
				sel = len(ts) - 1
			}
			t := ts[sel]
			return takeBranchOp(e, sp, t, int(t.pc) <= pc)
		}
	case opReturnOp:
		return func(e *closEnv, sp int) (int, int) { return -1, sp }
	case uint16(OpCall):
		fx := ins.a
		np := len(cm.types[fx].Params)
		if nImp := cm.m.numImportedFuncs; int(fx) >= nImp {
			// Guest callee resolved at compile time: the import check and
			// tier switch drop out of the hot path. callee.clos is always
			// built by the time this runs (buildClosures completes before
			// any closure-tier instance exists).
			callee := cm.funcs[int(fx)-nImp]
			return func(e *closEnv, sp int) (int, int) {
				res := e.in.callClosure(fx, callee, e.stack[sp-np:sp])
				sp -= np
				sp += copy(e.stack[sp:], res)
				return next, sp
			}
		}
		return func(e *closEnv, sp int) (int, int) {
			res := e.in.invoke(fx, e.stack[sp-np:sp])
			sp -= np
			sp += copy(e.stack[sp:], res)
			return next, sp
		}
	case uint16(OpCallIndirect):
		want := cm.m.Types[ins.a]
		np := len(want.Params)
		return func(e *closEnv, sp int) (int, int) {
			in := e.in
			elem := uint32(e.stack[sp-1])
			sp--
			if int(elem) >= len(in.table) {
				panic(newTrap(TrapOutOfBoundsTable))
			}
			entry := in.table[elem]
			if entry == 0 {
				panic(newTrap(TrapUninitializedElement))
			}
			funcIdx := entry - 1
			if !in.cm.types[funcIdx].Equal(want) {
				panic(newTrap(TrapIndirectCallTypeMismatch))
			}
			res := in.invoke(funcIdx, e.stack[sp-np:sp])
			sp -= np
			sp += copy(e.stack[sp:], res)
			return next, sp
		}

	// Parametric --------------------------------------------------------
	case uint16(OpDrop):
		return func(e *closEnv, sp int) (int, int) { return next, sp - 1 }
	case uint16(OpSelect):
		return func(e *closEnv, sp int) (int, int) {
			if uint32(e.stack[sp-1]) == 0 {
				e.stack[sp-3] = e.stack[sp-2]
			}
			return next, sp - 2
		}

	// Variables ---------------------------------------------------------
	case uint16(OpLocalGet):
		ix := int(ins.a)
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp] = e.locals[ix]
			return next, sp + 1
		}
	case uint16(OpLocalSet):
		ix := int(ins.a)
		return func(e *closEnv, sp int) (int, int) {
			e.locals[ix] = e.stack[sp-1]
			return next, sp - 1
		}
	case uint16(OpLocalTee):
		ix := int(ins.a)
		return func(e *closEnv, sp int) (int, int) {
			e.locals[ix] = e.stack[sp-1]
			return next, sp
		}
	case uint16(OpGlobalGet):
		ix := int(ins.a)
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp] = e.in.globals[ix]
			return next, sp + 1
		}
	case uint16(OpGlobalSet):
		ix := int(ins.a)
		return func(e *closEnv, sp int) (int, int) {
			e.in.globals[ix] = e.stack[sp-1]
			return next, sp - 1
		}

	// Memory ------------------------------------------------------------
	case uint16(OpI32Load):
		off := ins.imm
		return func(e *closEnv, sp int) (int, int) {
			a := uint64(uint32(e.stack[sp-1])) + off
			e.stack[sp-1] = uint64(leUint32(e.mem.mustRange(a, 4)))
			return next, sp
		}
	case uint16(OpI64Load), uint16(OpF64Load):
		return clLoad(next, ins.imm, 8, leUint64)
	case uint16(OpF32Load):
		return clLoad(next, ins.imm, 4, func(b []byte) uint64 { return uint64(leUint32(b)) })
	case uint16(OpI32Load8S):
		return clLoad(next, ins.imm, 1, func(b []byte) uint64 { return uint64(uint32(int32(int8(b[0])))) })
	case uint16(OpI32Load8U), uint16(OpI64Load8U):
		return clLoad(next, ins.imm, 1, func(b []byte) uint64 { return uint64(b[0]) })
	case uint16(OpI32Load16S):
		return clLoad(next, ins.imm, 2, func(b []byte) uint64 { return uint64(uint32(int32(int16(leUint16(b))))) })
	case uint16(OpI32Load16U), uint16(OpI64Load16U):
		return clLoad(next, ins.imm, 2, func(b []byte) uint64 { return uint64(leUint16(b)) })
	case uint16(OpI64Load8S):
		return clLoad(next, ins.imm, 1, func(b []byte) uint64 { return uint64(int64(int8(b[0]))) })
	case uint16(OpI64Load16S):
		return clLoad(next, ins.imm, 2, func(b []byte) uint64 { return uint64(int64(int16(leUint16(b)))) })
	case uint16(OpI64Load32S):
		return clLoad(next, ins.imm, 4, func(b []byte) uint64 { return uint64(int64(int32(leUint32(b)))) })
	case uint16(OpI64Load32U):
		return clLoad(next, ins.imm, 4, func(b []byte) uint64 { return uint64(leUint32(b)) })

	case uint16(OpI32Store):
		off := ins.imm
		return func(e *closEnv, sp int) (int, int) {
			v := uint32(e.stack[sp-1])
			a := uint64(uint32(e.stack[sp-2])) + off
			putLeUint32(e.mem.mustRange(a, 4), v)
			return next, sp - 2
		}
	case uint16(OpF32Store), uint16(OpI64Store32):
		return clStore(next, ins.imm, 4, func(b []byte, v uint64) { putLeUint32(b, uint32(v)) })
	case uint16(OpI64Store), uint16(OpF64Store):
		return clStore(next, ins.imm, 8, putLeUint64)
	case uint16(OpI32Store8), uint16(OpI64Store8):
		return clStore(next, ins.imm, 1, func(b []byte, v uint64) { b[0] = byte(v) })
	case uint16(OpI32Store16), uint16(OpI64Store16):
		return clStore(next, ins.imm, 2, func(b []byte, v uint64) { b[0], b[1] = byte(v), byte(v>>8) })

	case uint16(OpMemorySize):
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp] = uint64(e.mem.Size())
			return next, sp + 1
		}
	case uint16(OpMemoryGrow):
		return func(e *closEnv, sp int) (int, int) {
			prev, ok := e.mem.Grow(uint32(e.stack[sp-1]))
			if ok {
				e.stack[sp-1] = uint64(prev)
			} else {
				e.stack[sp-1] = uint64(uint32(0xFFFFFFFF))
			}
			return next, sp
		}

	// Constants ---------------------------------------------------------
	case uint16(OpI32Const), uint16(OpI64Const), uint16(OpF32Const), uint16(OpF64Const):
		imm := ins.imm
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp] = imm
			return next, sp + 1
		}

	// i32/i64 tests -----------------------------------------------------
	case uint16(OpI32Eqz):
		return clUn(next, func(v uint64) uint64 { return b2i(uint32(v) == 0) })
	case uint16(OpI64Eqz):
		return clUn(next, func(v uint64) uint64 { return b2i(v == 0) })

	// i64 comparisons ---------------------------------------------------
	case uint16(OpI64Eq):
		return clCmp(next, func(x, y uint64) bool { return x == y })
	case uint16(OpI64Ne):
		return clCmp(next, func(x, y uint64) bool { return x != y })
	case uint16(OpI64LtS):
		return clCmp(next, func(x, y uint64) bool { return int64(x) < int64(y) })
	case uint16(OpI64LtU):
		return clCmp(next, func(x, y uint64) bool { return x < y })
	case uint16(OpI64GtS):
		return clCmp(next, func(x, y uint64) bool { return int64(x) > int64(y) })
	case uint16(OpI64GtU):
		return clCmp(next, func(x, y uint64) bool { return x > y })
	case uint16(OpI64LeS):
		return clCmp(next, func(x, y uint64) bool { return int64(x) <= int64(y) })
	case uint16(OpI64LeU):
		return clCmp(next, func(x, y uint64) bool { return x <= y })
	case uint16(OpI64GeS):
		return clCmp(next, func(x, y uint64) bool { return int64(x) >= int64(y) })
	case uint16(OpI64GeU):
		return clCmp(next, func(x, y uint64) bool { return x >= y })

	// float comparisons -------------------------------------------------
	case uint16(OpF32Eq):
		return clCmp(next, func(x, y uint64) bool { return f32FromBits(x) == f32FromBits(y) })
	case uint16(OpF32Ne):
		return clCmp(next, func(x, y uint64) bool { return f32FromBits(x) != f32FromBits(y) })
	case uint16(OpF32Lt):
		return clCmp(next, func(x, y uint64) bool { return f32FromBits(x) < f32FromBits(y) })
	case uint16(OpF32Gt):
		return clCmp(next, func(x, y uint64) bool { return f32FromBits(x) > f32FromBits(y) })
	case uint16(OpF32Le):
		return clCmp(next, func(x, y uint64) bool { return f32FromBits(x) <= f32FromBits(y) })
	case uint16(OpF32Ge):
		return clCmp(next, func(x, y uint64) bool { return f32FromBits(x) >= f32FromBits(y) })
	case uint16(OpF64Eq):
		return clCmp(next, func(x, y uint64) bool { return f64FromBits(x) == f64FromBits(y) })
	case uint16(OpF64Ne):
		return clCmp(next, func(x, y uint64) bool { return f64FromBits(x) != f64FromBits(y) })
	case uint16(OpF64Lt):
		return clCmp(next, func(x, y uint64) bool { return f64FromBits(x) < f64FromBits(y) })
	case uint16(OpF64Gt):
		return clCmp(next, func(x, y uint64) bool { return f64FromBits(x) > f64FromBits(y) })
	case uint16(OpF64Le):
		return clCmp(next, func(x, y uint64) bool { return f64FromBits(x) <= f64FromBits(y) })
	case uint16(OpF64Ge):
		return clCmp(next, func(x, y uint64) bool { return f64FromBits(x) >= f64FromBits(y) })

	// i32 unary ---------------------------------------------------------
	case uint16(OpI32Clz):
		return clUn(next, func(v uint64) uint64 { return uint64(bits.LeadingZeros32(uint32(v))) })
	case uint16(OpI32Ctz):
		return clUn(next, func(v uint64) uint64 { return uint64(bits.TrailingZeros32(uint32(v))) })
	case uint16(OpI32Popcnt):
		return clUn(next, func(v uint64) uint64 { return uint64(bits.OnesCount32(uint32(v))) })

	// i64 arithmetic ----------------------------------------------------
	case uint16(OpI64Clz):
		return clUn(next, func(v uint64) uint64 { return uint64(bits.LeadingZeros64(v)) })
	case uint16(OpI64Ctz):
		return clUn(next, func(v uint64) uint64 { return uint64(bits.TrailingZeros64(v)) })
	case uint16(OpI64Popcnt):
		return clUn(next, func(v uint64) uint64 { return uint64(bits.OnesCount64(v)) })
	case uint16(OpI64Add):
		return clBin(next, func(x, y uint64) uint64 { return x + y })
	case uint16(OpI64Sub):
		return clBin(next, func(x, y uint64) uint64 { return x - y })
	case uint16(OpI64Mul):
		return clBin(next, func(x, y uint64) uint64 { return x * y })
	case uint16(OpI64DivS):
		return clBin(next, func(x, y uint64) uint64 {
			if y == 0 {
				panic(newTrap(TrapIntegerDivideByZero))
			}
			if int64(x) == math.MinInt64 && int64(y) == -1 {
				panic(newTrap(TrapIntegerOverflow))
			}
			return uint64(int64(x) / int64(y))
		})
	case uint16(OpI64DivU):
		return clBin(next, func(x, y uint64) uint64 {
			if y == 0 {
				panic(newTrap(TrapIntegerDivideByZero))
			}
			return x / y
		})
	case uint16(OpI64RemS):
		return clBin(next, func(x, y uint64) uint64 {
			if y == 0 {
				panic(newTrap(TrapIntegerDivideByZero))
			}
			if int64(x) == math.MinInt64 && int64(y) == -1 {
				return 0
			}
			return uint64(int64(x) % int64(y))
		})
	case uint16(OpI64RemU):
		return clBin(next, func(x, y uint64) uint64 {
			if y == 0 {
				panic(newTrap(TrapIntegerDivideByZero))
			}
			return x % y
		})
	case uint16(OpI64And):
		return clBin(next, func(x, y uint64) uint64 { return x & y })
	case uint16(OpI64Or):
		return clBin(next, func(x, y uint64) uint64 { return x | y })
	case uint16(OpI64Xor):
		return clBin(next, func(x, y uint64) uint64 { return x ^ y })
	case uint16(OpI64Shl):
		return clBin(next, func(x, y uint64) uint64 { return x << (y & 63) })
	case uint16(OpI64ShrS):
		return clBin(next, func(x, y uint64) uint64 { return uint64(int64(x) >> (y & 63)) })
	case uint16(OpI64ShrU):
		return clBin(next, func(x, y uint64) uint64 { return x >> (y & 63) })
	case uint16(OpI64Rotl):
		return clBin(next, func(x, y uint64) uint64 { return bits.RotateLeft64(x, int(y&63)) })
	case uint16(OpI64Rotr):
		return clBin(next, func(x, y uint64) uint64 { return bits.RotateLeft64(x, -int(y&63)) })

	// f32 arithmetic ----------------------------------------------------
	case uint16(OpF32Abs):
		return clUn(next, func(v uint64) uint64 { return uint64(uint32(v) &^ (1 << 31)) })
	case uint16(OpF32Neg):
		return clUn(next, func(v uint64) uint64 { return uint64(uint32(v) ^ (1 << 31)) })
	case uint16(OpF32Ceil):
		return clUn(next, func(v uint64) uint64 { return f32Bits(float32(math.Ceil(float64(f32FromBits(v))))) })
	case uint16(OpF32Floor):
		return clUn(next, func(v uint64) uint64 { return f32Bits(float32(math.Floor(float64(f32FromBits(v))))) })
	case uint16(OpF32Trunc):
		return clUn(next, func(v uint64) uint64 { return f32Bits(float32(math.Trunc(float64(f32FromBits(v))))) })
	case uint16(OpF32Nearest):
		return clUn(next, func(v uint64) uint64 { return f32Bits(float32(math.RoundToEven(float64(f32FromBits(v))))) })
	case uint16(OpF32Sqrt):
		return clUn(next, func(v uint64) uint64 { return f32Bits(float32(math.Sqrt(float64(f32FromBits(v))))) })
	case uint16(OpF32Add):
		return clBin(next, func(x, y uint64) uint64 { return f32Bits(f32FromBits(x) + f32FromBits(y)) })
	case uint16(OpF32Sub):
		return clBin(next, func(x, y uint64) uint64 { return f32Bits(f32FromBits(x) - f32FromBits(y)) })
	case uint16(OpF32Mul):
		return clBin(next, func(x, y uint64) uint64 { return f32Bits(f32FromBits(x) * f32FromBits(y)) })
	case uint16(OpF32Div):
		return clBin(next, func(x, y uint64) uint64 { return f32Bits(f32FromBits(x) / f32FromBits(y)) })
	case uint16(OpF32Min):
		return clBin(next, func(x, y uint64) uint64 {
			return f32Bits(float32(math.Min(float64(f32FromBits(x)), float64(f32FromBits(y)))))
		})
	case uint16(OpF32Max):
		return clBin(next, func(x, y uint64) uint64 {
			return f32Bits(float32(math.Max(float64(f32FromBits(x)), float64(f32FromBits(y)))))
		})
	case uint16(OpF32Copysign):
		return clBin(next, func(x, y uint64) uint64 {
			return f32Bits(float32(math.Copysign(float64(f32FromBits(x)), float64(f32FromBits(y)))))
		})

	// f64 arithmetic ----------------------------------------------------
	case uint16(OpF64Abs):
		return clUn(next, func(v uint64) uint64 { return v &^ (1 << 63) })
	case uint16(OpF64Neg):
		return clUn(next, func(v uint64) uint64 { return v ^ (1 << 63) })
	case uint16(OpF64Ceil):
		return clUn(next, func(v uint64) uint64 { return math.Float64bits(math.Ceil(f64FromBits(v))) })
	case uint16(OpF64Floor):
		return clUn(next, func(v uint64) uint64 { return math.Float64bits(math.Floor(f64FromBits(v))) })
	case uint16(OpF64Trunc):
		return clUn(next, func(v uint64) uint64 { return math.Float64bits(math.Trunc(f64FromBits(v))) })
	case uint16(OpF64Nearest):
		return clUn(next, func(v uint64) uint64 { return math.Float64bits(math.RoundToEven(f64FromBits(v))) })
	case uint16(OpF64Sqrt):
		return clUn(next, func(v uint64) uint64 { return math.Float64bits(math.Sqrt(f64FromBits(v))) })
	case uint16(OpF64Add):
		return clBin(next, func(x, y uint64) uint64 { return math.Float64bits(f64FromBits(x) + f64FromBits(y)) })
	case uint16(OpF64Sub):
		return clBin(next, func(x, y uint64) uint64 { return math.Float64bits(f64FromBits(x) - f64FromBits(y)) })
	case uint16(OpF64Mul):
		return clBin(next, func(x, y uint64) uint64 { return math.Float64bits(f64FromBits(x) * f64FromBits(y)) })
	case uint16(OpF64Div):
		return clBin(next, func(x, y uint64) uint64 { return math.Float64bits(f64FromBits(x) / f64FromBits(y)) })
	case uint16(OpF64Min):
		return clBin(next, func(x, y uint64) uint64 { return math.Float64bits(math.Min(f64FromBits(x), f64FromBits(y))) })
	case uint16(OpF64Max):
		return clBin(next, func(x, y uint64) uint64 { return math.Float64bits(math.Max(f64FromBits(x), f64FromBits(y))) })
	case uint16(OpF64Copysign):
		return clBin(next, func(x, y uint64) uint64 { return math.Float64bits(math.Copysign(f64FromBits(x), f64FromBits(y))) })

	// Conversions -------------------------------------------------------
	case uint16(OpI32WrapI64), uint16(OpI64ExtendI32U):
		return clUn(next, func(v uint64) uint64 { return uint64(uint32(v)) })
	case uint16(OpI32TruncF32S):
		return clUn(next, func(v uint64) uint64 { return uint64(uint32(truncToI32S(float64(f32FromBits(v))))) })
	case uint16(OpI32TruncF32U):
		return clUn(next, func(v uint64) uint64 { return uint64(truncToI32U(float64(f32FromBits(v)))) })
	case uint16(OpI32TruncF64S):
		return clUn(next, func(v uint64) uint64 { return uint64(uint32(truncToI32S(f64FromBits(v)))) })
	case uint16(OpI32TruncF64U):
		return clUn(next, func(v uint64) uint64 { return uint64(truncToI32U(f64FromBits(v))) })
	case uint16(OpI64ExtendI32S):
		return clUn(next, func(v uint64) uint64 { return uint64(int64(int32(v))) })
	case uint16(OpI64TruncF32S):
		return clUn(next, func(v uint64) uint64 { return uint64(truncToI64S(float64(f32FromBits(v)))) })
	case uint16(OpI64TruncF32U):
		return clUn(next, func(v uint64) uint64 { return truncToI64U(float64(f32FromBits(v))) })
	case uint16(OpI64TruncF64S):
		return clUn(next, func(v uint64) uint64 { return uint64(truncToI64S(f64FromBits(v))) })
	case uint16(OpI64TruncF64U):
		return clUn(next, func(v uint64) uint64 { return truncToI64U(f64FromBits(v)) })
	case uint16(OpF32ConvertI32S):
		return clUn(next, func(v uint64) uint64 { return f32Bits(float32(int32(v))) })
	case uint16(OpF32ConvertI32U):
		return clUn(next, func(v uint64) uint64 { return f32Bits(float32(uint32(v))) })
	case uint16(OpF32ConvertI64S):
		return clUn(next, func(v uint64) uint64 { return f32Bits(float32(int64(v))) })
	case uint16(OpF32ConvertI64U):
		return clUn(next, func(v uint64) uint64 { return f32Bits(float32(v)) })
	case uint16(OpF32DemoteF64):
		return clUn(next, func(v uint64) uint64 { return f32Bits(float32(f64FromBits(v))) })
	case uint16(OpF64ConvertI32S):
		return clUn(next, func(v uint64) uint64 { return math.Float64bits(float64(int32(v))) })
	case uint16(OpF64ConvertI32U):
		return clUn(next, func(v uint64) uint64 { return math.Float64bits(float64(uint32(v))) })
	case uint16(OpF64ConvertI64S):
		return clUn(next, func(v uint64) uint64 { return math.Float64bits(float64(int64(v))) })
	case uint16(OpF64ConvertI64U):
		return clUn(next, func(v uint64) uint64 { return math.Float64bits(float64(v)) })
	case uint16(OpF64PromoteF32):
		return clUn(next, func(v uint64) uint64 { return math.Float64bits(float64(f32FromBits(v))) })
	case uint16(OpI32ReinterpretF32), uint16(OpI64ReinterpretF64),
		uint16(OpF32ReinterpretI32), uint16(OpF64ReinterpretI64):
		return func(e *closEnv, sp int) (int, int) { return next, sp }

	// Sign extension ----------------------------------------------------
	case uint16(OpI32Extend8S):
		return clUn(next, func(v uint64) uint64 { return uint64(uint32(int32(int8(v)))) })
	case uint16(OpI32Extend16S):
		return clUn(next, func(v uint64) uint64 { return uint64(uint32(int32(int16(v)))) })
	case uint16(OpI64Extend8S):
		return clUn(next, func(v uint64) uint64 { return uint64(int64(int8(v))) })
	case uint16(OpI64Extend16S):
		return clUn(next, func(v uint64) uint64 { return uint64(int64(int16(v))) })
	case uint16(OpI64Extend32S):
		return clUn(next, func(v uint64) uint64 { return uint64(int64(int32(v))) })

	// Misc (0xFC) -------------------------------------------------------
	case miscBase + uint16(MiscI32TruncSatF32S):
		return clUn(next, func(v uint64) uint64 { return uint64(uint32(truncSatI32S(float64(f32FromBits(v))))) })
	case miscBase + uint16(MiscI32TruncSatF32U):
		return clUn(next, func(v uint64) uint64 { return uint64(truncSatI32U(float64(f32FromBits(v)))) })
	case miscBase + uint16(MiscI32TruncSatF64S):
		return clUn(next, func(v uint64) uint64 { return uint64(uint32(truncSatI32S(f64FromBits(v)))) })
	case miscBase + uint16(MiscI32TruncSatF64U):
		return clUn(next, func(v uint64) uint64 { return uint64(truncSatI32U(f64FromBits(v))) })
	case miscBase + uint16(MiscI64TruncSatF32S):
		return clUn(next, func(v uint64) uint64 { return uint64(truncSatI64S(float64(f32FromBits(v)))) })
	case miscBase + uint16(MiscI64TruncSatF32U):
		return clUn(next, func(v uint64) uint64 { return truncSatI64U(float64(f32FromBits(v))) })
	case miscBase + uint16(MiscI64TruncSatF64S):
		return clUn(next, func(v uint64) uint64 { return uint64(truncSatI64S(f64FromBits(v))) })
	case miscBase + uint16(MiscI64TruncSatF64U):
		return clUn(next, func(v uint64) uint64 { return truncSatI64U(f64FromBits(v)) })
	case miscBase + uint16(MiscMemoryCopy):
		return func(e *closEnv, sp int) (int, int) {
			n := uint64(uint32(e.stack[sp-1]))
			src := uint64(uint32(e.stack[sp-2]))
			dst := uint64(uint32(e.stack[sp-3]))
			s := e.mem.mustRange(src, n)
			d := e.mem.mustRange(dst, n)
			copy(d, s)
			return next, sp - 3
		}
	case miscBase + uint16(MiscMemoryFill):
		return func(e *closEnv, sp int) (int, int) {
			n := uint64(uint32(e.stack[sp-1]))
			val := byte(e.stack[sp-2])
			dst := uint64(uint32(e.stack[sp-3]))
			d := e.mem.mustRange(dst, n)
			for i := range d {
				d[i] = val
			}
			return next, sp - 3
		}

	// Fused superinstructions -------------------------------------------
	case fGetGet:
		a, b := int(ins.a), int(ins.b)
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp] = e.locals[a]
			e.stack[sp+1] = e.locals[b]
			return next, sp + 2
		}
	case fGetConst:
		a, imm := int(ins.a), ins.imm
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp] = e.locals[a]
			e.stack[sp+1] = imm
			return next, sp + 2
		}
	case fGetLoad32:
		a, off := int(ins.a), ins.imm
		return func(e *closEnv, sp int) (int, int) {
			addr := uint64(uint32(e.locals[a])) + off
			e.stack[sp] = uint64(leUint32(e.mem.mustRange(addr, 4)))
			return next, sp + 1
		}
	case fGetStore32:
		a, off := int(ins.a), ins.imm
		return func(e *closEnv, sp int) (int, int) {
			addr := uint64(uint32(e.stack[sp-1])) + off
			putLeUint32(e.mem.mustRange(addr, 4), uint32(e.locals[a]))
			return next, sp - 1
		}
	case fGetBin32:
		a, fn := int(ins.a), i32binFn(uint16(ins.imm))
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp-1] = uint64(fn(uint32(e.stack[sp-1]), uint32(e.locals[a])))
			return next, sp
		}
	case fGetGetBin32:
		a, b := int(ins.a), int(ins.b)
		if uint16(ins.imm) == uint16(OpI32Add) {
			return func(e *closEnv, sp int) (int, int) {
				e.stack[sp] = uint64(uint32(e.locals[a]) + uint32(e.locals[b]))
				return next, sp + 1
			}
		}
		fn := i32binFn(uint16(ins.imm))
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp] = uint64(fn(uint32(e.locals[a]), uint32(e.locals[b])))
			return next, sp + 1
		}
	case fGetGetCmp32:
		a, b, fn := int(ins.a), int(ins.b), i32cmpFn(uint16(ins.imm))
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp] = b2i(fn(uint32(e.locals[a]), uint32(e.locals[b])))
			return next, sp + 1
		}
	case fGetConstBin32:
		a, c, fn := int(ins.a), uint32(ins.imm), i32binFn(uint16(ins.b))
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp] = uint64(fn(uint32(e.locals[a]), c))
			return next, sp + 1
		}
	case fGetConstCmp32:
		a, c, fn := int(ins.a), uint32(ins.imm), i32cmpFn(uint16(ins.b))
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp] = b2i(fn(uint32(e.locals[a]), c))
			return next, sp + 1
		}
	case fGetGetStore32:
		a, b, off := int(ins.a), int(ins.b), ins.imm
		return func(e *closEnv, sp int) (int, int) {
			addr := uint64(uint32(e.locals[a])) + off
			putLeUint32(e.mem.mustRange(addr, 4), uint32(e.locals[b]))
			return next, sp
		}
	case fConstAddStore32:
		c, off := ins.a, ins.imm
		return func(e *closEnv, sp int) (int, int) {
			v := uint32(e.stack[sp-1]) + c
			addr := uint64(uint32(e.stack[sp-2])) + off
			putLeUint32(e.mem.mustRange(addr, 4), v)
			return next, sp - 2
		}
	case fGetGetCmpBr:
		a, b, fn := int(ins.a), int(ins.b), i32cmpFn(uint16(ins.imm))
		t := ins.targets[0]
		back := int(t.pc) <= pc
		return func(e *closEnv, sp int) (int, int) {
			if fn(uint32(e.locals[a]), uint32(e.locals[b])) {
				return takeBranchOp(e, sp, t, back)
			}
			return next, sp
		}
	case fGetConstCmpBr:
		a, c, fn := int(ins.a), uint32(ins.imm), i32cmpFn(uint16(ins.b))
		t := ins.targets[0]
		back := int(t.pc) <= pc
		return func(e *closEnv, sp int) (int, int) {
			if fn(uint32(e.locals[a]), c) {
				return takeBranchOp(e, sp, t, back)
			}
			return next, sp
		}
	case fGetConstAddSet:
		src, dst, c := int(ins.a), int(ins.b), uint32(ins.imm)
		return func(e *closEnv, sp int) (int, int) {
			e.locals[dst] = uint64(uint32(e.locals[src]) + c)
			return next, sp
		}
	case fLoadEqzBr:
		off := ins.imm
		t := ins.targets[0]
		back := int(t.pc) <= pc
		return func(e *closEnv, sp int) (int, int) {
			addr := uint64(uint32(e.stack[sp-1])) + off
			v := leUint32(e.mem.mustRange(addr, 4))
			sp--
			e.in.chargeFuel(2) // split charge: the load traps before eqz+br_if pay
			if v == 0 {
				return takeBranchOp(e, sp, t, back)
			}
			return next, sp
		}
	case fEqzBr:
		t := ins.targets[0]
		back := int(t.pc) <= pc
		return func(e *closEnv, sp int) (int, int) {
			c := uint32(e.stack[sp-1])
			sp--
			if c == 0 {
				return takeBranchOp(e, sp, t, back)
			}
			return next, sp
		}
	case fCmpBr:
		fn := i32cmpFn(uint16(ins.imm))
		t := ins.targets[0]
		back := int(t.pc) <= pc
		return func(e *closEnv, sp int) (int, int) {
			x, y := uint32(e.stack[sp-2]), uint32(e.stack[sp-1])
			sp -= 2
			if fn(x, y) {
				return takeBranchOp(e, sp, t, back)
			}
			return next, sp
		}
	}

	// i32 binops/compares not specialized above share the selector helpers.
	if isI32Bin(op) {
		fn := i32binFn(op)
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp-2] = uint64(fn(uint32(e.stack[sp-2]), uint32(e.stack[sp-1])))
			return next, sp - 1
		}
	}
	if isI32Cmp(op) {
		fn := i32cmpFn(op)
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp-2] = b2i(fn(uint32(e.stack[sp-2]), uint32(e.stack[sp-1])))
			return next, sp - 1
		}
	}

	unknown := op
	return func(e *closEnv, sp int) (int, int) {
		panic(&Trap{Code: TrapHostError, Wrapped: errUnknownInstr(unknown)})
	}
}

// f32Bits is math.Float32bits widened to the stack cell type.
func f32Bits(v float32) uint64 { return uint64(math.Float32bits(v)) }
