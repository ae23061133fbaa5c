package wasm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Internal opcodes above the single-byte space. The compiler lowers
// structured control flow to these pc-based jumps, and folds the 0xFC
// two-byte opcodes into a flat space.
const (
	opJump      uint16 = 0x100 // unconditional branch, targets[0]
	opBrIfFalse uint16 = 0x101 // branch when condition == 0 (compiled `if`)
	opReturnOp  uint16 = 0x102 // return top `a` values
	miscBase    uint16 = 0x200 // miscBase+sub for 0xFC-prefixed opcodes
)

// branchTarget describes a resolved branch: jump to pc after moving the top
// `keep` operand-stack values down to height `unwind`.
type branchTarget struct {
	pc     uint32
	unwind uint32
	keep   uint32
}

// instr is one flattened instruction. Interpretation of the fields depends
// on op: a holds indices (locals, globals, functions, types) or the return
// arity; imm holds constants and memory offsets; b is a second operand slot
// used only by fused superinstructions (second local index or embedded
// selector opcode — see fuse.go).
type instr struct {
	op      uint16
	a       uint32
	b       uint32
	imm     uint64
	targets []branchTarget
}

// compiledFunc is the executable form of a function body.
type compiledFunc struct {
	typ       FuncType
	numParams int
	numLocals int // locals beyond the parameters
	code      []instr
	maxStack  int    // operand-stack high-water mark (capacity hint)
	idx       uint32 // index in the module's function space

	// clos is the closure-compiled body the production tier executes, built
	// by CompiledModule.buildClosures (nil until a closure-tier instance
	// exists). It executes bit-identically to code, which the reference
	// interpreter runs.
	clos *closFunc
}

// compFrame tracks one structured-control-flow nesting level during
// flattening.
type compFrame struct {
	opcode        byte
	heightAtEntry int // operand stack height at block entry, including params
	numParams     int
	numResults    int
	loopStartPC   int
	// endFixups are indices into fixupTargets awaiting the end pc.
	endFixups []fixupRef
	// elseFixup is the brIfFalse of an `if`, patched at else/end.
	elseFixup fixupRef
	hasElse   bool
}

// fixupRef addresses a branchTarget awaiting patching: instruction index and
// target slot.
type fixupRef struct {
	instrIx  int
	targetIx int
	valid    bool
}

type compiler struct {
	m        *Module
	r        *reader
	code     []instr
	stack    int
	maxStack int
	frames   []compFrame
}

// compileFunction flattens a validated body into a compiledFunc.
func compileFunction(m *Module, funcIdx uint32, ft FuncType, c *Code) (*compiledFunc, error) {
	cc := &compiler{m: m, r: &reader{b: c.Body}}
	cc.frames = append(cc.frames, compFrame{opcode: 0, numResults: len(ft.Results)})
	for len(cc.frames) > 0 {
		op, err := cc.r.byte()
		if err != nil {
			return nil, err
		}
		if err := cc.step(op); err != nil {
			return nil, fmt.Errorf("compile function %d at offset %d (%s): %w", funcIdx, cc.r.pos-1, OpcodeName(op), err)
		}
		if cc.stack > cc.maxStack {
			cc.maxStack = cc.stack
		}
	}
	return &compiledFunc{
		typ:       ft,
		numParams: len(ft.Params),
		numLocals: len(c.Locals),
		code:      cc.code,
		maxStack:  cc.maxStack,
		idx:       funcIdx,
	}, nil
}

func (c *compiler) emit(i instr) int {
	c.code = append(c.code, i)
	return len(c.code) - 1
}

// addFixup appends a placeholder branch target to instruction ix and returns
// a reference for later patching.
func (c *compiler) addFixup(ix int, unwind, keep int) fixupRef {
	c.code[ix].targets = append(c.code[ix].targets, branchTarget{unwind: uint32(unwind), keep: uint32(keep)})
	return fixupRef{instrIx: ix, targetIx: len(c.code[ix].targets) - 1, valid: true}
}

func (c *compiler) patch(f fixupRef, pc int) {
	if f.valid {
		c.code[f.instrIx].targets[f.targetIx].pc = uint32(pc)
	}
}

// branchTo computes the resolved-or-fixup target for a branch to `depth`.
func (c *compiler) branchTo(instrIx int, depth uint32) error {
	if int(depth) >= len(c.frames) {
		return fmt.Errorf("branch depth %d out of range", depth)
	}
	f := &c.frames[len(c.frames)-1-int(depth)]
	unwind := f.heightAtEntry - f.numParams
	if f.opcode == OpLoop {
		c.code[instrIx].targets = append(c.code[instrIx].targets, branchTarget{
			pc:     uint32(f.loopStartPC),
			unwind: uint32(unwind),
			keep:   uint32(f.numParams),
		})
		return nil
	}
	keep := f.numResults
	if len(c.frames)-1-int(depth) == 0 {
		// Branch to the function frame behaves like return.
		keep = f.numResults
	}
	f.endFixups = append(f.endFixups, c.addFixup(instrIx, unwind, keep))
	return nil
}

// blockSig reads a block type immediate and returns its arity.
func (c *compiler) blockSig() (params, results int, err error) {
	bt, err := (&bodyValidator{m: c.m, r: c.r}).blockType()
	if err != nil {
		return 0, 0, err
	}
	return len(bt.Params), len(bt.Results), nil
}

func (c *compiler) step(op byte) error {
	switch op {
	case OpNop:
		// no instruction emitted
	case OpUnreachable:
		c.emit(instr{op: uint16(OpUnreachable)})
		return c.skipDead()
	case OpBlock:
		p, r, err := c.blockSig()
		if err != nil {
			return err
		}
		c.frames = append(c.frames, compFrame{
			opcode: OpBlock, heightAtEntry: c.stack, numParams: p, numResults: r,
		})
	case OpLoop:
		p, r, err := c.blockSig()
		if err != nil {
			return err
		}
		c.frames = append(c.frames, compFrame{
			opcode: OpLoop, heightAtEntry: c.stack, numParams: p, numResults: r,
			loopStartPC: len(c.code),
		})
	case OpIf:
		p, r, err := c.blockSig()
		if err != nil {
			return err
		}
		c.stack-- // condition
		ix := c.emit(instr{op: opBrIfFalse})
		fr := compFrame{
			opcode: OpIf, heightAtEntry: c.stack, numParams: p, numResults: r,
		}
		fr.elseFixup = c.addFixup(ix, c.stack, 0)
		// Plain jump semantics: both paths start at the same height.
		c.code[ix].targets[0].unwind = uint32(c.stack)
		c.code[ix].targets[0].keep = 0
		c.frames = append(c.frames, fr)
	case OpElse:
		f := &c.frames[len(c.frames)-1]
		if f.opcode != OpIf {
			return fmt.Errorf("else without if")
		}
		// Jump over the else branch at the end of then.
		jix := c.emit(instr{op: opJump})
		f.endFixups = append(f.endFixups, c.addFixup(jix, f.heightAtEntry-f.numParams+f.numResults, 0))
		// Note: by end of then the stack is heightAtEntry-params+results;
		// the jump does not move values.
		c.code[jix].targets[len(c.code[jix].targets)-1].unwind = uint32(f.heightAtEntry - f.numParams + f.numResults)
		c.patch(f.elseFixup, len(c.code))
		f.elseFixup = fixupRef{}
		f.hasElse = true
		c.stack = f.heightAtEntry
	case OpEnd:
		f := c.frames[len(c.frames)-1]
		c.frames = c.frames[:len(c.frames)-1]
		endPC := len(c.code)
		for _, fx := range f.endFixups {
			c.patch(fx, endPC)
		}
		c.patch(f.elseFixup, endPC)
		c.stack = f.heightAtEntry - f.numParams + f.numResults
		if len(c.frames) == 0 {
			// Function end: return results from the stack top.
			c.emit(instr{op: opReturnOp, a: uint32(f.numResults)})
		}
	case OpBr:
		depth, err := c.r.u32()
		if err != nil {
			return err
		}
		ix := c.emit(instr{op: opJump})
		if err := c.branchTo(ix, depth); err != nil {
			return err
		}
		return c.skipDead()
	case OpBrIf:
		depth, err := c.r.u32()
		if err != nil {
			return err
		}
		c.stack-- // condition
		ix := c.emit(instr{op: uint16(OpBrIf)})
		if err := c.branchTo(ix, depth); err != nil {
			return err
		}
	case OpBrTable:
		n, err := c.r.vecLen()
		if err != nil {
			return err
		}
		c.stack-- // selector
		ix := c.emit(instr{op: uint16(OpBrTable)})
		for i := 0; i <= n; i++ {
			depth, err := c.r.u32()
			if err != nil {
				return err
			}
			if err := c.branchTo(ix, depth); err != nil {
				return err
			}
		}
		return c.skipDead()
	case OpReturn:
		c.emit(instr{op: opReturnOp, a: uint32(c.frames[0].numResults)})
		return c.skipDead()
	case OpCall:
		fx, err := c.r.u32()
		if err != nil {
			return err
		}
		ft, err := c.m.FuncTypeAt(fx)
		if err != nil {
			return err
		}
		c.stack += len(ft.Results) - len(ft.Params)
		c.emit(instr{op: uint16(OpCall), a: fx})
	case OpCallIndirect:
		tix, err := c.r.u32()
		if err != nil {
			return err
		}
		if _, err := c.r.u32(); err != nil { // table index (0)
			return err
		}
		ft := c.m.Types[tix]
		c.stack += len(ft.Results) - len(ft.Params) - 1
		c.emit(instr{op: uint16(OpCallIndirect), a: tix})
	case OpDrop:
		c.stack--
		c.emit(instr{op: uint16(OpDrop)})
	case OpSelect:
		c.stack -= 2
		c.emit(instr{op: uint16(OpSelect)})
	case OpLocalGet:
		ix, err := c.r.u32()
		if err != nil {
			return err
		}
		c.stack++
		c.emit(instr{op: uint16(OpLocalGet), a: ix})
	case OpLocalSet:
		ix, err := c.r.u32()
		if err != nil {
			return err
		}
		c.stack--
		c.emit(instr{op: uint16(OpLocalSet), a: ix})
	case OpLocalTee:
		ix, err := c.r.u32()
		if err != nil {
			return err
		}
		c.emit(instr{op: uint16(OpLocalTee), a: ix})
	case OpGlobalGet:
		ix, err := c.r.u32()
		if err != nil {
			return err
		}
		c.stack++
		c.emit(instr{op: uint16(OpGlobalGet), a: ix})
	case OpGlobalSet:
		ix, err := c.r.u32()
		if err != nil {
			return err
		}
		c.stack--
		c.emit(instr{op: uint16(OpGlobalSet), a: ix})

	case OpI32Load, OpI64Load, OpF32Load, OpF64Load,
		OpI32Load8S, OpI32Load8U, OpI32Load16S, OpI32Load16U,
		OpI64Load8S, OpI64Load8U, OpI64Load16S, OpI64Load16U,
		OpI64Load32S, OpI64Load32U:
		off, err := c.memOffset()
		if err != nil {
			return err
		}
		c.emit(instr{op: uint16(op), imm: off})
	case OpI32Store, OpI64Store, OpF32Store, OpF64Store,
		OpI32Store8, OpI32Store16, OpI64Store8, OpI64Store16, OpI64Store32:
		off, err := c.memOffset()
		if err != nil {
			return err
		}
		c.stack -= 2
		c.emit(instr{op: uint16(op), imm: off})
	case OpMemorySize:
		if _, err := c.r.byte(); err != nil {
			return err
		}
		c.stack++
		c.emit(instr{op: uint16(OpMemorySize)})
	case OpMemoryGrow:
		if _, err := c.r.byte(); err != nil {
			return err
		}
		c.emit(instr{op: uint16(OpMemoryGrow)})

	case OpI32Const:
		v, err := c.r.s32()
		if err != nil {
			return err
		}
		c.stack++
		c.emit(instr{op: uint16(OpI32Const), imm: uint64(uint32(v))})
	case OpI64Const:
		v, err := c.r.s64()
		if err != nil {
			return err
		}
		c.stack++
		c.emit(instr{op: uint16(OpI64Const), imm: uint64(v)})
	case OpF32Const:
		b, err := c.r.bytes(4)
		if err != nil {
			return err
		}
		c.stack++
		c.emit(instr{op: uint16(OpF32Const), imm: uint64(binary.LittleEndian.Uint32(b))})
	case OpF64Const:
		b, err := c.r.bytes(8)
		if err != nil {
			return err
		}
		c.stack++
		c.emit(instr{op: uint16(OpF64Const), imm: binary.LittleEndian.Uint64(b)})

	case OpPrefixMisc:
		sub, err := c.r.u32()
		if err != nil {
			return err
		}
		switch sub {
		case MiscMemoryCopy:
			if _, err := c.r.bytes(2); err != nil {
				return err
			}
			c.stack -= 3
		case MiscMemoryFill:
			if _, err := c.r.byte(); err != nil {
				return err
			}
			c.stack -= 3
		default:
			// Saturating truncations: unary, stack unchanged.
			if sub > MiscI64TruncSatF64U {
				return fmt.Errorf("unsupported misc opcode %d", sub)
			}
		}
		c.emit(instr{op: miscBase + uint16(sub)})

	default:
		// All remaining ops are plain numeric instructions: adjust the stack
		// by arity and emit as-is.
		delta, ok := numericStackDelta(op)
		if !ok {
			return fmt.Errorf("unsupported opcode")
		}
		c.stack += delta
		c.emit(instr{op: uint16(op)})
	}
	return nil
}

func (c *compiler) memOffset() (uint64, error) {
	if _, err := c.r.u32(); err != nil { // alignment hint, unused at runtime
		return 0, err
	}
	off, err := c.r.u32()
	if err != nil {
		return 0, err
	}
	return uint64(off), nil
}

// numericStackDelta returns the operand-stack delta for pure numeric ops:
// -1 for binary operations, 0 for unary/conversions.
func numericStackDelta(op byte) (int, bool) {
	switch {
	case op >= OpI32Eqz && op <= OpF64Ge:
		if op == OpI32Eqz || op == OpI64Eqz {
			return 0, true
		}
		return -1, true
	case op >= OpI32Clz && op <= OpF64Copysign:
		switch op {
		case OpI32Clz, OpI32Ctz, OpI32Popcnt,
			OpI64Clz, OpI64Ctz, OpI64Popcnt,
			OpF32Abs, OpF32Neg, OpF32Ceil, OpF32Floor, OpF32Trunc, OpF32Nearest, OpF32Sqrt,
			OpF64Abs, OpF64Neg, OpF64Ceil, OpF64Floor, OpF64Trunc, OpF64Nearest, OpF64Sqrt:
			return 0, true
		}
		return -1, true
	case op >= OpI32WrapI64 && op <= OpI64Extend32S:
		return 0, true
	}
	return 0, false
}

// skipDead consumes instructions that follow an unconditional transfer of
// control up to (not including the effects of) the matching end or else.
// Validation has already type-checked the dead code; it is never executed,
// so no instructions are emitted for it.
func (c *compiler) skipDead() error {
	depth := 0
	for {
		op, err := c.r.byte()
		if err != nil {
			return err
		}
		switch op {
		case OpBlock, OpLoop, OpIf:
			if _, _, err := c.blockSig(); err != nil {
				return err
			}
			depth++
		case OpElse:
			if depth == 0 {
				// Resurface: the else branch is live again.
				f := &c.frames[len(c.frames)-1]
				if f.opcode != OpIf {
					return fmt.Errorf("else without if in dead code")
				}
				c.patch(f.elseFixup, len(c.code))
				f.elseFixup = fixupRef{}
				f.hasElse = true
				c.stack = f.heightAtEntry
				return nil
			}
		case OpEnd:
			if depth == 0 {
				f := c.frames[len(c.frames)-1]
				c.frames = c.frames[:len(c.frames)-1]
				endPC := len(c.code)
				for _, fx := range f.endFixups {
					c.patch(fx, endPC)
				}
				c.patch(f.elseFixup, endPC)
				c.stack = f.heightAtEntry - f.numParams + f.numResults
				if len(c.frames) == 0 {
					c.emit(instr{op: opReturnOp, a: uint32(f.numResults)})
					return nil
				}
				return nil
			}
			depth--
		default:
			if err := skipImmediates(c.r, op); err != nil {
				return err
			}
		}
	}
}

// skipImmediates advances the reader past the immediates of op (which must
// not be a structured control instruction).
func skipImmediates(r *reader, op byte) error {
	switch op {
	case OpBr, OpBrIf, OpCall, OpLocalGet, OpLocalSet, OpLocalTee, OpGlobalGet, OpGlobalSet:
		_, err := r.u32()
		return err
	case OpBrTable:
		n, err := r.vecLen()
		if err != nil {
			return err
		}
		for i := 0; i <= n; i++ {
			if _, err := r.u32(); err != nil {
				return err
			}
		}
		return nil
	case OpCallIndirect:
		if _, err := r.u32(); err != nil {
			return err
		}
		_, err := r.u32()
		return err
	case OpMemorySize, OpMemoryGrow:
		_, err := r.byte()
		return err
	case OpI32Const:
		_, err := r.s32()
		return err
	case OpI64Const:
		_, err := r.s64()
		return err
	case OpF32Const:
		_, err := r.bytes(4)
		return err
	case OpF64Const:
		_, err := r.bytes(8)
		return err
	case OpPrefixMisc:
		sub, err := r.u32()
		if err != nil {
			return err
		}
		switch sub {
		case MiscMemoryCopy:
			_, err = r.bytes(2)
		case MiscMemoryFill:
			_, err = r.byte()
		}
		return err
	default:
		if op >= OpI32Load && op <= OpI64Store32 {
			if _, err := r.u32(); err != nil {
				return err
			}
			_, err := r.u32()
			return err
		}
		return nil
	}
}

// f32FromBits converts raw bits to float32 (helper for the interpreter).
func f32FromBits(v uint64) float32 { return math.Float32frombits(uint32(v)) }

// f64FromBits converts raw bits to float64.
func f64FromBits(v uint64) float64 { return math.Float64frombits(v) }
