package wasm

// Closure tier: each function body is lowered once per module, on the first
// closure-tier instantiation, to Go closures with their immediates, branch
// targets and successor pc captured as constants. Execution is a
// register-caching dispatch loop — pc and sp live in registers, the operand
// stack is indexed (no append traffic), and there is no per-instruction
// switch: the cost per op is one indirect call.
//
// The lowering is one linear pass that folds operands instead of
// dispatching them:
//
//   - A local.get or constant gets no op of its own. It stays pending, and
//     the next op that consumes it — a unary, binary or compare, a load or
//     store, a local.set/tee, a br_if/if condition, select's condition or
//     drop — reads the local or the constant directly.
//   - A result that goes straight into local.set/tee is written to the local
//     in place (a tee also pushes it), and a compare or eqz followed by
//     br_if/if branches without pushing its result.
//   - A pending operand is pushed, by an op at its own pc, whenever the op
//     that follows cannot fold it: at a branch target, before a call, br,
//     br_table, return or any other op that needs the concrete stack, and
//     when it sits beneath the operands the next op consumes (which covers a
//     local.set/tee of the same local before its consumer: the set consumes
//     something above it, so the get is pushed first).
//
// An op is placed at the pc of the first instruction it covers, so branch
// targets (never covered by an op that starts earlier) keep their pcs and
// the original stream needs no remapping. Templates differ only by operand
// shape — stack, local or constant sources; stack, local or branch
// destination — and take the numeric operation as a function value from the
// per-opcode tables in closure_ops.go.
//
// Fuel/InstrCount/trap accounting is bit-identical to the interpreter, but
// charged at straight-line segment granularity: the original stream is cut
// at every instruction that can trap, branch, call, return or change state
// the caller sees after a trap (global.set, memory.grow), and at every
// branch target; the dispatch loop pre-charges a segment's full length at
// the op that covers its head. Because nothing before a segment's final
// instruction can fault or leave the segment, the only early exit a
// pre-charge moves is fuel exhaustion itself — and Instance.chargeFuel
// makes that land on the exact instruction boundary (InstrCount advances
// only by the units actually paid), so exhaustion, InstrCount and every
// trap class remain indistinguishable from per-instruction charging. The
// one op that covers a head past its trapping instruction — a load whose
// result is folded into local.set/tee — pays that segment after the load
// succeeds and before it writes the local.

// closOp executes one lowered op and returns (next pc, next sp). A negative
// pc terminates the loop; results sit at stack[sp-n:sp].
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

// closFunc is the closure-compiled form of one function body, indexed by
// the pc of the original stream: steps[pc].op is nil where an op placed
// earlier covers pc.
type closFunc struct {
	steps      []closStep
	numLocals  int // params + locals
	numResults int
	stackCap   int
}

// closStep is one lowered op and the fuel the dispatch loop pre-charges
// before it runs: the length of every segment whose head the op covers,
// zero for ops inside a segment.
type closStep struct {
	op     closOp
	charge uint32
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

	steps := cf.steps
	sp := 0
	if in.fuelEnabled {
		for pc := 0; pc >= 0; {
			st := &steps[pc]
			if k := st.charge; k != 0 { // mid-segment ops were charged at their head
				if f := in.fuel; f >= int64(k) {
					in.fuel = f - int64(k)
					in.InstrCount += uint64(k)
				} else {
					in.chargeFuel(k) // slow path: unlimited (-1) or exhaustion
				}
			}
			pc, sp = st.op(e, sp)
		}
	} else {
		for pc := 0; pc >= 0; {
			pc, sp = steps[pc].op(e, sp)
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

// callClosure is dispatch specialized for a compile-time-resolved guest
// callee on the closure tier. Semantics are identical to dispatch: same
// depth guard, and the profiled path falls back to the shared shadow-stack
// wrapper. A trap unwinds past the depth decrement; Instance.call restores
// the depth it entered with.
func (in *Instance) callClosure(fx uint32, f *compiledFunc, args []uint64) []uint64 {
	if in.prof != nil {
		return in.invokeProfiled(fx, args)
	}
	if in.depth >= in.maxDepth {
		panic(newTrap(TrapCallStackExhausted))
	}
	in.depth++
	res := in.execClosures(f.clos, args)
	in.depth--
	return res
}

// takeBranchOp is the taken-branch body shared by all branching templates:
// it applies the target's stack adjustment to the indexed operand stack and
// returns the target pc.
func takeBranchOp(e *closEnv, sp int, t branchTarget) (int, int) {
	if t.keep > 0 {
		copy(e.stack[t.unwind:], e.stack[sp-int(t.keep):sp])
	}
	return int(t.pc), int(t.unwind + t.keep)
}

// put writes a folded local.set/tee result: the local, and for a tee also
// the stack at sp. It returns the new sp.
func (e *closEnv) put(ix int, v uint64, sp int, tee bool) int {
	e.locals[ix] = v
	if tee {
		e.stack[sp] = v
		sp++
	}
	return sp
}

// Operand sources.
const (
	fromStack uint8 = iota
	fromLocal
	fromConst
)

// operand is where a lowered op reads one input: the stack, or a pending
// local.get (v is the local index) or constant (v is its value) at pc.
type operand struct {
	src uint8
	v   uint64
	pc  int
}

// Operand shapes of two-input templates: first<<2 | second. Only the top
// operand may be a constant, and only a held one may sit beneath a stack
// value (see lowerer.operands).
const (
	ss = fromStack<<2 | fromStack
	sl = fromStack<<2 | fromLocal
	sc = fromStack<<2 | fromConst
	ll = fromLocal<<2 | fromLocal
	lc = fromLocal<<2 | fromConst
	ls = fromLocal<<2 | fromStack // a held first operand
)

// Result destinations.
const (
	toStack  uint8 = iota
	toLocal        // a folded local.set, or local.tee (tee set)
	toBranch       // a folded br_if (nz set) or if (branch when zero)
)

type dest struct {
	kind uint8
	ix   int  // toLocal: the local
	tee  bool // toLocal: also push the result
	nz   bool // toBranch: branch when the result is non-zero
	t    branchTarget
	post uint32 // toLocal after a load: fuel paid once the load succeeded
}

// lowerer holds the lowering pass's state and scratch; buildClosures shares
// one across a module's functions.
type lowerer struct {
	cm     *CompiledModule
	code   []instr
	cf     *closFunc
	target []bool    // branch targets
	segK   []uint32  // length of the fuel segment headed at pc, 0 inside one
	pend   []operand // pending operands: a run of local.get/const right before pc
	// held is a pending local.get left beneath values pushed since (above
	// of them), for the op that consumes it to read in place; src is
	// fromStack when there is none. The first op placed after it also
	// covers its pc.
	held  operand
	above int
}

// compileClosures lowers one function body in a single pass over its
// stream. It never fails: any instruction the compiler emitted has a
// lowering, and an unknown op becomes a trapping closure, the same
// internal-error trap the interpreter raises.
func (l *lowerer) compileClosures(cm *CompiledModule, f *compiledFunc) *closFunc {
	code := f.code
	n := len(code)
	l.cm, l.code = cm, code
	l.cf = &closFunc{
		steps:      make([]closStep, n),
		numLocals:  f.numParams + f.numLocals,
		numResults: len(f.typ.Results),
		stackCap:   f.maxStack + 2,
	}
	l.target = append(l.target[:0], make([]bool, n+1)...)
	l.segK = append(l.segK[:0], make([]uint32, n+1)...)
	l.pend, l.held = l.pend[:0], operand{}
	for pc := range code {
		for _, t := range code[pc].targets {
			l.target[t.pc] = true
		}
	}
	// A segment head is the entry, a branch target (control lands there
	// without passing the previous head) or the successor of an instruction
	// that cannot sit inside a segment.
	head := 0
	for pc := 1; pc <= n; pc++ {
		if pc == n || l.target[pc] || !closMidSegment(code[pc-1].op) {
			l.segK[head] = uint32(pc - head)
			head = pc
		}
	}

	for pc := 0; pc < n; pc++ {
		if l.target[pc] {
			l.barrier()
		}
		switch ins := &code[pc]; ins.op {
		case uint16(OpLocalGet):
			l.pend = append(l.pend, operand{src: fromLocal, v: uint64(ins.a), pc: pc})
		case uint16(OpI32Const), uint16(OpI64Const), uint16(OpF32Const), uint16(OpF64Const):
			l.pend = append(l.pend, operand{src: fromConst, v: ins.imm, pc: pc})
		default:
			pc = l.lower(pc)
		}
	}
	l.barrier()
	return l.cf
}

// closMidSegment reports whether an instruction may sit before the end of a
// fuel pre-charge segment: it must not trap, branch, call or return, nor
// change what a trapped caller can observe (globals, memory size), so the
// only way execution leaves a pre-charged segment early is fuel exhaustion
// at its head — the boundary chargeFuel accounts for exactly. Anything
// unrecognized conservatively ends its segment.
func closMidSegment(op uint16) bool {
	switch {
	case op >= uint16(OpI32DivS) && op <= uint16(OpI32RemU), op >= uint16(OpI64DivS) && op <= uint16(OpI64RemU):
		return false // division by zero
	case op >= uint16(OpI32TruncF32S) && op <= uint16(OpI64TruncF64U):
		return op == uint16(OpI64ExtendI32S) || op == uint16(OpI64ExtendI32U) // NaN/overflow
	case op >= uint16(OpI32Const) && op <= uint16(OpF64Const), op == uint16(OpI32Eqz), op == uint16(OpI64Eqz):
		return true
	}
	switch op {
	case uint16(OpDrop), uint16(OpSelect), uint16(OpLocalGet), uint16(OpLocalSet),
		uint16(OpLocalTee), uint16(OpGlobalGet), uint16(OpMemorySize):
		return true
	}
	return binOps[op] != nil || unOps[op] != nil
}

// place puts op at s and charges it every segment head from s to c, its
// trapping instruction. The first op placed above a held operand moves down
// onto the held pc, so control falling through finds an op there.
func (l *lowerer) place(s, c int, op closOp) {
	if h := l.held; h.src == fromLocal && s == h.pc+1 && l.cf.steps[h.pc].op == nil {
		s = h.pc
	}
	st := &l.cf.steps[s]
	st.op = op
	for pc := s; pc <= c; pc++ {
		st.charge += l.segK[pc]
	}
}

// flush pushes all but the top keep pending operands, each by an op at its
// own pc. With keep > 0 the bottom one, if a local.get, is held instead
// when nothing is.
func (l *lowerer) flush(keep int) {
	k := len(l.pend) - keep
	if k <= 0 {
		return
	}
	for i, o := range l.pend[:k] {
		if i == 0 && keep > 0 && o.src == fromLocal && l.held.src != fromLocal {
			l.held, l.above = o, 0
			continue
		}
		l.place(o.pc, o.pc, pushOp(o.pc+1, o))
		if l.held.src == fromLocal {
			l.above++
		}
	}
	l.pend = append(l.pend[:0], l.pend[k:]...)
}

// barrier materializes every operand: the next op needs the concrete stack.
func (l *lowerer) barrier() {
	l.unhold()
	l.flush(0)
}

// unhold pushes the held operand after all, by an op at its own pc; the op
// placed there moves up one pc and gives back the held pc's charge.
func (l *lowerer) unhold() {
	h := l.held
	if h.src != fromLocal {
		return
	}
	l.held = operand{}
	st := &l.cf.steps[h.pc]
	if st.op != nil {
		l.cf.steps[h.pc+1] = closStep{st.op, st.charge - l.segK[h.pc]}
	}
	*st = closStep{pushOp(h.pc+1, h), l.segK[h.pc]}
}

// operands takes the n virtual-stack operands of the op at pc and returns
// the top fold (n, or 1 for select's condition) of them, bottom first:
// pending ones fold, the others are the stack's (the zero operand). It
// returns the pc the op is placed at, its first covered instruction. A
// pending operand beneath the foldable ones is pushed (or held) first, and
// so is a constant anywhere but on top — or anywhere, without topConst —
// because templates read a constant only as their last input. A held
// operand the op consumes is read in place when it is the op's first input
// and all inputs fold, else pushed.
func (l *lowerer) operands(n, fold, pc int, topConst bool) (xs [2]operand, start int) {
	l.flush(fold)
	for len(l.pend) > 0 && l.pend[0].src == fromConst && (len(l.pend) > 1 || !topConst) {
		l.flush(len(l.pend) - 1)
	}
	k := len(l.pend)
	start = pc
	if k > 0 {
		start = l.pend[0].pc
	}
	if l.held.src == fromLocal && n-k > l.above {
		if fold < n || n-k > l.above+1 { // not its first input, or not all fold
			l.unhold()
		} else {
			xs[0], l.held = l.held, operand{}
			copy(xs[1+l.above:n], l.pend)
			l.pend = l.pend[:0]
			return xs, start
		}
	}
	l.above -= n - k
	copy(xs[fold-k:fold], l.pend)
	l.pend = l.pend[:0]
	return xs, start
}

// dest folds the instruction after pc into the op at pc when all it does is
// move that op's result: local.set/tee write it to the local, and — with
// branch — br_if/if branch on it. Nothing folds across a branch target, and
// a successor that heads a fuel segment (the op at pc can trap) folds only
// with post: the template then pays that segment after its own work
// succeeded.
func (l *lowerer) dest(pc int, branch, post bool) (dest, int) {
	nx := pc + 1
	if nx >= len(l.code) || l.target[nx] || (l.segK[nx] != 0 && !post) {
		return dest{}, pc
	}
	switch ins := &l.code[nx]; {
	case ins.op == uint16(OpLocalSet), ins.op == uint16(OpLocalTee):
		return dest{kind: toLocal, ix: int(ins.a), tee: ins.op == uint16(OpLocalTee), post: l.segK[nx]}, nx
	case branch && (ins.op == uint16(OpBrIf) || ins.op == opBrIfFalse):
		return dest{kind: toBranch, nz: ins.op == uint16(OpBrIf), t: ins.targets[0]}, nx
	}
	return dest{}, pc
}

// follow returns where control goes after the op whose last covered pc is
// end, and the last pc the op covers then: a br right after it that only
// moves control — it keeps no values, the stack already sits at the
// target's height, and it is neither a branch target nor a segment head —
// is folded in. A held operand needs no push here: the br keeps the stack
// height, so a held operand lies below the target block's entry and was
// held before it — the target is ahead (a loop head is a barrier), and its
// barrier pushes the operand at its own pc, before the br runs.
func (l *lowerer) follow(end int) (next, last int) {
	j := end + 1
	if j < len(l.code) && l.code[j].op == opJump && !l.target[j] && l.segK[j] == 0 {
		if t := l.code[j].targets[0]; t.keep == 0 && t.unwind == l.code[j].a {
			return int(t.pc), j
		}
	}
	return j, end
}

// pushes is how many values an op with destination d leaves on the stack.
func (d dest) pushes() int {
	if d.kind == toStack || d.tee {
		return 1
	}
	return 0
}

// lower places the op for the instruction at pc (not a local.get or
// constant), folding the pending operands it consumes and, through dest and
// follow, the instructions after it. It returns the last pc the op covers.
func (l *lowerer) lower(pc int) int {
	ins := &l.code[pc]
	op := ins.op
	var (
		xs  [2]operand
		s   int
		d   dest
		end = pc
		out int // values the op leaves on the concrete stack
		mk  func(next int) closOp
	)
	switch {
	case op == uint16(OpI32Eqz) || op == uint16(OpI64Eqz):
		xs, s = l.operands(1, 1, pc, false)
		xs[1] = operand{src: fromConst} // eqz x is eq x, 0
		d, end = l.dest(pc, true, false)
		out = d.pushes()
		fn := binOps[uint16(OpI32Eq)]
		if op == uint16(OpI64Eqz) {
			fn = binOps[uint16(OpI64Eq)]
		}
		mk = func(next int) closOp { return binOp(next, xs[0], xs[1], fn, d) }
	case binOps[op] != nil:
		xs, s = l.operands(2, 2, pc, true)
		d, end = l.dest(pc, true, false)
		out = d.pushes()
		mk = func(next int) closOp { return binOp(next, xs[0], xs[1], binOps[op], d) }
	case unOps[op] != nil:
		xs, s = l.operands(1, 1, pc, false)
		d, end = l.dest(pc, false, false)
		out = d.pushes()
		mk = func(next int) closOp { return unOp(next, xs[0], unOps[op], d) }
	case loadOps[op] != nil:
		xs, s = l.operands(1, 1, pc, true)
		d, end = l.dest(pc, false, true)
		out = d.pushes()
		mk = func(next int) closOp { return loadOp(next, xs[0], ins.imm, loadOps[op], d) }
	case storeOps[op] != nil:
		xs, s = l.operands(2, 2, pc, true)
		mk = func(next int) closOp { return storeOp(next, xs[0], xs[1], ins.imm, storeOps[op]) }
	case op == uint16(OpLocalSet) || op == uint16(OpLocalTee):
		xs, s = l.operands(1, 1, pc, true)
		d = dest{kind: toLocal, ix: int(ins.a), tee: op == uint16(OpLocalTee)}
		out = d.pushes()
		mk = func(next int) closOp { return setOp(next, xs[0], d.ix, d.tee) }
	case op == uint16(OpBrIf) || op == opBrIfFalse:
		xs, s = l.operands(1, 1, pc, false)
		d = dest{kind: toBranch}
		mk = func(next int) closOp { return brOp(next, xs[0], op == uint16(OpBrIf), ins.targets[0]) }
	case op == uint16(OpSelect):
		xs, s = l.operands(3, 1, pc, false) // the condition folds; both values are on the stack
		out = 1
		mk = func(next int) closOp { return selectOp(next, xs[0]) }
	case op == uint16(OpDrop):
		xs, s = l.operands(1, 1, pc, true)
		mk = func(next int) closOp { return dropOp(next, xs[0]) }
	default:
		l.barrier()
		s = pc
		mk = func(next int) closOp { return l.stackOp(ins, next) }
	}
	if h := l.held; h.src == fromLocal && (d.kind == toBranch || d.kind == toLocal && uint64(d.ix) == h.v) {
		l.unhold() // the op branches, or overwrites the held local
	}
	next, end := l.follow(end)
	l.place(s, pc, mk(next))
	l.above += out
	return end
}

func pushOp(next int, o operand) closOp {
	if o.src == fromLocal {
		ix := int(o.v)
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp] = e.locals[ix]
			return next, sp + 1
		}
	}
	c := o.v
	return func(e *closEnv, sp int) (int, int) {
		e.stack[sp] = c
		return next, sp + 1
	}
}

func binOp(next int, x, y operand, fn binFn, d dest) closOp {
	a, b, c := int(x.v), int(y.v), y.v
	switch shape := x.src<<2 | y.src; d.kind {
	case toLocal:
		ix, tee := d.ix, d.tee
		switch shape {
		case ss:
			return func(e *closEnv, sp int) (int, int) {
				return next, e.put(ix, fn(e.stack[sp-2], e.stack[sp-1]), sp-2, tee)
			}
		case sl:
			return func(e *closEnv, sp int) (int, int) {
				return next, e.put(ix, fn(e.stack[sp-1], e.locals[b]), sp-1, tee)
			}
		case sc:
			return func(e *closEnv, sp int) (int, int) { return next, e.put(ix, fn(e.stack[sp-1], c), sp-1, tee) }
		case ll:
			return func(e *closEnv, sp int) (int, int) { return next, e.put(ix, fn(e.locals[a], e.locals[b]), sp, tee) }
		case ls:
			return func(e *closEnv, sp int) (int, int) {
				return next, e.put(ix, fn(e.locals[a], e.stack[sp-1]), sp-1, tee)
			}
		default:
			return func(e *closEnv, sp int) (int, int) { return next, e.put(ix, fn(e.locals[a], c), sp, tee) }
		}
	case toBranch:
		t, nz := d.t, d.nz
		switch shape {
		case ss:
			return func(e *closEnv, sp int) (int, int) {
				if (fn(e.stack[sp-2], e.stack[sp-1]) != 0) == nz {
					return takeBranchOp(e, sp-2, t)
				}
				return next, sp - 2
			}
		case sl:
			return func(e *closEnv, sp int) (int, int) {
				if (fn(e.stack[sp-1], e.locals[b]) != 0) == nz {
					return takeBranchOp(e, sp-1, t)
				}
				return next, sp - 1
			}
		case sc:
			return func(e *closEnv, sp int) (int, int) {
				if (fn(e.stack[sp-1], c) != 0) == nz {
					return takeBranchOp(e, sp-1, t)
				}
				return next, sp - 1
			}
		case ll:
			return func(e *closEnv, sp int) (int, int) {
				if (fn(e.locals[a], e.locals[b]) != 0) == nz {
					return takeBranchOp(e, sp, t)
				}
				return next, sp
			}
		case ls:
			return func(e *closEnv, sp int) (int, int) {
				if (fn(e.locals[a], e.stack[sp-1]) != 0) == nz {
					return takeBranchOp(e, sp-1, t)
				}
				return next, sp - 1
			}
		default:
			return func(e *closEnv, sp int) (int, int) {
				if (fn(e.locals[a], c) != 0) == nz {
					return takeBranchOp(e, sp, t)
				}
				return next, sp
			}
		}
	}
	switch shape := x.src<<2 | y.src; shape {
	case ss:
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp-2] = fn(e.stack[sp-2], e.stack[sp-1])
			return next, sp - 1
		}
	case sl:
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp-1] = fn(e.stack[sp-1], e.locals[b])
			return next, sp
		}
	case sc:
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp-1] = fn(e.stack[sp-1], c)
			return next, sp
		}
	case ll:
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp] = fn(e.locals[a], e.locals[b])
			return next, sp + 1
		}
	case ls:
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp-1] = fn(e.locals[a], e.stack[sp-1])
			return next, sp
		}
	default:
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp] = fn(e.locals[a], c)
			return next, sp + 1
		}
	}
}

func unOp(next int, x operand, fn unFn, d dest) closOp {
	a, ix, tee := int(x.v), d.ix, d.tee
	switch {
	case x.src == fromStack && d.kind == toLocal:
		return func(e *closEnv, sp int) (int, int) { return next, e.put(ix, fn(e.stack[sp-1]), sp-1, tee) }
	case d.kind == toLocal:
		return func(e *closEnv, sp int) (int, int) { return next, e.put(ix, fn(e.locals[a]), sp, tee) }
	case x.src == fromStack:
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp-1] = fn(e.stack[sp-1])
			return next, sp
		}
	}
	return func(e *closEnv, sp int) (int, int) {
		e.stack[sp] = fn(e.locals[a])
		return next, sp + 1
	}
}

func loadOp(next int, x operand, off uint64, ld loadFn, d dest) closOp {
	a, addr, ix, tee, post := int(x.v), uint64(uint32(x.v))+off, d.ix, d.tee, d.post
	if d.kind == toLocal {
		switch x.src {
		case fromStack:
			return func(e *closEnv, sp int) (int, int) {
				v := ld(e.mem, uint64(uint32(e.stack[sp-1]))+off)
				e.in.chargeFuel(post)
				return next, e.put(ix, v, sp-1, tee)
			}
		case fromLocal:
			return func(e *closEnv, sp int) (int, int) {
				v := ld(e.mem, uint64(uint32(e.locals[a]))+off)
				e.in.chargeFuel(post)
				return next, e.put(ix, v, sp, tee)
			}
		}
		return func(e *closEnv, sp int) (int, int) {
			v := ld(e.mem, addr)
			e.in.chargeFuel(post)
			return next, e.put(ix, v, sp, tee)
		}
	}
	switch x.src {
	case fromStack:
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp-1] = ld(e.mem, uint64(uint32(e.stack[sp-1]))+off)
			return next, sp
		}
	case fromLocal:
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp] = ld(e.mem, uint64(uint32(e.locals[a]))+off)
			return next, sp + 1
		}
	}
	return func(e *closEnv, sp int) (int, int) {
		e.stack[sp] = ld(e.mem, addr)
		return next, sp + 1
	}
}

// storeOp: x is the address, y the value.
func storeOp(next int, x, y operand, off uint64, st storeFn) closOp {
	a, b, c := int(x.v), int(y.v), y.v
	switch x.src<<2 | y.src {
	case ss:
		return func(e *closEnv, sp int) (int, int) {
			st(e.mem, uint64(uint32(e.stack[sp-2]))+off, e.stack[sp-1])
			return next, sp - 2
		}
	case sl:
		return func(e *closEnv, sp int) (int, int) {
			st(e.mem, uint64(uint32(e.stack[sp-1]))+off, e.locals[b])
			return next, sp - 1
		}
	case sc:
		return func(e *closEnv, sp int) (int, int) {
			st(e.mem, uint64(uint32(e.stack[sp-1]))+off, c)
			return next, sp - 1
		}
	case ll:
		return func(e *closEnv, sp int) (int, int) {
			st(e.mem, uint64(uint32(e.locals[a]))+off, e.locals[b])
			return next, sp
		}
	case ls:
		return func(e *closEnv, sp int) (int, int) {
			st(e.mem, uint64(uint32(e.locals[a]))+off, e.stack[sp-1])
			return next, sp - 1
		}
	}
	return func(e *closEnv, sp int) (int, int) {
		st(e.mem, uint64(uint32(e.locals[a]))+off, c)
		return next, sp
	}
}

func setOp(next int, x operand, ix int, tee bool) closOp {
	a, c := int(x.v), x.v
	switch x.src {
	case fromStack:
		return func(e *closEnv, sp int) (int, int) { return next, e.put(ix, e.stack[sp-1], sp-1, tee) }
	case fromLocal:
		return func(e *closEnv, sp int) (int, int) { return next, e.put(ix, e.locals[a], sp, tee) }
	}
	return func(e *closEnv, sp int) (int, int) { return next, e.put(ix, c, sp, tee) }
}

// brOp is a br_if (nz) or a compiled if's branch past its then-arm on a
// condition that no compare produced.
func brOp(next int, x operand, nz bool, t branchTarget) closOp {
	if x.src == fromLocal {
		a := int(x.v)
		return func(e *closEnv, sp int) (int, int) {
			if (uint32(e.locals[a]) != 0) == nz {
				return takeBranchOp(e, sp, t)
			}
			return next, sp
		}
	}
	return func(e *closEnv, sp int) (int, int) {
		if (uint32(e.stack[sp-1]) != 0) == nz {
			return takeBranchOp(e, sp-1, t)
		}
		return next, sp - 1
	}
}

// selectOp keeps the lower of the two stacked values unless the condition
// is zero.
func selectOp(next int, x operand) closOp {
	if x.src == fromLocal {
		a := int(x.v)
		return func(e *closEnv, sp int) (int, int) {
			if uint32(e.locals[a]) == 0 {
				e.stack[sp-2] = e.stack[sp-1]
			}
			return next, sp - 1
		}
	}
	return func(e *closEnv, sp int) (int, int) {
		if uint32(e.stack[sp-1]) == 0 {
			e.stack[sp-3] = e.stack[sp-2]
		}
		return next, sp - 2
	}
}

// dropOp discards the stack top; a dropped pending operand was never
// pushed, so its op only passes control (and charges) through.
func dropOp(next int, x operand) closOp {
	if x.src != fromStack {
		return func(e *closEnv, sp int) (int, int) { return next, sp }
	}
	return func(e *closEnv, sp int) (int, int) { return next, sp - 1 }
}

// stackOp lowers the instructions that work on the concrete stack: control
// transfer, calls, globals and the memory-wide operations.
func (l *lowerer) stackOp(ins *instr, next int) closOp {
	cm := l.cm
	switch op := ins.op; op {
	case uint16(OpUnreachable):
		return func(e *closEnv, sp int) (int, int) { panic(newTrap(TrapUnreachable)) }
	case opJump:
		t := ins.targets[0]
		return func(e *closEnv, sp int) (int, int) { return takeBranchOp(e, sp, t) }
	case uint16(OpBrTable):
		ts := ins.targets
		return func(e *closEnv, sp int) (int, int) {
			sel := int(uint32(e.stack[sp-1]))
			if sel >= len(ts)-1 {
				sel = len(ts) - 1
			}
			return takeBranchOp(e, sp-1, ts[sel])
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
				return next, sp - np + copy(e.stack[sp-np:], res)
			}
		}
		return func(e *closEnv, sp int) (int, int) {
			res := e.in.invoke(fx, e.stack[sp-np:sp])
			return next, sp - np + copy(e.stack[sp-np:], res)
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
			return next, sp - np + copy(e.stack[sp-np:], res)
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
	case uint16(OpMemorySize):
		return func(e *closEnv, sp int) (int, int) {
			e.stack[sp] = uint64(e.mem.Size())
			return next, sp + 1
		}
	case uint16(OpMemoryGrow):
		return func(e *closEnv, sp int) (int, int) {
			prev, ok := e.mem.Grow(uint32(e.stack[sp-1]))
			if !ok {
				prev = 0xFFFFFFFF
			}
			e.stack[sp-1] = uint64(prev)
			return next, sp
		}
	case miscBase + uint16(MiscMemoryCopy):
		return func(e *closEnv, sp int) (int, int) {
			n := uint64(uint32(e.stack[sp-1]))
			s := e.mem.mustRange(uint64(uint32(e.stack[sp-2])), n)
			d := e.mem.mustRange(uint64(uint32(e.stack[sp-3])), n)
			copy(d, s)
			return next, sp - 3
		}
	case miscBase + uint16(MiscMemoryFill):
		return func(e *closEnv, sp int) (int, int) {
			n := uint64(uint32(e.stack[sp-1]))
			val := byte(e.stack[sp-2])
			d := e.mem.mustRange(uint64(uint32(e.stack[sp-3])), n)
			for i := range d {
				d[i] = val
			}
			return next, sp - 3
		}
	default:
		return func(e *closEnv, sp int) (int, int) {
			panic(&Trap{Code: TrapHostError, Wrapped: errUnknownInstr(op)})
		}
	}
}
