package wasm

// Superinstruction fusion: a peephole pass over the flattened code that
// collapses hot multi-instruction sequences into single fused opcodes, so the
// closure tier lowers one closure (often with zero operand-stack traffic)
// where the unfused stream would need two to four. The fused stream is an
// intermediate: compileClosures consumes it and it is dropped; the original
// stream stays untouched for the reference interpreter.
//
// Correctness rules the pass must respect:
//
//   - A fused window may not contain a branch-target pc anywhere but its
//     first instruction ("leaders" stay instruction starts), and all branch
//     targets are remapped into the fused stream afterwards.
//   - Fuel/InstrCount accounting must be bit-identical to executing the
//     window's instructions one by one. Windows whose only trapping
//     operation is last can pre-charge their full width; windows with an
//     earlier trapping operation (fLoadEqzBr's load) split the charge
//     around it. fusedPreCharge encodes that per opcode.
//   - Branch-carrying fused ops get remapped copies of their targets, so the
//     interpreter stream's targets are never written.

// Fused opcodes live above the 0x100/0x200 internal ranges. Field use is
// per-op (a/b hold local indices or selector opcodes, imm holds constants,
// memory offsets or the embedded numeric opcode).
const (
	fGetGet          uint16 = 0x300 + iota // local.get a; local.get b
	fGetConst                              // local.get a; const imm (any const type)
	fGetLoad32                             // local.get a; i32.load imm
	fGetStore32                            // local.get a (value); i32.store imm (addr below)
	fGetBin32                              // local.get a; i32 binop imm (lhs below)
	fGetGetBin32                           // local.get a; local.get b; i32 binop imm
	fGetGetCmp32                           // local.get a; local.get b; i32 compare imm
	fGetConstBin32                         // local.get a; i32.const imm; i32 binop b
	fGetConstCmp32                         // local.get a; i32.const imm; i32 compare b
	fGetGetStore32                         // local.get a (addr); local.get b (value); i32.store imm
	fConstAddStore32                       // i32.const a; i32.add; i32.store imm (addr below)
	fGetGetCmpBr                           // local.get a; local.get b; i32 compare imm; br_if
	fGetConstCmpBr                         // local.get a; i32.const imm; i32 compare b; br_if
	fGetConstAddSet                        // local.get a; i32.const imm; i32.add; local.set b
	fLoadEqzBr                             // i32.load imm; i32.eqz; br_if
	fEqzBr                                 // i32.eqz; br_if
	fCmpBr                                 // i32 compare imm; br_if
)

// fusedPreCharge is the fuel an op charges before its body runs: the number
// of original instructions it stands for (1 for everything that is not a
// fused op), which stays bit-identical to sequential execution because the
// only trapping operation of every window is last — except fLoadEqzBr, whose
// load traps first, so it pre-charges 1 and its body charges the eqz+br_if
// after the load.
func fusedPreCharge(op uint16) uint32 {
	switch op {
	case fGetGet, fGetConst, fGetLoad32, fGetStore32, fGetBin32, fEqzBr, fCmpBr:
		return 2
	case fGetGetBin32, fGetGetCmp32, fGetConstBin32, fGetConstCmp32,
		fGetGetStore32, fConstAddStore32:
		return 3
	case fGetGetCmpBr, fGetConstCmpBr, fGetConstAddSet:
		return 4
	}
	return 1
}

// isI32Bin reports whether op is a two-operand i32 numeric instruction
// (including the trapping div/rem family — they trap last in every fused
// window, so pre-charging stays exact).
func isI32Bin(op uint16) bool {
	return op >= uint16(OpI32Add) && op <= uint16(OpI32Rotr)
}

// isI32Cmp reports whether op is a two-operand i32 comparison.
func isI32Cmp(op uint16) bool {
	return op >= uint16(OpI32Eq) && op <= uint16(OpI32GeU)
}

// fuser holds the fusion pass's buffers so one module's functions share
// them: nothing it returns outlives the next fuse call.
type fuser struct {
	leader  []bool
	newPC   []uint32
	fused   []instr
	targets []branchTarget
}

// fuse builds the superinstruction stream for one function body. The input
// stream is never modified; branch targets in the output are copies remapped
// to fused pcs. The result aliases the fuser's buffers and is valid until
// the next call.
func (fs *fuser) fuse(code []instr) []instr {
	// Leaders: every branch-target pc must remain the start of an
	// instruction in the fused stream.
	fs.leader = append(fs.leader[:0], make([]bool, len(code)+1)...)
	nTargets := 0
	for i := range code {
		for _, t := range code[i].targets {
			fs.leader[t.pc] = true
		}
		nTargets += len(code[i].targets)
	}

	fs.fused = fs.fused[:0]
	fs.newPC = append(fs.newPC[:0], make([]uint32, len(code)+1)...)
	for pc := 0; pc < len(code); {
		fs.newPC[pc] = uint32(len(fs.fused))
		w, ins := fuseAt(code, pc, fs.leader)
		fs.fused = append(fs.fused, ins)
		pc += w
	}
	fs.newPC[len(code)] = uint32(len(fs.fused))

	if cap(fs.targets) < nTargets {
		fs.targets = make([]branchTarget, 0, nTargets)
	}
	ts := fs.targets[:0]
	for i := range fs.fused {
		n := len(fs.fused[i].targets)
		if n == 0 {
			continue
		}
		ts = append(ts, fs.fused[i].targets...)
		remapped := ts[len(ts)-n:]
		for j := range remapped {
			remapped[j].pc = fs.newPC[remapped[j].pc]
		}
		fs.fused[i].targets = remapped
	}
	return fs.fused
}

// fuseAt matches the longest fusable pattern starting at pc and returns its
// width plus the (single) instruction standing in for it. Width 1 returns
// the original instruction unchanged.
func fuseAt(code []instr, pc int, leader []bool) (int, instr) {
	win := func(w int) bool {
		if pc+w > len(code) {
			return false
		}
		for j := pc + 1; j < pc+w; j++ {
			if leader[j] {
				return false
			}
		}
		return true
	}
	i0 := code[pc]

	if win(4) && i0.op == uint16(OpLocalGet) {
		i1, i2, i3 := &code[pc+1], &code[pc+2], &code[pc+3]
		switch {
		case i1.op == uint16(OpLocalGet) && isI32Cmp(i2.op) && i3.op == uint16(OpBrIf):
			return 4, instr{op: fGetGetCmpBr, a: i0.a, b: i1.a, imm: uint64(i2.op), targets: i3.targets}
		case i1.op == uint16(OpI32Const) && isI32Cmp(i2.op) && i3.op == uint16(OpBrIf):
			return 4, instr{op: fGetConstCmpBr, a: i0.a, b: uint32(i2.op), imm: i1.imm, targets: i3.targets}
		case i1.op == uint16(OpI32Const) && i2.op == uint16(OpI32Add) && i3.op == uint16(OpLocalSet):
			return 4, instr{op: fGetConstAddSet, a: i0.a, b: i3.a, imm: i1.imm}
		}
	}

	if win(3) {
		i1, i2 := &code[pc+1], &code[pc+2]
		switch {
		case i0.op == uint16(OpLocalGet) && i1.op == uint16(OpLocalGet):
			if isI32Bin(i2.op) {
				return 3, instr{op: fGetGetBin32, a: i0.a, b: i1.a, imm: uint64(i2.op)}
			}
			if isI32Cmp(i2.op) {
				return 3, instr{op: fGetGetCmp32, a: i0.a, b: i1.a, imm: uint64(i2.op)}
			}
			if i2.op == uint16(OpI32Store) {
				return 3, instr{op: fGetGetStore32, a: i0.a, b: i1.a, imm: i2.imm}
			}
		case i0.op == uint16(OpLocalGet) && i1.op == uint16(OpI32Const):
			if isI32Bin(i2.op) {
				return 3, instr{op: fGetConstBin32, a: i0.a, b: uint32(i2.op), imm: i1.imm}
			}
			if isI32Cmp(i2.op) {
				return 3, instr{op: fGetConstCmp32, a: i0.a, b: uint32(i2.op), imm: i1.imm}
			}
		case i0.op == uint16(OpI32Const) && i1.op == uint16(OpI32Add) && i2.op == uint16(OpI32Store):
			return 3, instr{op: fConstAddStore32, a: uint32(i0.imm), imm: i2.imm}
		case i0.op == uint16(OpI32Load) && i1.op == uint16(OpI32Eqz) && i2.op == uint16(OpBrIf):
			return 3, instr{op: fLoadEqzBr, imm: i0.imm, targets: i2.targets}
		}
	}

	if win(2) {
		i1 := &code[pc+1]
		switch {
		case i0.op == uint16(OpLocalGet):
			switch {
			case i1.op == uint16(OpLocalGet):
				return 2, instr{op: fGetGet, a: i0.a, b: i1.a}
			case i1.op == uint16(OpI32Const) || i1.op == uint16(OpI64Const) ||
				i1.op == uint16(OpF32Const) || i1.op == uint16(OpF64Const):
				return 2, instr{op: fGetConst, a: i0.a, imm: i1.imm}
			case i1.op == uint16(OpI32Load):
				return 2, instr{op: fGetLoad32, a: i0.a, imm: i1.imm}
			case i1.op == uint16(OpI32Store):
				return 2, instr{op: fGetStore32, a: i0.a, imm: i1.imm}
			case isI32Bin(i1.op):
				return 2, instr{op: fGetBin32, a: i0.a, imm: uint64(i1.op)}
			}
		case i0.op == uint16(OpI32Eqz) && i1.op == uint16(OpBrIf):
			return 2, instr{op: fEqzBr, targets: i1.targets}
		case isI32Cmp(i0.op) && i1.op == uint16(OpBrIf):
			return 2, instr{op: fCmpBr, imm: uint64(i0.op), targets: i1.targets}
		}
	}

	return 1, i0
}
