package wasm

import (
	"math"
	"math/bits"
)

// The per-opcode value functions of the closure tier. The lowering
// (closure.go) picks a template by where an op's operands come from and
// where its result goes, and captures the opcode's function from one of
// these tables, so the same handful of templates serves all four number
// types. Every function computes exactly what the interpreter's case for
// the opcode does, bit for bit: i32 and f32 results keep the upper 32 bits
// of the stack cell zero, comparisons give 0 or 1.

type (
	binFn   func(x, y uint64) uint64
	unFn    func(v uint64) uint64
	loadFn  func(m *Memory, addr uint64) uint64
	storeFn func(m *Memory, addr, v uint64)
)

// binOps holds every two-operand numeric instruction: the arithmetic and
// the comparisons of all four number types. eqz is lowered as eq against a
// folded 0, and a br_if or if on a local as ne against 0.
var binOps = map[uint16]binFn{
	uint16(OpI32Eq):  func(x, y uint64) uint64 { return b2i(uint32(x) == uint32(y)) },
	uint16(OpI32Ne):  func(x, y uint64) uint64 { return b2i(uint32(x) != uint32(y)) },
	uint16(OpI32LtS): func(x, y uint64) uint64 { return b2i(int32(x) < int32(y)) },
	uint16(OpI32LtU): func(x, y uint64) uint64 { return b2i(uint32(x) < uint32(y)) },
	uint16(OpI32GtS): func(x, y uint64) uint64 { return b2i(int32(x) > int32(y)) },
	uint16(OpI32GtU): func(x, y uint64) uint64 { return b2i(uint32(x) > uint32(y)) },
	uint16(OpI32LeS): func(x, y uint64) uint64 { return b2i(int32(x) <= int32(y)) },
	uint16(OpI32LeU): func(x, y uint64) uint64 { return b2i(uint32(x) <= uint32(y)) },
	uint16(OpI32GeS): func(x, y uint64) uint64 { return b2i(int32(x) >= int32(y)) },
	uint16(OpI32GeU): func(x, y uint64) uint64 { return b2i(uint32(x) >= uint32(y)) },
	uint16(OpI64Eq):  func(x, y uint64) uint64 { return b2i(x == y) },
	uint16(OpI64Ne):  func(x, y uint64) uint64 { return b2i(x != y) },
	uint16(OpI64LtS): func(x, y uint64) uint64 { return b2i(int64(x) < int64(y)) },
	uint16(OpI64LtU): func(x, y uint64) uint64 { return b2i(x < y) },
	uint16(OpI64GtS): func(x, y uint64) uint64 { return b2i(int64(x) > int64(y)) },
	uint16(OpI64GtU): func(x, y uint64) uint64 { return b2i(x > y) },
	uint16(OpI64LeS): func(x, y uint64) uint64 { return b2i(int64(x) <= int64(y)) },
	uint16(OpI64LeU): func(x, y uint64) uint64 { return b2i(x <= y) },
	uint16(OpI64GeS): func(x, y uint64) uint64 { return b2i(int64(x) >= int64(y)) },
	uint16(OpI64GeU): func(x, y uint64) uint64 { return b2i(x >= y) },
	uint16(OpF32Eq):  func(x, y uint64) uint64 { return b2i(f32FromBits(x) == f32FromBits(y)) },
	uint16(OpF32Ne):  func(x, y uint64) uint64 { return b2i(f32FromBits(x) != f32FromBits(y)) },
	uint16(OpF32Lt):  func(x, y uint64) uint64 { return b2i(f32FromBits(x) < f32FromBits(y)) },
	uint16(OpF32Gt):  func(x, y uint64) uint64 { return b2i(f32FromBits(x) > f32FromBits(y)) },
	uint16(OpF32Le):  func(x, y uint64) uint64 { return b2i(f32FromBits(x) <= f32FromBits(y)) },
	uint16(OpF32Ge):  func(x, y uint64) uint64 { return b2i(f32FromBits(x) >= f32FromBits(y)) },
	uint16(OpF64Eq):  func(x, y uint64) uint64 { return b2i(f64FromBits(x) == f64FromBits(y)) },
	uint16(OpF64Ne):  func(x, y uint64) uint64 { return b2i(f64FromBits(x) != f64FromBits(y)) },
	uint16(OpF64Lt):  func(x, y uint64) uint64 { return b2i(f64FromBits(x) < f64FromBits(y)) },
	uint16(OpF64Gt):  func(x, y uint64) uint64 { return b2i(f64FromBits(x) > f64FromBits(y)) },
	uint16(OpF64Le):  func(x, y uint64) uint64 { return b2i(f64FromBits(x) <= f64FromBits(y)) },
	uint16(OpF64Ge):  func(x, y uint64) uint64 { return b2i(f64FromBits(x) >= f64FromBits(y)) },

	uint16(OpI32Add): func(x, y uint64) uint64 { return uint64(uint32(x) + uint32(y)) },
	uint16(OpI32Sub): func(x, y uint64) uint64 { return uint64(uint32(x) - uint32(y)) },
	uint16(OpI32Mul): func(x, y uint64) uint64 { return uint64(uint32(x) * uint32(y)) },
	uint16(OpI32DivS): func(x, y uint64) uint64 {
		a, b := int32(x), int32(y)
		if b == 0 {
			panic(newTrap(TrapIntegerDivideByZero))
		}
		if a == math.MinInt32 && b == -1 {
			panic(newTrap(TrapIntegerOverflow))
		}
		return uint64(uint32(a / b))
	},
	uint16(OpI32DivU): func(x, y uint64) uint64 {
		if uint32(y) == 0 {
			panic(newTrap(TrapIntegerDivideByZero))
		}
		return uint64(uint32(x) / uint32(y))
	},
	uint16(OpI32RemS): func(x, y uint64) uint64 {
		a, b := int32(x), int32(y)
		if b == 0 {
			panic(newTrap(TrapIntegerDivideByZero))
		}
		if a == math.MinInt32 && b == -1 {
			return 0
		}
		return uint64(uint32(a % b))
	},
	uint16(OpI32RemU): func(x, y uint64) uint64 {
		if uint32(y) == 0 {
			panic(newTrap(TrapIntegerDivideByZero))
		}
		return uint64(uint32(x) % uint32(y))
	},
	uint16(OpI32And):  func(x, y uint64) uint64 { return uint64(uint32(x) & uint32(y)) },
	uint16(OpI32Or):   func(x, y uint64) uint64 { return uint64(uint32(x) | uint32(y)) },
	uint16(OpI32Xor):  func(x, y uint64) uint64 { return uint64(uint32(x) ^ uint32(y)) },
	uint16(OpI32Shl):  func(x, y uint64) uint64 { return uint64(uint32(x) << (y & 31)) },
	uint16(OpI32ShrS): func(x, y uint64) uint64 { return uint64(uint32(int32(x) >> (y & 31))) },
	uint16(OpI32ShrU): func(x, y uint64) uint64 { return uint64(uint32(x) >> (y & 31)) },
	uint16(OpI32Rotl): func(x, y uint64) uint64 { return uint64(bits.RotateLeft32(uint32(x), int(y&31))) },
	uint16(OpI32Rotr): func(x, y uint64) uint64 { return uint64(bits.RotateLeft32(uint32(x), -int(y&31))) },

	uint16(OpI64Add): func(x, y uint64) uint64 { return x + y },
	uint16(OpI64Sub): func(x, y uint64) uint64 { return x - y },
	uint16(OpI64Mul): func(x, y uint64) uint64 { return x * y },
	uint16(OpI64DivS): func(x, y uint64) uint64 {
		if y == 0 {
			panic(newTrap(TrapIntegerDivideByZero))
		}
		if int64(x) == math.MinInt64 && int64(y) == -1 {
			panic(newTrap(TrapIntegerOverflow))
		}
		return uint64(int64(x) / int64(y))
	},
	uint16(OpI64DivU): func(x, y uint64) uint64 {
		if y == 0 {
			panic(newTrap(TrapIntegerDivideByZero))
		}
		return x / y
	},
	uint16(OpI64RemS): func(x, y uint64) uint64 {
		if y == 0 {
			panic(newTrap(TrapIntegerDivideByZero))
		}
		if int64(x) == math.MinInt64 && int64(y) == -1 {
			return 0
		}
		return uint64(int64(x) % int64(y))
	},
	uint16(OpI64RemU): func(x, y uint64) uint64 {
		if y == 0 {
			panic(newTrap(TrapIntegerDivideByZero))
		}
		return x % y
	},
	uint16(OpI64And):  func(x, y uint64) uint64 { return x & y },
	uint16(OpI64Or):   func(x, y uint64) uint64 { return x | y },
	uint16(OpI64Xor):  func(x, y uint64) uint64 { return x ^ y },
	uint16(OpI64Shl):  func(x, y uint64) uint64 { return x << (y & 63) },
	uint16(OpI64ShrS): func(x, y uint64) uint64 { return uint64(int64(x) >> (y & 63)) },
	uint16(OpI64ShrU): func(x, y uint64) uint64 { return x >> (y & 63) },
	uint16(OpI64Rotl): func(x, y uint64) uint64 { return bits.RotateLeft64(x, int(y&63)) },
	uint16(OpI64Rotr): func(x, y uint64) uint64 { return bits.RotateLeft64(x, -int(y&63)) },

	uint16(OpF32Add): func(x, y uint64) uint64 { return f32Bits(f32FromBits(x) + f32FromBits(y)) },
	uint16(OpF32Sub): func(x, y uint64) uint64 { return f32Bits(f32FromBits(x) - f32FromBits(y)) },
	uint16(OpF32Mul): func(x, y uint64) uint64 { return f32Bits(f32FromBits(x) * f32FromBits(y)) },
	uint16(OpF32Div): func(x, y uint64) uint64 { return f32Bits(f32FromBits(x) / f32FromBits(y)) },
	uint16(OpF32Min): func(x, y uint64) uint64 {
		return f32Bits(float32(math.Min(float64(f32FromBits(x)), float64(f32FromBits(y)))))
	},
	uint16(OpF32Max): func(x, y uint64) uint64 {
		return f32Bits(float32(math.Max(float64(f32FromBits(x)), float64(f32FromBits(y)))))
	},
	uint16(OpF32Copysign): func(x, y uint64) uint64 {
		return f32Bits(float32(math.Copysign(float64(f32FromBits(x)), float64(f32FromBits(y)))))
	},

	uint16(OpF64Add):      func(x, y uint64) uint64 { return f64Bits(f64FromBits(x) + f64FromBits(y)) },
	uint16(OpF64Sub):      func(x, y uint64) uint64 { return f64Bits(f64FromBits(x) - f64FromBits(y)) },
	uint16(OpF64Mul):      func(x, y uint64) uint64 { return f64Bits(f64FromBits(x) * f64FromBits(y)) },
	uint16(OpF64Div):      func(x, y uint64) uint64 { return f64Bits(f64FromBits(x) / f64FromBits(y)) },
	uint16(OpF64Min):      func(x, y uint64) uint64 { return f64Bits(math.Min(f64FromBits(x), f64FromBits(y))) },
	uint16(OpF64Max):      func(x, y uint64) uint64 { return f64Bits(math.Max(f64FromBits(x), f64FromBits(y))) },
	uint16(OpF64Copysign): func(x, y uint64) uint64 { return f64Bits(math.Copysign(f64FromBits(x), f64FromBits(y))) },
}

// unOps holds every one-operand numeric instruction but eqz: bit counts,
// float rounding, conversions (the trapping truncations included) and sign
// extensions. A reinterpretation is the identity on the stack cell.
var unOps = map[uint16]unFn{
	uint16(OpI32Clz):    func(v uint64) uint64 { return uint64(bits.LeadingZeros32(uint32(v))) },
	uint16(OpI32Ctz):    func(v uint64) uint64 { return uint64(bits.TrailingZeros32(uint32(v))) },
	uint16(OpI32Popcnt): func(v uint64) uint64 { return uint64(bits.OnesCount32(uint32(v))) },
	uint16(OpI64Clz):    func(v uint64) uint64 { return uint64(bits.LeadingZeros64(v)) },
	uint16(OpI64Ctz):    func(v uint64) uint64 { return uint64(bits.TrailingZeros64(v)) },
	uint16(OpI64Popcnt): func(v uint64) uint64 { return uint64(bits.OnesCount64(v)) },

	uint16(OpF32Abs):     func(v uint64) uint64 { return uint64(uint32(v) &^ (1 << 31)) },
	uint16(OpF32Neg):     func(v uint64) uint64 { return uint64(uint32(v) ^ (1 << 31)) },
	uint16(OpF32Ceil):    func(v uint64) uint64 { return f32Bits(float32(math.Ceil(float64(f32FromBits(v))))) },
	uint16(OpF32Floor):   func(v uint64) uint64 { return f32Bits(float32(math.Floor(float64(f32FromBits(v))))) },
	uint16(OpF32Trunc):   func(v uint64) uint64 { return f32Bits(float32(math.Trunc(float64(f32FromBits(v))))) },
	uint16(OpF32Nearest): func(v uint64) uint64 { return f32Bits(float32(math.RoundToEven(float64(f32FromBits(v))))) },
	uint16(OpF32Sqrt):    func(v uint64) uint64 { return f32Bits(float32(math.Sqrt(float64(f32FromBits(v))))) },
	uint16(OpF64Abs):     func(v uint64) uint64 { return v &^ (1 << 63) },
	uint16(OpF64Neg):     func(v uint64) uint64 { return v ^ (1 << 63) },
	uint16(OpF64Ceil):    func(v uint64) uint64 { return f64Bits(math.Ceil(f64FromBits(v))) },
	uint16(OpF64Floor):   func(v uint64) uint64 { return f64Bits(math.Floor(f64FromBits(v))) },
	uint16(OpF64Trunc):   func(v uint64) uint64 { return f64Bits(math.Trunc(f64FromBits(v))) },
	uint16(OpF64Nearest): func(v uint64) uint64 { return f64Bits(math.RoundToEven(f64FromBits(v))) },
	uint16(OpF64Sqrt):    func(v uint64) uint64 { return f64Bits(math.Sqrt(f64FromBits(v))) },

	uint16(OpI32WrapI64):     func(v uint64) uint64 { return uint64(uint32(v)) },
	uint16(OpI64ExtendI32U):  func(v uint64) uint64 { return uint64(uint32(v)) },
	uint16(OpI64ExtendI32S):  func(v uint64) uint64 { return uint64(int64(int32(v))) },
	uint16(OpI32TruncF32S):   func(v uint64) uint64 { return uint64(uint32(truncToI32S(float64(f32FromBits(v))))) },
	uint16(OpI32TruncF32U):   func(v uint64) uint64 { return uint64(truncToI32U(float64(f32FromBits(v)))) },
	uint16(OpI32TruncF64S):   func(v uint64) uint64 { return uint64(uint32(truncToI32S(f64FromBits(v)))) },
	uint16(OpI32TruncF64U):   func(v uint64) uint64 { return uint64(truncToI32U(f64FromBits(v))) },
	uint16(OpI64TruncF32S):   func(v uint64) uint64 { return uint64(truncToI64S(float64(f32FromBits(v)))) },
	uint16(OpI64TruncF32U):   func(v uint64) uint64 { return truncToI64U(float64(f32FromBits(v))) },
	uint16(OpI64TruncF64S):   func(v uint64) uint64 { return uint64(truncToI64S(f64FromBits(v))) },
	uint16(OpI64TruncF64U):   func(v uint64) uint64 { return truncToI64U(f64FromBits(v)) },
	uint16(OpF32ConvertI32S): func(v uint64) uint64 { return f32Bits(float32(int32(v))) },
	uint16(OpF32ConvertI32U): func(v uint64) uint64 { return f32Bits(float32(uint32(v))) },
	uint16(OpF32ConvertI64S): func(v uint64) uint64 { return f32Bits(float32(int64(v))) },
	uint16(OpF32ConvertI64U): func(v uint64) uint64 { return f32Bits(float32(v)) },
	uint16(OpF32DemoteF64):   func(v uint64) uint64 { return f32Bits(float32(f64FromBits(v))) },
	uint16(OpF64ConvertI32S): func(v uint64) uint64 { return f64Bits(float64(int32(v))) },
	uint16(OpF64ConvertI32U): func(v uint64) uint64 { return f64Bits(float64(uint32(v))) },
	uint16(OpF64ConvertI64S): func(v uint64) uint64 { return f64Bits(float64(int64(v))) },
	uint16(OpF64ConvertI64U): func(v uint64) uint64 { return f64Bits(float64(v)) },
	uint16(OpF64PromoteF32):  func(v uint64) uint64 { return f64Bits(float64(f32FromBits(v))) },

	uint16(OpI32ReinterpretF32): func(v uint64) uint64 { return v },
	uint16(OpI64ReinterpretF64): func(v uint64) uint64 { return v },
	uint16(OpF32ReinterpretI32): func(v uint64) uint64 { return v },
	uint16(OpF64ReinterpretI64): func(v uint64) uint64 { return v },

	uint16(OpI32Extend8S):  func(v uint64) uint64 { return uint64(uint32(int32(int8(v)))) },
	uint16(OpI32Extend16S): func(v uint64) uint64 { return uint64(uint32(int32(int16(v)))) },
	uint16(OpI64Extend8S):  func(v uint64) uint64 { return uint64(int64(int8(v))) },
	uint16(OpI64Extend16S): func(v uint64) uint64 { return uint64(int64(int16(v))) },
	uint16(OpI64Extend32S): func(v uint64) uint64 { return uint64(int64(int32(v))) },

	miscBase + uint16(MiscI32TruncSatF32S): func(v uint64) uint64 { return uint64(uint32(truncSatI32S(float64(f32FromBits(v))))) },
	miscBase + uint16(MiscI32TruncSatF32U): func(v uint64) uint64 { return uint64(truncSatI32U(float64(f32FromBits(v)))) },
	miscBase + uint16(MiscI32TruncSatF64S): func(v uint64) uint64 { return uint64(uint32(truncSatI32S(f64FromBits(v)))) },
	miscBase + uint16(MiscI32TruncSatF64U): func(v uint64) uint64 { return uint64(truncSatI32U(f64FromBits(v))) },
	miscBase + uint16(MiscI64TruncSatF32S): func(v uint64) uint64 { return uint64(truncSatI64S(float64(f32FromBits(v)))) },
	miscBase + uint16(MiscI64TruncSatF32U): func(v uint64) uint64 { return truncSatI64U(float64(f32FromBits(v))) },
	miscBase + uint16(MiscI64TruncSatF64S): func(v uint64) uint64 { return uint64(truncSatI64S(f64FromBits(v))) },
	miscBase + uint16(MiscI64TruncSatF64U): func(v uint64) uint64 { return truncSatI64U(f64FromBits(v)) },
}

// loadOps and storeOps hold the memory accesses; addr already includes the
// static offset, and an access past the end traps.
var loadOps = map[uint16]loadFn{
	uint16(OpI32Load):    func(m *Memory, a uint64) uint64 { return uint64(leUint32(m.mustRange(a, 4))) },
	uint16(OpI64Load):    func(m *Memory, a uint64) uint64 { return leUint64(m.mustRange(a, 8)) },
	uint16(OpF32Load):    func(m *Memory, a uint64) uint64 { return uint64(leUint32(m.mustRange(a, 4))) },
	uint16(OpF64Load):    func(m *Memory, a uint64) uint64 { return leUint64(m.mustRange(a, 8)) },
	uint16(OpI32Load8S):  func(m *Memory, a uint64) uint64 { return uint64(uint32(int32(int8(m.mustRange(a, 1)[0])))) },
	uint16(OpI32Load8U):  func(m *Memory, a uint64) uint64 { return uint64(m.mustRange(a, 1)[0]) },
	uint16(OpI32Load16S): func(m *Memory, a uint64) uint64 { return uint64(uint32(int32(int16(leUint16(m.mustRange(a, 2)))))) },
	uint16(OpI32Load16U): func(m *Memory, a uint64) uint64 { return uint64(leUint16(m.mustRange(a, 2))) },
	uint16(OpI64Load8S):  func(m *Memory, a uint64) uint64 { return uint64(int64(int8(m.mustRange(a, 1)[0]))) },
	uint16(OpI64Load8U):  func(m *Memory, a uint64) uint64 { return uint64(m.mustRange(a, 1)[0]) },
	uint16(OpI64Load16S): func(m *Memory, a uint64) uint64 { return uint64(int64(int16(leUint16(m.mustRange(a, 2))))) },
	uint16(OpI64Load16U): func(m *Memory, a uint64) uint64 { return uint64(leUint16(m.mustRange(a, 2))) },
	uint16(OpI64Load32S): func(m *Memory, a uint64) uint64 { return uint64(int64(int32(leUint32(m.mustRange(a, 4))))) },
	uint16(OpI64Load32U): func(m *Memory, a uint64) uint64 { return uint64(leUint32(m.mustRange(a, 4))) },
}

var storeOps = map[uint16]storeFn{
	uint16(OpI32Store):   func(m *Memory, a, v uint64) { putLeUint32(m.mustRange(a, 4), uint32(v)) },
	uint16(OpI64Store):   func(m *Memory, a, v uint64) { putLeUint64(m.mustRange(a, 8), v) },
	uint16(OpF32Store):   func(m *Memory, a, v uint64) { putLeUint32(m.mustRange(a, 4), uint32(v)) },
	uint16(OpF64Store):   func(m *Memory, a, v uint64) { putLeUint64(m.mustRange(a, 8), v) },
	uint16(OpI32Store8):  func(m *Memory, a, v uint64) { m.mustRange(a, 1)[0] = byte(v) },
	uint16(OpI32Store16): func(m *Memory, a, v uint64) { b := m.mustRange(a, 2); b[0], b[1] = byte(v), byte(v>>8) },
	uint16(OpI64Store8):  func(m *Memory, a, v uint64) { m.mustRange(a, 1)[0] = byte(v) },
	uint16(OpI64Store16): func(m *Memory, a, v uint64) { b := m.mustRange(a, 2); b[0], b[1] = byte(v), byte(v>>8) },
	uint16(OpI64Store32): func(m *Memory, a, v uint64) { putLeUint32(m.mustRange(a, 4), uint32(v)) },
}

// f32Bits and f64Bits widen a float's bits to the stack cell type.
func f32Bits(v float32) uint64 { return uint64(math.Float32bits(v)) }
func f64Bits(v float64) uint64 { return math.Float64bits(v) }
