package wasm

import "fmt"

// Tier selects how an instance executes function bodies. The tier is fixed
// at instantiation (Config.Tier) and never changes afterwards. Both tiers
// are bit-identical on results, trap classes and fuel/InstrCount accounting
// (pinned by TestTierEquivalence and FuzzTierDifferential); they differ only
// in dispatch cost:
//
//   - TierClosure (the zero value) is the production path: each function is
//     lowered in one pass to Go closures that fold local.get/const operands
//     and local.set/tee/br_if destinations into the op that uses them, with
//     immediates and successor pcs captured as constants, executed by a
//     register-caching dispatch loop with no per-instruction switch
//     (closure.go).
//   - TierInterp is the flattening interpreter, one switch per unfused
//     instruction. It is kept as the reference oracle the differential tests
//     compare the closure tier against; no binary selects it.
type Tier int32

const (
	TierClosure Tier = iota // closure-compiled dispatch loop (production)
	TierInterp              // flattening interpreter (reference oracle)
)

// NumTiers is the number of execution tiers.
const NumTiers = 2

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierClosure:
		return "closure"
	case TierInterp:
		return "interp"
	}
	return fmt.Sprintf("tier(%d)", int32(t))
}

// buildClosures lowers every function body to its closure form, once per
// module, on the first closure-tier instantiation. The lowering's scratch is
// shared across the module's functions and dropped when the build returns;
// only the closures are retained.
func (cm *CompiledModule) buildClosures() {
	var l lowerer
	for _, f := range cm.funcs {
		f.clos = l.compileClosures(cm, f)
	}
}

// EffectiveTier reports the tier the instance was instantiated on.
func (in *Instance) EffectiveTier() Tier { return in.tier }

// chargeFuel consumes k fuel units exactly as k sequential per-instruction
// charges would: InstrCount advances only by the units actually paid for,
// and exhaustion traps at the precise instruction boundary, so the closure
// tier's per-segment charges stay bit-identical to the interpreter's
// accounting.
func (in *Instance) chargeFuel(k uint32) {
	if !in.fuelEnabled || k == 0 {
		return
	}
	f := in.fuel
	switch {
	case f < 0: // metering on, exhaustion disabled
		in.InstrCount += uint64(k)
	case f >= int64(k):
		in.fuel = f - int64(k)
		in.InstrCount += uint64(k)
	default:
		in.InstrCount += uint64(f)
		in.fuel = 0
		panic(newTrap(TrapFuelExhausted))
	}
}
