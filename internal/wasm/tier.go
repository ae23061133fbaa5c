package wasm

import (
	"fmt"
	"time"
)

// Tier selects how an instance executes function bodies. The tier is fixed
// at instantiation (Config.Tier) and never changes afterwards. Both tiers
// are bit-identical on results, trap classes and fuel/InstrCount accounting
// (pinned by TestTierEquivalence and FuzzTierDifferential); they differ only
// in dispatch cost:
//
//   - TierClosure (the zero value) is the production path: each function is
//     run through the superinstruction fusion pass (fuse.go) and lowered to
//     Go closures with immediates and successor pcs captured as constants,
//     executed by a register-caching dispatch loop with no per-instruction
//     switch (closure.go).
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
// module, on the first closure-tier instantiation. The fused stream is an
// intermediate held in scratch shared across the module's functions and
// dropped when the build returns; only the closures are retained.
func (cm *CompiledModule) buildClosures() {
	var fs fuser
	for _, f := range cm.funcs {
		f.clos = compileClosures(cm, f, fs.fuse(f.code))
	}
}

// EffectiveTier reports the tier the instance was instantiated on.
func (in *Instance) EffectiveTier() Tier { return in.tier }

// chargeFuel consumes k fuel units exactly as k sequential per-instruction
// charges would: InstrCount advances only by the units actually paid for,
// and exhaustion traps at the precise instruction boundary, so fused
// superinstructions and closure-tier dispatch stay bit-identical to the
// interpreter's accounting. The deadline test fires when the charge crosses
// a 64 Ki-instruction boundary, mirroring the interpreter's periodic check.
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
	if in.deadline != 0 && in.InstrCount>>16 != (in.InstrCount-uint64(k))>>16 &&
		time.Now().UnixNano() > in.deadline {
		panic(newTrap(TrapDeadlineExceeded))
	}
}

// pollDeadline is called on loop back-edges and call boundaries while a
// deadline is armed. The interpreter's periodic check only fires every
// 64 Ki instructions, which a short stalling call never reaches; polling
// the two control-flow events that every non-terminating guest must repeat
// closes that escape. The wall clock is sampled every 64th event to keep
// armed-deadline overhead off the hot path.
func (in *Instance) pollDeadline() {
	in.deadlineEvents++
	if in.deadlineEvents&63 != 0 {
		return
	}
	if time.Now().UnixNano() > in.deadline {
		panic(newTrap(TrapDeadlineExceeded))
	}
}

// checkDeadlineNow samples the wall clock unconditionally — used after host
// function returns, where a stalled host call must surface immediately and
// the call itself dwarfs the clock read.
func (in *Instance) checkDeadlineNow() {
	if time.Now().UnixNano() > in.deadline {
		panic(newTrap(TrapDeadlineExceeded))
	}
}
