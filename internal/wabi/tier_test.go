package wabi

import (
	"errors"
	"testing"
	"time"

	"waran/internal/wasm"
	"waran/internal/wat"
)

// bothTiers is the reference interpreter followed by the production tier.
var bothTiers = []wasm.Tier{wasm.TierInterp, wasm.TierClosure}

// spinWAT burns a deterministic ~600 instructions per call.
const spinWAT = `(module
  (memory (export "memory") 1)
  (func (export "run") (result i32)
    (local $i i32)
    (block $done
      (loop $l
        (br_if $done (i32.ge_u (local.get $i) (i32.const 100)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
    (i32.const 0)))`

func TestPluginTierPin(t *testing.T) {
	for _, tier := range bothTiers {
		p := mustPlugin(t, spinWAT, Policy{Fuel: 100_000, Tier: tier}, Env{})
		if _, err := p.Call("run", nil); err != nil {
			t.Fatalf("tier %v: %v", tier, err)
		}
		if got := p.LastTier(); got != tier {
			t.Fatalf("LastTier = %v, want %v", got, tier)
		}
	}
}

// TestTierFuelIdenticalAcrossTiers checks the wabi-visible half of the
// bit-identity contract: LastFuelUsed must not depend on the tier.
func TestTierFuelIdenticalAcrossTiers(t *testing.T) {
	fuelOn := func(tier wasm.Tier) int64 {
		p := mustPlugin(t, spinWAT, Policy{Fuel: 100_000, Tier: tier}, Env{})
		if _, err := p.Call("run", nil); err != nil {
			t.Fatalf("tier %v: %v", tier, err)
		}
		return p.LastFuelUsed()
	}
	interp := fuelOn(wasm.TierInterp)
	if interp == 0 {
		t.Fatal("no fuel recorded")
	}
	if clos := fuelOn(wasm.TierClosure); clos != interp {
		t.Fatalf("closure tier burned %d fuel, interpreter %d", clos, interp)
	}
}

// TestPluginClosureFromFirstCall pins the shipped default: a zero Policy
// runs the closure tier from the module's very first call, on every instance
// the plugin creates (cached module, Reset, fresh-instance calls).
func TestPluginClosureFromFirstCall(t *testing.T) {
	bin, err := wat.CompileToBinary(spinWAT)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewModuleCache().Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []Policy{{}, {Fuel: 100_000}, {Fuel: 100_000, FreshInstance: true}} {
		p, err := NewPlugin(mod, policy, Env{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := p.Call("run", nil); err != nil {
				t.Fatal(err)
			}
			if got := p.LastTier(); got != wasm.TierClosure {
				t.Fatalf("policy %+v call %d ran on %v, want closure", policy, i, got)
			}
		}
		if err := p.Reset(); err != nil {
			t.Fatal(err)
		}
		if got := p.LastTier(); got != wasm.TierClosure {
			t.Fatalf("policy %+v: instance after Reset is on %v", policy, got)
		}
	}
}

// TestSlowHostFunctionDeadline is the regression test for the deadline
// escape at call boundaries: a guest that executes only a handful of
// instructions — far under the 64 Ki periodic check — but blocks in a slow
// host function must still trap once the host call returns past the
// deadline. Before the call-boundary check, this call succeeded.
func TestSlowHostFunctionDeadline(t *testing.T) {
	src := `(module
	  (import "test" "slow" (func $slow))
	  (memory (export "memory") 1)
	  (func (export "run") (result i32)
	    (call $slow)
	    (i32.const 0)))`
	hostDelay := 30 * time.Millisecond
	env := Env{HostFuncs: wasm.Imports{"test": {
		"slow": &wasm.HostFunc{
			Name: "slow",
			Type: wasm.FuncType{},
			Fn: func(ctx *wasm.CallContext, args []uint64) ([]uint64, error) {
				time.Sleep(hostDelay)
				return nil, nil
			},
		},
	}}}
	for _, tier := range bothTiers {
		p := mustPlugin(t, src, Policy{Fuel: 10_000, CallTimeout: time.Millisecond, Tier: tier}, Env{HostFuncs: env.HostFuncs})
		_, err := p.Call("run", nil)
		var ce *CallError
		if !errors.As(err, &ce) || ce.Trap == nil || ce.Trap.Code != wasm.TrapDeadlineExceeded {
			t.Fatalf("tier %v: slow host call returned %v, want deadline trap", tier, err)
		}
		if got := p.LastFailureClass(); got != FailDeadline {
			t.Fatalf("tier %v: failure class %v, want FailDeadline", tier, got)
		}
		if !p.Poisoned() {
			t.Fatalf("tier %v: deadline overrun did not poison the instance", tier)
		}
	}
}
