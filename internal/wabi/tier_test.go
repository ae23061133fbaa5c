package wabi

import (
	"testing"

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
// runs the closure tier from the module's very first call, on a cached
// module too.
func TestPluginClosureFromFirstCall(t *testing.T) {
	bin, err := wat.CompileToBinary(spinWAT)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewModuleCache().Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []Policy{{}, {Fuel: 100_000}} {
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
	}
}
