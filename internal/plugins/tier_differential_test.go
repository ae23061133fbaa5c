package plugins

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"waran/internal/sched"
	"waran/internal/wabi"
	"waran/internal/wasm"
)

// This file is the execution-tier half of the differential harness: where
// differential_test.go proves the codec and zero-copy byte paths agree, these
// tests run the same guests on the reference interpreter and on the
// production closure tier and demand bit-identical decisions, trap classes
// and fuel — the contract that makes the interpreter an oracle for the tier
// every binary ships.

func newTierSched(t testing.TB, name string, tier wasm.Tier, mode sched.ABIMode) *sched.PluginScheduler {
	t.Helper()
	mod, err := CompileScheduler(name)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	p, err := wabi.NewPlugin(mod, wabi.Policy{Fuel: 50_000_000, Tier: tier}, wabi.Env{})
	if err != nil {
		t.Fatalf("instantiate %s: %v", name, err)
	}
	ps, err := sched.NewPluginScheduler(name, p, nil)
	if err != nil {
		t.Fatalf("wrap %s: %v", name, err)
	}
	if err := ps.SetABIMode(mode); err != nil {
		t.Fatalf("force %v on %s: %v", mode, name, err)
	}
	return ps
}

// tierOutcome flattens one Schedule call into a comparable record: a stable
// outcome class, the allocations, and the fuel burned in the sandbox.
func tierOutcome(ps *sched.PluginScheduler, req *sched.Request) (string, []sched.Allocation, int64) {
	resp, err := ps.Schedule(req)
	fuel := ps.LastFuelUsed()
	if err == nil {
		return "ok", resp.Allocs, fuel
	}
	var bo *sched.BadOutputError
	if errors.As(err, &bo) {
		return "badoutput:" + bo.Kind.String(), nil, fuel
	}
	var trap *wasm.Trap
	if errors.As(err, &trap) {
		return "trap:" + trap.Code.String(), nil, fuel
	}
	return "err", nil, fuel
}

// TestDifferentialTiersRealGuests runs every built-in scheduler over both
// ABI paths on both tiers: allocations and per-call fuel must be
// bit-identical to the interpreter for every request, including the
// adversarial NaN/Inf/empty corners.
func TestDifferentialTiersRealGuests(t *testing.T) {
	for _, name := range []string{"rr", "pf", "mt"} {
		for _, mode := range []sched.ABIMode{sched.ABICodec, sched.ABIZeroCopy} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				base := newTierSched(t, name, wasm.TierInterp, mode)
				closure := newTierSched(t, name, wasm.TierClosure, mode)
				rng := rand.New(rand.NewSource(71))
				for trial := 0; trial < 150; trial++ {
					nUE := rng.Intn(32)
					if trial == 0 {
						nUE = 512
					}
					req := hostileRequest(rng, nUE, uint64(trial))
					wantClass, wantAllocs, wantFuel := tierOutcome(base, req)
					class, allocs, fuel := tierOutcome(closure, req)
					if class != wantClass {
						t.Fatalf("trial %d: closure outcome %q, interpreter %q", trial, class, wantClass)
					}
					if !allocsEqual(allocs, wantAllocs) {
						t.Fatalf("trial %d: closure diverged\ngot:  %v\nwant: %v", trial, allocs, wantAllocs)
					}
					if fuel != wantFuel {
						t.Fatalf("trial %d: closure burned %d fuel, interpreter %d", trial, fuel, wantFuel)
					}
				}
			})
		}
	}
}

// TestDifferentialTiersFaultGuests pins the trap side of the contract: every
// memory-safety fault guest must trap with the same code and the same fuel
// burn on both tiers.
func TestDifferentialTiersFaultGuests(t *testing.T) {
	names := []string{"null-deref", "oob-access", "double-free", "stack-overflow", "infinite-loop", "bad-output", "guest-error"}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			run := func(tier wasm.Tier) (string, int64) {
				src, err := FaultWAT(name)
				if err != nil {
					t.Fatal(err)
				}
				mod, err := wabi.CompileWAT(src)
				if err != nil {
					t.Fatal(err)
				}
				p, err := wabi.NewPlugin(mod, wabi.Policy{Fuel: 200_000, Tier: tier}, wabi.Env{})
				if err != nil {
					t.Fatal(err)
				}
				_, callErr := p.Call("schedule", nil)
				if callErr == nil {
					return "ok", p.LastFuelUsed()
				}
				var trap *wasm.Trap
				if errors.As(callErr, &trap) {
					return "trap:" + trap.Code.String(), p.LastFuelUsed()
				}
				return "guest-error", p.LastFuelUsed()
			}
			wantClass, wantFuel := run(wasm.TierInterp)
			if class, fuel := run(wasm.TierClosure); class != wantClass || fuel != wantFuel {
				t.Fatalf("closure (%q, fuel %d), interpreter (%q, fuel %d)", class, fuel, wantClass, wantFuel)
			}
		})
	}
}

// TestDifferentialTiersHostileZCGuests: the lying zero-copy guests must land
// in the same structural-rejection bucket on both tiers.
func TestDifferentialTiersHostileZCGuests(t *testing.T) {
	req := randomRequest(rand.New(rand.NewSource(13)), 4, 1)
	for _, name := range []string{"zc-oob-count", "zc-overlap", "zc-no-seal"} {
		t.Run(name, func(t *testing.T) {
			run := func(tier wasm.Tier) string {
				src, ok := ZCFaultWAT(name)
				if !ok {
					t.Fatalf("unknown zc fault %q", name)
				}
				mod, err := wabi.CompileWAT(src)
				if err != nil {
					t.Fatal(err)
				}
				p, err := wabi.NewPlugin(mod, wabi.Policy{Fuel: 1_000_000, Tier: tier}, wabi.Env{})
				if err != nil {
					t.Fatal(err)
				}
				ps, err := sched.NewPluginScheduler(name, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				class, _, _ := tierOutcome(ps, req)
				return class
			}
			want := run(wasm.TierInterp)
			if got := run(wasm.TierClosure); got != want {
				t.Fatalf("closure classified %q, interpreter %q", got, want)
			}
		})
	}
}

// tierFuzzPair lazily builds one scheduler per (guest, tier) — interpreter
// first, closure second — reused for the whole fuzz run: both tier instances
// of a guest see the same call history, so outcome comparisons stay valid
// across iterations.
var (
	tierFuzzMu     sync.Mutex
	tierFuzzScheds = map[string]*[2]*sched.PluginScheduler{}
)

func tierFuzzPair(t testing.TB, name string) *[2]*sched.PluginScheduler {
	tierFuzzMu.Lock()
	defer tierFuzzMu.Unlock()
	if tr, ok := tierFuzzScheds[name]; ok {
		return tr
	}
	var src string
	switch name {
	case "rr", "pf", "mt":
		// Built-in schedulers resolved by CompileScheduler below.
	case "zc-grow":
		src = GrowZCWAT
	default:
		s, ok := ZCFaultWAT(name)
		if !ok {
			t.Fatalf("unknown fuzz guest %q", name)
		}
		src = s
	}
	var tr [2]*sched.PluginScheduler
	for i, tier := range []wasm.Tier{wasm.TierInterp, wasm.TierClosure} {
		var mod *wabi.Module
		var err error
		if src == "" {
			mod, err = CompileScheduler(name)
		} else {
			mod, err = wabi.CompileWAT(src)
		}
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		p, err := wabi.NewPlugin(mod, wabi.Policy{Fuel: 50_000_000, Tier: tier}, wabi.Env{})
		if err != nil {
			t.Fatalf("instantiate %s: %v", name, err)
		}
		ps, err := sched.NewPluginScheduler(name, p, nil)
		if err != nil {
			t.Fatalf("wrap %s: %v", name, err)
		}
		tr[i] = ps
	}
	tierFuzzScheds[name] = &tr
	return &tr
}

// FuzzTierDifferential is the tier mirror of FuzzABIDifferential: for any
// seeded request against any guest — the real schedulers plus the hostile
// zero-copy corpus — the closure tier must reproduce the interpreter's
// outcome class, allocations and fuel burn exactly.
// Deadline traps are the one sanctioned divergence (wall-clock, not
// deterministic state), and no deadline is armed here.
func FuzzTierDifferential(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0))
	f.Add(int64(2), uint16(12), uint8(1))
	f.Add(int64(3), uint16(512), uint8(2))
	f.Add(int64(4), uint16(4), uint8(3))
	f.Add(int64(5), uint16(4), uint8(4))
	f.Add(int64(6), uint16(4), uint8(5))
	f.Add(int64(7), uint16(4), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, nUE uint16, sel uint8) {
		guests := []string{"rr", "pf", "mt", "zc-grow", "zc-oob-count", "zc-overlap", "zc-no-seal"}
		name := guests[int(sel)%len(guests)]
		rng := rand.New(rand.NewSource(seed))
		req := hostileRequest(rng, int(nUE)%600, uint64(seed))
		tr := tierFuzzPair(t, name)
		wantClass, wantAllocs, wantFuel := tierOutcome(tr[0], req)
		class, allocs, fuel := tierOutcome(tr[1], req)
		if class != wantClass {
			t.Fatalf("%s: closure outcome %q, interpreter %q", name, class, wantClass)
		}
		if !allocsEqual(allocs, wantAllocs) {
			t.Fatalf("%s: closure allocations diverged\ngot:  %v\nwant: %v", name, allocs, wantAllocs)
		}
		if fuel != wantFuel {
			t.Fatalf("%s: closure fuel %d, interpreter %d", name, fuel, wantFuel)
		}
	})
}
