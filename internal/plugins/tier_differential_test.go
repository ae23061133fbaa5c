package plugins

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"waran/internal/sched"
	"waran/internal/wabi"
	"waran/internal/wasm"
	"waran/internal/wat"
)

// This file is the execution-tier half of the differential harness: where
// differential_test.go proves the codec and zero-copy byte paths agree, these
// tests run the same guests on the reference interpreter and on the
// production closure tier and demand bit-identical decisions, trap classes
// and fuel — the contract that makes the interpreter an oracle for the tier
// every binary ships.

// newTierSched hosts the built-in guest name on tier over one call path:
// the pooled scheduler (zero-copy) or codecSched.
func newTierSched(t testing.TB, name string, tier wasm.Tier, codec bool) decider {
	t.Helper()
	policy := wabi.Policy{Fuel: diffPolicy.Fuel, Tier: tier}
	if codec {
		return newCodecSched(t, builtin(t, name), policy)
	}
	return poolSched(t, name, builtin(t, name), policy, wabi.Env{})
}

// tierOutcome flattens one Schedule call into a comparable record: a stable
// outcome class, the allocations, and the fuel burned in the sandbox.
func tierOutcome(ps decider, req *sched.Request) (string, []sched.Allocation, int64) {
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
		for _, path := range []string{"codec", "zerocopy"} {
			t.Run(name+"/"+path, func(t *testing.T) {
				base := newTierSched(t, name, wasm.TierInterp, path == "codec")
				closure := newTierSched(t, name, wasm.TierClosure, path == "codec")
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

// TestTierFuelSweepRealGuests runs rr, pf and mt on one fixed 3-UE request
// at every fuel value from 0 to the call's cost + 2, on both tiers: trap
// class, InstrCount and fuel left must agree at every boundary, including
// the ones inside the closure tier's ops that fold several instructions.
// The guests run on bare instances whose ABI imports serve the request.
func TestTierFuelSweepRealGuests(t *testing.T) {
	req := sched.BinaryCodec{}.EncodeRequest(fuelRequest(3, 10, false))
	i32 := wasm.ValI32
	noop := func(*wasm.CallContext, []uint64) ([]uint64, error) { return nil, nil }
	imports := wasm.Imports{"waran": {
		"input_length": {Name: "input_length", Type: wasm.FuncType{Results: []wasm.ValType{i32}},
			Fn: func(*wasm.CallContext, []uint64) ([]uint64, error) { return []uint64{uint64(len(req))}, nil }},
		"input_read": {Name: "input_read", Type: wasm.FuncType{Params: []wasm.ValType{i32, i32, i32}, Results: []wasm.ValType{i32}},
			Fn: func(ctx *wasm.CallContext, a []uint64) ([]uint64, error) {
				return []uint64{a[2]}, ctx.Memory().Write(uint32(a[0]), req[a[1]:a[1]+a[2]])
			}},
		"output_write": {Name: "output_write", Type: wasm.FuncType{Params: []wasm.ValType{i32, i32}}, Fn: noop},
		"error_set":    {Name: "error_set", Type: wasm.FuncType{Params: []wasm.ValType{i32, i32}}, Fn: noop},
		"log":          {Name: "log", Type: wasm.FuncType{Params: []wasm.ValType{i32, i32}}, Fn: noop},
	}}
	for _, name := range []string{"rr", "pf", "mt"} {
		src, _ := SchedulerWAT(name)
		m, err := wat.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := wasm.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		run := func(tier wasm.Tier, fuel int64) (string, uint64, int64) {
			in, err := cm.Instantiate(imports, wasm.Config{MeterFuel: true, Tier: tier})
			if err != nil {
				t.Fatal(err)
			}
			in.SetFuel(fuel)
			class := "ok"
			if _, err := in.Call("schedule"); err != nil {
				class = err.Error()
			}
			return class, in.InstrCount, in.Fuel()
		}
		class, cost, _ := run(wasm.TierInterp, 1<<30)
		if class != "ok" || cost < 100 {
			t.Fatalf("%s: baseline run %q after %d instructions", name, class, cost)
		}
		for fuel := int64(0); fuel <= int64(cost)+2; fuel++ {
			wc, wn, wf := run(wasm.TierInterp, fuel)
			if c, n, f := run(wasm.TierClosure, fuel); c != wc || n != wn || f != wf {
				t.Fatalf("%s at fuel %d: closure (%q, count %d, left %d), interpreter (%q, %d, %d)", name, fuel, c, n, f, wc, wn, wf)
			}
		}
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
				ps := poolSched(t, name, mod, wabi.Policy{Fuel: 1_000_000, Tier: tier}, wabi.Env{})
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

// TestDifferentialTiersChaosGuest: over 1 200 seeded requests on both sides
// of the sleeper threshold, the chaos guest fails with the class its Go twin
// recomputes, and the closure tier reproduces the interpreter's class, fuel
// and decision. Both tiers run it pooled, as the gNB does, so an instance
// that faulted is replaced.
func TestDifferentialTiersChaosGuest(t *testing.T) {
	const seed, cleanBefore = 42, 400
	src, _ := ChaosWAT("mt", seed, cleanBefore)
	mod, err := wabi.CompileWAT(src)
	if err != nil {
		t.Fatal(err)
	}
	var tiers [2]*sched.PoolScheduler
	for i, tier := range []wasm.Tier{wasm.TierInterp, wasm.TierClosure} {
		pool := wabi.NewPool(mod, wabi.Policy{Fuel: 100_000, Tier: tier}, wabi.Env{}, 1)
		if tiers[i], err = sched.NewPoolScheduler("chaos-mt", pool); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(29))
	seen := map[wabi.FailureClass]int{}
	for slot := uint64(0); slot < 1200; slot++ {
		req := hostileRequest(rng, rng.Intn(32), slot)
		want := ChaosFault(seed, cleanBefore, req.SliceID, slot)
		var resps [2]*sched.Response
		var fuel [2]int64
		for i, ps := range tiers {
			resp, err := ps.Schedule(req)
			if class := wabi.ClassOf(err); class != want {
				t.Fatalf("slot %d tier %d: class %v, Go twin %v (err=%v)", slot, i, class, want, err)
			}
			resps[i], fuel[i] = resp, ps.LastFuelUsed()
		}
		if fuel[0] != fuel[1] {
			t.Fatalf("slot %d (%v): closure burned %d fuel, interpreter %d", slot, want, fuel[1], fuel[0])
		}
		if want == wabi.FailNone && !allocsEqual(resps[1].Allocs, resps[0].Allocs) {
			t.Fatalf("slot %d: closure diverged\ngot:  %v\nwant: %v", slot, resps[1].Allocs, resps[0].Allocs)
		}
		seen[want]++
	}
	for _, c := range []wabi.FailureClass{wabi.FailNone, wabi.FailTrap, wabi.FailFuel, wabi.FailBadOutput} {
		if seen[c] == 0 {
			t.Errorf("no request produced %v: %v", c, seen)
		}
	}
}

// tierFuzzPair lazily builds one scheduler per (guest, tier) — interpreter
// first, closure second — reused for the whole fuzz run: both tier instances
// of a guest see the same call history, so outcome comparisons stay valid
// across iterations.
var (
	tierFuzzMu     sync.Mutex
	tierFuzzScheds = map[string]*[2]*sched.PoolScheduler{}
)

func tierFuzzPair(t testing.TB, name string) *[2]*sched.PoolScheduler {
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
	var tr [2]*sched.PoolScheduler
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
		tr[i] = poolSched(t, name, mod, wabi.Policy{Fuel: 50_000_000, Tier: tier}, wabi.Env{})
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
