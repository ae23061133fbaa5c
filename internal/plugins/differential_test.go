package plugins

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"waran/internal/sched"
	"waran/internal/wabi"
)

// This file is the wasm-level half of the zero-copy differential harness:
// where internal/sched's FuzzABIDifferential proves the byte layers agree
// without running wasm, these tests run the real guests over both call
// paths and demand bit-identical decisions, correct region behaviour across
// slots and instance lifecycles, and hostile/chaotic response regions that
// never escape validation.

func newSchedABI(t testing.TB, name string, mode sched.ABIMode, env wabi.Env) *sched.PluginScheduler {
	t.Helper()
	mod, err := CompileScheduler(name)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return newModuleSchedABI(t, name, mod, mode, env)
}

func newModuleSchedABI(t testing.TB, name string, mod *wabi.Module, mode sched.ABIMode, env wabi.Env) *sched.PluginScheduler {
	t.Helper()
	p, err := wabi.NewPlugin(mod, wabi.Policy{Fuel: 50_000_000}, env)
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

// hostileRequest mixes regular UEs with the adversarial corners: NaN and
// ±Inf running averages, zero-rate channels, empty buffers.
func hostileRequest(rng *rand.Rand, nUE int, slot uint64) *sched.Request {
	req := randomRequest(rng, nUE, slot)
	for i := range req.UEs {
		switch rng.Intn(16) {
		case 0:
			req.UEs[i].AvgTputBps = math.NaN()
		case 1:
			req.UEs[i].AvgTputBps = math.Inf(1)
		case 2:
			req.UEs[i].AvgTputBps = math.Inf(-1)
		}
	}
	return req
}

// TestDifferentialCodecVsZeroCopy runs every built-in scheduler over both
// call paths and requires bit-identical allocations for every request,
// including the 0-UE and full-region (512-UE) extremes.
func TestDifferentialCodecVsZeroCopy(t *testing.T) {
	for _, name := range []string{"rr", "pf", "mt"} {
		t.Run(name, func(t *testing.T) {
			codec := newSchedABI(t, name, sched.ABICodec, wabi.Env{})
			zc := newSchedABI(t, name, sched.ABIZeroCopy, wabi.Env{})
			if codec.ZeroCopy() || !zc.ZeroCopy() {
				t.Fatal("forced paths not honored")
			}
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 200; trial++ {
				nUE := rng.Intn(32)
				switch trial {
				case 0:
					nUE = 0
				case 1:
					nUE = 512
				}
				req := hostileRequest(rng, nUE, uint64(trial))
				want, err := codec.Schedule(req)
				if err != nil {
					t.Fatalf("trial %d: codec: %v", trial, err)
				}
				got, err := zc.Schedule(req)
				if err != nil {
					t.Fatalf("trial %d: zerocopy: %v", trial, err)
				}
				if !allocsEqual(got.Allocs, want.Allocs) {
					t.Fatalf("trial %d (%d UEs): paths diverge\nzc:    %v\ncodec: %v",
						trial, nUE, got.Allocs, want.Allocs)
				}
			}
			st := zc.Stats()
			if st.ZCCalls == 0 || st.ZCCalls != st.Calls {
				t.Fatalf("zero-copy accounting: %+v", st)
			}
			if cst := codec.Stats(); cst.ZCCalls != 0 {
				t.Fatalf("codec path recorded zero-copy calls: %+v", cst)
			}
		})
	}
}

// TestDifferentialPFNaNAverages pins the PF floor on the one average no
// comparison orders: with AvgTputBps NaN the metric used to be NaN, the
// ranking stopped being a strict weak order, and native's merge sort and a
// guest's selection could disagree once more than 20 UEs were active. Both
// sides floor a NaN average like any average under 1 kb/s, so 0–64 UEs with
// NaN and ±Inf averages must match native through both ABIs.
func TestDifferentialPFNaNAverages(t *testing.T) {
	native := sched.ProportionalFair{}
	guests := []*sched.PluginScheduler{
		newSchedABI(t, "pf", sched.ABICodec, wabi.Env{}),
		newSchedABI(t, "pf", sched.ABIZeroCopy, wabi.Env{}),
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 500; trial++ {
		req := hostileRequest(rng, trial%65, uint64(trial))
		req.PRBBudget = 52
		want, err := native.Schedule(req)
		if err != nil {
			t.Fatalf("trial %d: native: %v", trial, err)
		}
		for _, g := range guests {
			got, err := g.Schedule(req)
			if err != nil {
				t.Fatalf("trial %d: zerocopy=%v: %v", trial, g.ZeroCopy(), err)
			}
			if !allocsEqual(got.Allocs, want.Allocs) {
				t.Fatalf("trial %d (%d UEs, zerocopy=%v):\nplugin: %v\nnative: %v",
					trial, len(req.UEs), g.ZeroCopy(), got.Allocs, want.Allocs)
			}
		}
	}
}

// TestDifferentialDeltaThousandSlots is the seeded multi-slot sequence of
// request deltas: 1000 slots of random UE-subset mutations through one
// zero-copy instance (whose request region is rewritten over the previous
// slot's bytes) against a codec scheduler that encodes into a fresh buffer
// every slot. Decisions must stay bit-identical the whole way.
func TestDifferentialDeltaThousandSlots(t *testing.T) {
	for _, name := range []string{"rr", "pf", "mt"} {
		t.Run(name, func(t *testing.T) {
			codec := newSchedABI(t, name, sched.ABICodec, wabi.Env{})
			zc := newSchedABI(t, name, sched.ABIZeroCopy, wabi.Env{})
			rng := rand.New(rand.NewSource(23))
			req := randomRequest(rng, 24, 0)
			for slot := uint64(0); slot < 1000; slot++ {
				req.Slot = slot
				for i := range req.UEs {
					if rng.Intn(4) == 0 {
						req.UEs[i].BufferBytes = uint32(rng.Intn(200_000))
						req.UEs[i].AvgTputBps = float64(rng.Intn(30_000_000))
					}
				}
				want, err := codec.Schedule(req)
				if err != nil {
					t.Fatalf("slot %d: codec: %v", slot, err)
				}
				got, err := zc.Schedule(req)
				if err != nil {
					t.Fatalf("slot %d: zerocopy: %v", slot, err)
				}
				if !allocsEqual(got.Allocs, want.Allocs) {
					t.Fatalf("slot %d: rewritten region produced a different decision\nzc:    %v\ncodec: %v",
						slot, got.Allocs, want.Allocs)
				}
			}
			st := zc.Stats()
			if st.ZCRecords != 24_000 || st.ZCDirtyRecords != st.ZCRecords {
				t.Fatalf("wrote %d records (%d dirty), want 24000 (all)", st.ZCRecords, st.ZCDirtyRecords)
			}
			if pl := zc.Plugin(); pl.RegionNegotiations() != 1 {
				t.Fatalf("negotiations = %d, want 1 for a single live instance", pl.RegionNegotiations())
			}
		})
	}
}

// TestDifferentialScribblingGuest runs a guest that overwrites its own
// request region after reading it, over 150 slots with an unchanged UE set —
// the traffic for which a host that only rewrote changed records would hand
// the guest its own scribble back. Codec and zero-copy decisions must stay
// bit-identical: the region is the host's to write, every call.
func TestDifferentialScribblingGuest(t *testing.T) {
	mod, err := wabi.CompileWAT(scribbleZCWAT)
	if err != nil {
		t.Fatal(err)
	}
	codec := newModuleSchedABI(t, "zc-scribble", mod, sched.ABICodec, wabi.Env{})
	zc := newModuleSchedABI(t, "zc-scribble", mod, sched.ABIZeroCopy, wabi.Env{})
	req := randomRequest(rand.New(rand.NewSource(41)), 6, 0)
	req.PRBBudget = 10
	for slot := uint64(0); slot < 150; slot++ {
		req.Slot = slot
		want, err := codec.Schedule(req)
		if err != nil {
			t.Fatalf("slot %d: codec: %v", slot, err)
		}
		got, err := zc.Schedule(req)
		if err != nil {
			t.Fatalf("slot %d: zerocopy: %v", slot, err)
		}
		if !allocsEqual(got.Allocs, want.Allocs) {
			t.Fatalf("slot %d: guest saw its own scribble\nzc:    %v\ncodec: %v", slot, got.Allocs, want.Allocs)
		}
	}
}

// TestDifferentialConcurrentPools races both paths across pooled instances
// sharing one compiled module: N goroutines (cells) with disjoint seeded
// request streams, each verifying zero-copy against its own codec baseline.
// Meaningful under -race (make check runs it so).
func TestDifferentialConcurrentPools(t *testing.T) {
	mod, err := CompileScheduler("pf")
	if err != nil {
		t.Fatal(err)
	}
	pool := wabi.NewPool(mod, wabi.Policy{Fuel: 50_000_000}, wabi.Env{}, 4)
	zc, err := sched.NewPoolScheduler("pf", pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := zc.SetABIMode(sched.ABIZeroCopy); err != nil {
		t.Fatal(err)
	}

	const cells = 8
	var wg sync.WaitGroup
	errs := make(chan error, cells)
	for c := 0; c < cells; c++ {
		wg.Add(1)
		go func(cell int) {
			defer wg.Done()
			codec := newSchedABI(t, "pf", sched.ABICodec, wabi.Env{})
			rng := rand.New(rand.NewSource(int64(1000 + cell)))
			for slot := uint64(0); slot < 150; slot++ {
				req := randomRequest(rng, 16, slot)
				want, err := codec.Schedule(req)
				if err != nil {
					errs <- err
					return
				}
				got, err := zc.Schedule(req)
				if err != nil {
					errs <- err
					return
				}
				if !allocsEqual(got.Allocs, want.Allocs) {
					t.Errorf("cell %d slot %d: pooled zero-copy diverged", cell, slot)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := zc.Stats(); st.ZCCalls != cells*150 {
		t.Fatalf("zc calls = %d, want %d", st.ZCCalls, cells*150)
	}
}

// TestZeroCopyChaosInterleavings proves half-written response regions never
// escape: under a seeded mix of forced traps (which scribble the response
// region mid-write) and output corruption (which mangles the sealed count),
// every successful Schedule is bit-identical to an undisturbed reference,
// and every failure classifies as a trap or bad output — never a plausible
// but wrong decision.
func TestZeroCopyChaosInterleavings(t *testing.T) {
	ch := wabi.NewChaos(wabi.ChaosConfig{TrapProb: 0.2, CorruptProb: 0.2, Seed: 99})
	mod, err := CompileScheduler("mt")
	if err != nil {
		t.Fatal(err)
	}
	p, err := wabi.NewPlugin(mod, wabi.Policy{Fuel: 50_000_000}, wabi.Env{Chaos: ch})
	if err != nil {
		t.Fatal(err)
	}
	chaotic, err := sched.NewPluginScheduler("mt", p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := chaotic.SetABIMode(sched.ABIZeroCopy); err != nil {
		t.Fatal(err)
	}
	reference := newSchedABI(t, "mt", sched.ABIZeroCopy, wabi.Env{})

	rng := rand.New(rand.NewSource(31))
	var clean, trapped, rejected int
	for trial := 0; trial < 400; trial++ {
		req := hostileRequest(rng, rng.Intn(24), uint64(trial))
		want, err := reference.Schedule(req)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		got, err := chaotic.Schedule(req)
		if err == nil {
			clean++
			if !allocsEqual(got.Allocs, want.Allocs) {
				t.Fatalf("trial %d: chaos let a wrong decision through\ngot:  %v\nwant: %v",
					trial, got.Allocs, want.Allocs)
			}
			continue
		}
		// Failures must be classified faults, never silent.
		switch wabi.ClassOf(err) {
		case wabi.FailTrap:
			trapped++
			// The trap scribbled the region; the instance is poisoned and
			// must be replaced before the next decision.
			if !chaotic.Plugin().Poisoned() {
				t.Fatalf("trial %d: trap did not poison", trial)
			}
			if err := chaotic.Plugin().Reset(); err != nil {
				t.Fatal(err)
			}
		case wabi.FailBadOutput:
			rejected++
			var bo *sched.BadOutputError
			if !errors.As(err, &bo) {
				t.Fatalf("trial %d: bad output without typed error: %v", trial, err)
			}
			if bo.Kind != sched.BadOutputOOB {
				t.Fatalf("trial %d: corrupted count classified %v, want oob", trial, bo.Kind)
			}
		default:
			t.Fatalf("trial %d: unexpected failure class %v (%v)", trial, wabi.ClassOf(err), err)
		}
	}
	if clean == 0 || trapped == 0 || rejected == 0 {
		t.Fatalf("chaos schedule did not exercise all outcomes: clean=%d trapped=%d rejected=%d",
			clean, trapped, rejected)
	}
}

// TestHostileZCGuestsClassified runs the lying zero-copy guests end to end:
// each attack through the real call path must land in the right structural
// rejection bucket.
func TestHostileZCGuestsClassified(t *testing.T) {
	cases := []struct {
		name string
		kind sched.BadOutputKind
	}{
		{"zc-oob-count", sched.BadOutputOOB},
		{"zc-overlap", sched.BadOutputOverlap},
		{"zc-no-seal", sched.BadOutputOOB}, // pre-poisoned count survives
	}
	req := randomRequest(rand.New(rand.NewSource(5)), 4, 1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, ok := ZCFaultWAT(tc.name)
			if !ok {
				t.Fatalf("unknown zc fault %q", tc.name)
			}
			mod, err := wabi.CompileWAT(src)
			if err != nil {
				t.Fatal(err)
			}
			p, err := wabi.NewPlugin(mod, wabi.Policy{Fuel: 1_000_000}, wabi.Env{})
			if err != nil {
				t.Fatal(err)
			}
			ps, err := sched.NewPluginScheduler(tc.name, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !ps.ZeroCopy() {
				t.Fatal("zc-only guest did not auto-select zero-copy")
			}
			_, err = ps.Schedule(req)
			var bo *sched.BadOutputError
			if !errors.As(err, &bo) {
				t.Fatalf("err = %v, want *BadOutputError", err)
			}
			if bo.Kind != tc.kind {
				t.Fatalf("kind = %v, want %v", bo.Kind, tc.kind)
			}
			if wabi.ClassOf(err) != wabi.FailBadOutput {
				t.Fatalf("class = %v, want FailBadOutput", wabi.ClassOf(err))
			}
		})
	}
}

// TestZeroCopyPoolTrapRenegotiates is the scheduler-level half of the
// poisoned-instance regression (the wabi half is
// TestPoolZeroCopyTrapThenReuse): a pool of one grow-based guest serves a
// decision, traps, and the replacement instance must renegotiate regions
// and produce the correct decision instead of writing through the dead
// layout.
func TestZeroCopyPoolTrapRenegotiates(t *testing.T) {
	mod, err := wabi.CompileWAT(GrowZCWAT)
	if err != nil {
		t.Fatal(err)
	}
	ch := wabi.NewChaos(wabi.ChaosConfig{TrapProb: 1, ActivateAfter: 1, Seed: 17})
	pool := wabi.NewPool(mod, wabi.Policy{Fuel: 1_000_000}, wabi.Env{Chaos: ch}, 1)
	ps, err := sched.NewPoolScheduler("zc-grow", pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ps.ZeroCopy() {
		t.Fatal("grow guest did not auto-select zero-copy")
	}

	req := randomRequest(rand.New(rand.NewSource(9)), 4, 1)
	req.PRBBudget = 10
	wantAllocs := []sched.Allocation{{UEID: req.UEs[0].ID, PRBs: 1}}

	resp, err := ps.Schedule(req) // call 1: clean
	if err != nil {
		t.Fatal(err)
	}
	if !allocsEqual(resp.Allocs, wantAllocs) {
		t.Fatalf("allocs = %v, want %v", resp.Allocs, wantAllocs)
	}

	if _, err := ps.Schedule(req); err == nil { // call 2: chaos trap, instance discarded
		t.Fatal("chaos-armed call did not fail")
	}
	if d := pool.Stats().Discards; d != 1 {
		t.Fatalf("discards = %d, want 1", d)
	}

	ch.SetConfig(wabi.ChaosConfig{})
	resp, err = ps.Schedule(req) // call 3: fresh instance, renegotiated regions
	if err != nil {
		t.Fatalf("replacement instance: %v", err)
	}
	if !allocsEqual(resp.Allocs, wantAllocs) {
		t.Fatalf("replacement allocs = %v, want %v", resp.Allocs, wantAllocs)
	}
}

// TestABIModeGating pins capability resolution: legacy guests cannot be
// forced zero-copy, zero-copy-only guests cannot be forced onto the codec,
// and auto picks the right path for each.
func TestABIModeGating(t *testing.T) {
	legacySrc, err := FaultWAT("bad-output") // classic entry only
	if err != nil {
		t.Fatal(err)
	}
	legacyMod, err := wabi.CompileWAT(legacySrc)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := wabi.NewPlugin(legacyMod, wabi.Policy{}, wabi.Env{})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := sched.NewPluginScheduler("legacy", legacy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ls.ZeroCopy() {
		t.Fatal("legacy guest auto-selected zero-copy")
	}
	if err := ls.SetABIMode(sched.ABIZeroCopy); err == nil {
		t.Fatal("legacy guest accepted forced zero-copy")
	}

	zcSrc, _ := ZCFaultWAT("zc-grow")
	zcMod, err := wabi.CompileWAT(zcSrc)
	if err != nil {
		t.Fatal(err)
	}
	zcOnly, err := wabi.NewPlugin(zcMod, wabi.Policy{}, wabi.Env{})
	if err != nil {
		t.Fatal(err)
	}
	zs, err := sched.NewPluginScheduler("zc-only", zcOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !zs.ZeroCopy() {
		t.Fatal("zero-copy-only guest did not auto-select zero-copy")
	}
	if err := zs.SetABIMode(sched.ABICodec); err == nil {
		t.Fatal("zero-copy-only guest accepted forced codec mode")
	}

	// Dual-path guests accept both forced modes.
	dual := newSchedABI(t, "rr", sched.ABICodec, wabi.Env{})
	if err := dual.SetABIMode(sched.ABIZeroCopy); err != nil {
		t.Fatal(err)
	}
}
