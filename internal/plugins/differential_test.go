package plugins

import (
	"errors"
	"math"
	"math/rand"
	"strings"
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

// diffPolicy is the fuel budget the differentials run guests under.
var diffPolicy = wabi.Policy{Fuel: 50_000_000}

// decider is one call path to a guest's decisions: the pooled scheduler
// every slice runs, or codecSched.
type decider interface {
	Schedule(req *sched.Request) (*sched.Response, error)
	LastFuelUsed() int64
}

// builtin compiles the built-in scheduler guest name.
func builtin(t testing.TB, name string) *wabi.Module {
	t.Helper()
	mod, err := CompileScheduler(name)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return mod
}

// zcSched hosts a built-in guest as every plugin slice is hosted. rr, pf and
// mt export the region ABI, so NewPoolScheduler puts it on the zero-copy path.
func zcSched(t testing.TB, name string) *sched.PoolScheduler {
	t.Helper()
	return poolSched(t, name, builtin(t, name), diffPolicy, wabi.Env{})
}

// codecSched runs the codec half of the scheduling ABI directly on one bare
// instance: encode the request, call "schedule", decode and validate the
// response. NewPoolScheduler puts every guest that exports the region ABI on
// the zero-copy path, so this is how a differential reaches the codec path
// of a dual-path guest.
type codecSched struct{ pl *wabi.Plugin }

func newCodecSched(t testing.TB, mod *wabi.Module, policy wabi.Policy) *codecSched {
	t.Helper()
	pl, err := wabi.NewPlugin(mod, policy, wabi.Env{})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	return &codecSched{pl: pl}
}

func (c *codecSched) Schedule(req *sched.Request) (*sched.Response, error) {
	out, err := c.pl.Call(sched.EntryPoint, sched.BinaryCodec{}.EncodeRequest(req))
	if err != nil {
		return nil, err
	}
	resp, err := sched.BinaryCodec{}.DecodeResponse(out)
	if err != nil {
		return nil, err
	}
	if err := resp.Validate(req); err != nil {
		return nil, &sched.BadOutputError{Kind: sched.BadOutputSemantic, Err: err}
	}
	return resp, nil
}

func (c *codecSched) LastFuelUsed() int64 { return c.pl.LastFuelUsed() }

// poolSched hosts mod the way every plugin slice is hosted: a PoolScheduler
// over a pool of one instance, which a call that traps discards.
func poolSched(t testing.TB, name string, mod *wabi.Module, policy wabi.Policy, env wabi.Env) *sched.PoolScheduler {
	t.Helper()
	ps, err := sched.NewPoolScheduler(name, wabi.NewPool(mod, policy, env, 1))
	if err != nil {
		t.Fatalf("host %s: %v", name, err)
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
			codec := newCodecSched(t, builtin(t, name), diffPolicy)
			zc := zcSched(t, name)
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
	guests := map[string]decider{
		"codec":    newCodecSched(t, builtin(t, "pf"), diffPolicy),
		"zerocopy": zcSched(t, "pf"),
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 500; trial++ {
		req := hostileRequest(rng, trial%65, uint64(trial))
		req.PRBBudget = 52
		want, err := native.Schedule(req)
		if err != nil {
			t.Fatalf("trial %d: native: %v", trial, err)
		}
		for path, g := range guests {
			got, err := g.Schedule(req)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, path, err)
			}
			if !allocsEqual(got.Allocs, want.Allocs) {
				t.Fatalf("trial %d (%d UEs, %s):\nplugin: %v\nnative: %v",
					trial, len(req.UEs), path, got.Allocs, want.Allocs)
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
			codec := newCodecSched(t, builtin(t, name), diffPolicy)
			zc := zcSched(t, name)
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
			// One live instance served every slot: its layout, negotiated
			// once, was rewritten in place (TestRegionNegotiationCachesLayout
			// pins the once).
			if ps := zc.Pool().Stats(); ps.Created != 1 || ps.Discards != 0 {
				t.Fatalf("pool %+v, want one instance and no discards", ps)
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
	codec := newCodecSched(t, mod, diffPolicy)
	zc := poolSched(t, "zc-scribble", mod, diffPolicy, wabi.Env{})
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
	zc, err := sched.NewPoolScheduler("pf", pool)
	if err != nil {
		t.Fatal(err)
	}

	const cells = 8
	var wg sync.WaitGroup
	errs := make(chan error, cells)
	for c := 0; c < cells; c++ {
		wg.Add(1)
		go func(cell int) {
			defer wg.Done()
			codec := newCodecSched(t, mod, diffPolicy)
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
// escape. The chaos guest around MT is clean before slot 200; from then on
// it traps after scribbling its response region, spins, or seals a corrupt
// count. It runs as the gNB runs it: pooled, so an instance that faulted is
// discarded. Every successful Schedule is bit-identical to an undisturbed
// reference, and every failure is the class the schedule predicts — never a
// plausible but wrong decision.
func TestZeroCopyChaosInterleavings(t *testing.T) {
	const seed, cleanBefore = 99, 200
	src, _ := ChaosWAT("mt", seed, cleanBefore)
	mod, err := wabi.CompileWAT(src)
	if err != nil {
		t.Fatal(err)
	}
	pool := wabi.NewPool(mod, wabi.Policy{Fuel: 100_000}, wabi.Env{}, 1)
	chaotic, err := sched.NewPoolScheduler("chaos-mt", pool)
	if err != nil {
		t.Fatal(err)
	}
	reference := zcSched(t, "mt")

	rng := rand.New(rand.NewSource(31))
	var clean, trapped, spun, rejected int
	for trial := 0; trial < 400; trial++ {
		req := hostileRequest(rng, rng.Intn(24), uint64(trial))
		want, err := reference.Schedule(req)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		got, err := chaotic.Schedule(req)
		if class, fault := wabi.ClassOf(err), ChaosFault(seed, cleanBefore, req.SliceID, req.Slot); class != fault {
			t.Fatalf("trial %d: outcome %v, schedule says %v (err=%v)", trial, class, fault, err)
		}
		if err == nil {
			clean++
			if !allocsEqual(got.Allocs, want.Allocs) {
				t.Fatalf("trial %d: chaos let a wrong decision through\ngot:  %v\nwant: %v",
					trial, got.Allocs, want.Allocs)
			}
			continue
		}
		switch wabi.ClassOf(err) {
		case wabi.FailTrap:
			trapped++
		case wabi.FailFuel:
			spun++
		case wabi.FailBadOutput:
			rejected++
			var bo *sched.BadOutputError
			if !errors.As(err, &bo) {
				t.Fatalf("trial %d: bad output without typed error: %v", trial, err)
			}
			if bo.Kind != sched.BadOutputOOB {
				t.Fatalf("trial %d: corrupted count classified %v, want oob", trial, bo.Kind)
			}
		}
	}
	if st := chaotic.Stats(); st.ZCCalls != st.Calls {
		t.Fatalf("chaos guest left the zero-copy path: %+v", st)
	}
	if clean == 0 || trapped == 0 || rejected == 0 {
		t.Fatalf("chaos schedule did not exercise all outcomes: clean=%d trapped=%d rejected=%d",
			clean, trapped, rejected)
	}
	// The trap scribbled the region and poisoned its instance: every
	// instance that trapped or spun was discarded, never handed a decision.
	if d := pool.Stats().Discards; d != uint64(trapped+spun) {
		t.Fatalf("discards = %d, want %d (trapped %d + spun %d)", d, trapped+spun, trapped, spun)
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
			ps := poolSched(t, tc.name, mod, wabi.Policy{Fuel: 1_000_000}, wabi.Env{})
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
	// GrowZCWAT with a guest global that makes each instance trap on its
	// second decision.
	src := strings.Replace(GrowZCWAT, `(func (export "schedule_zc") (result i32)
    (local $req i32) (local $resp i32)`, `(global $calls (mut i32) (i32.const 0))
  (func (export "schedule_zc") (result i32)
    (local $req i32) (local $resp i32)
    (global.set $calls (i32.add (global.get $calls) (i32.const 1)))
    (if (i32.eq (global.get $calls) (i32.const 2)) (then (unreachable)))`, 1)
	mod, err := wabi.CompileWAT(src)
	if err != nil {
		t.Fatal(err)
	}
	pool := wabi.NewPool(mod, wabi.Policy{Fuel: 1_000_000}, wabi.Env{}, 1)
	ps, err := sched.NewPoolScheduler("zc-grow", pool)
	if err != nil {
		t.Fatal(err)
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

	if _, err := ps.Schedule(req); wabi.ClassOf(err) != wabi.FailTrap { // call 2: trap, instance discarded
		t.Fatalf("second decision: want a trap, got %v", err)
	}
	if d := pool.Stats().Discards; d != 1 {
		t.Fatalf("discards = %d, want 1", d)
	}

	resp, err = ps.Schedule(req) // call 3: fresh instance, renegotiated regions
	if err != nil {
		t.Fatalf("replacement instance: %v", err)
	}
	if !allocsEqual(resp.Allocs, wantAllocs) {
		t.Fatalf("replacement allocs = %v, want %v", resp.Allocs, wantAllocs)
	}
}

// TestPoolSchedulerPicksPath pins how NewPoolScheduler resolves the call
// path from a guest's exports: zero-copy for every guest with the region ABI
// (the built-ins and zero-copy-only guests), the codec for a copy-only guest,
// and a refusal for a guest with neither entry.
func TestPoolSchedulerPicksPath(t *testing.T) {
	compile := func(src string) *wabi.Module {
		mod, err := wabi.CompileWAT(src)
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	cases := []struct {
		name     string
		mod      *wabi.Module
		zeroCopy bool
	}{
		{"rr", builtin(t, "rr"), true},
		{"pf", builtin(t, "pf"), true},
		{"mt", builtin(t, "mt"), true},
		{"copy-only", compile(BadOutputWAT), false},
		{"zc-only", compile(GrowZCWAT), true},
	}
	req := randomRequest(rand.New(rand.NewSource(3)), 4, 1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ps := poolSched(t, tc.name, tc.mod, wabi.Policy{Fuel: 1_000_000}, wabi.Env{})
			_, _ = ps.Schedule(req) // the copy-only guest's decision is bad output; the path is what counts
			if st := ps.Stats(); st.Calls != 1 || (st.ZCCalls == 1) != tc.zeroCopy {
				t.Fatalf("stats %+v, want zero-copy %v", st, tc.zeroCopy)
			}
		})
	}
	neither := compile(`(module (memory (export "memory") 1) (func (export "run") (result i32) (i32.const 0)))`)
	if _, err := sched.NewPoolScheduler("neither", wabi.NewPool(neither, wabi.Policy{}, wabi.Env{}, 1)); err == nil {
		t.Fatal("a guest with neither entry point was accepted")
	}
}
