package wabi

import (
	"strings"
	"testing"

	"waran/internal/wasm"
)

// zcEchoWAT is a minimal zero-copy-capable guest with statically placed
// regions: it copies the first 4 bytes of its request region into its
// response region when "poke" runs. Its second poke dies midway through the
// response: it fills the first 64 bytes with 0xa5 and traps.
const zcEchoWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (global $pokes (mut i32) (i32.const 0))
  (func (export "zc_req_region") (result i32) (i32.const 1024))
  (func (export "zc_resp_region") (result i32) (i32.const 4096))
  (func (export "poke") (result i32)
    (global.set $pokes (i32.add (global.get $pokes) (i32.const 1)))
    (if (i32.eq (global.get $pokes) (i32.const 2))
      (then
        (memory.fill (i32.const 4096) (i32.const 0xa5) (i32.const 64))
        (unreachable)))
    (i32.store (i32.const 4096) (i32.load (i32.const 1024)))
    (i32.const 0))
)`

// zcGrowWAT negotiates regions from memory grown on first use, the way an
// allocator-backed guest would. A fresh instance starts back at one page,
// so any cached layout from a previous instance points past the end of the
// replacement's memory. Each instance traps on its second poke.
const zcGrowWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1 4)
  (global $base (mut i32) (i32.const 0))
  (global $pokes (mut i32) (i32.const 0))
  (func $alloc (result i32)
    (if (i32.eqz (global.get $base))
      (then
        (global.set $base
          (i32.mul (memory.grow (i32.const 1)) (i32.const 65536)))))
    (global.get $base))
  (func (export "zc_req_region") (result i32) (call $alloc))
  (func (export "zc_resp_region") (result i32)
    (i32.add (call $alloc) (i32.const 4096)))
  (func (export "poke") (result i32)
    (global.set $pokes (i32.add (global.get $pokes) (i32.const 1)))
    (if (i32.eq (global.get $pokes) (i32.const 2))
      (then (unreachable)))
    (i32.store (i32.add (call $alloc) (i32.const 4096))
      (i32.load (call $alloc)))
    (i32.const 0))
)`

// zcOverlapWAT returns regions that alias each other.
const zcOverlapWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (func (export "zc_req_region") (result i32) (i32.const 1024))
  (func (export "zc_resp_region") (result i32) (i32.const 1040))
)`

// zcTrapWAT traps during negotiation itself.
const zcTrapWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (func (export "zc_req_region") (result i32) (unreachable))
  (func (export "zc_resp_region") (result i32) (i32.const 4096))
)`

func TestZeroCopyCapable(t *testing.T) {
	if p := mustPlugin(t, zcEchoWAT, Policy{}, Env{}); !p.ZeroCopyCapable() {
		t.Fatal("guest with both region exports not reported capable")
	}
	if p := mustPlugin(t, echoWAT, Policy{}, Env{}); p.ZeroCopyCapable() {
		t.Fatal("legacy guest without region exports reported capable")
	}
	// Wrong signature must not count: a region export taking a parameter.
	src := `(module
	  (import "waran" "output_write" (func $output_write (param i32 i32)))
	  (memory (export "memory") 1)
	  (func (export "zc_req_region") (param i32) (result i32) (i32.const 1024))
	  (func (export "zc_resp_region") (result i32) (i32.const 4096))
	)`
	if p := mustPlugin(t, src, Policy{}, Env{}); p.ZeroCopyCapable() {
		t.Fatal("guest with mis-typed region export reported capable")
	}
}

func TestRegionNegotiationCachesLayout(t *testing.T) {
	p := mustPlugin(t, zcEchoWAT, Policy{Fuel: 1_000_000}, Env{})
	rg, err := p.Regions(256, 128)
	if err != nil {
		t.Fatal(err)
	}
	want := RegionLayout{ReqPtr: 1024, ReqLen: 256, RespPtr: 4096, RespLen: 128}
	if rg.Layout != want {
		t.Fatalf("layout = %+v, want %+v", rg.Layout, want)
	}
	again, err := p.Regions(256, 128)
	if err != nil {
		t.Fatal(err)
	}
	if again != rg {
		t.Fatal("second Regions call did not return the cached state")
	}
	// A caller demanding different window sizes must not silently reuse the
	// old negotiation.
	if _, err := p.Regions(512, 128); err == nil {
		t.Fatal("size mismatch against cached layout accepted")
	}
}

func TestRegionNegotiationRejectsBadLayouts(t *testing.T) {
	t.Run("overlap", func(t *testing.T) {
		p := mustPlugin(t, zcOverlapWAT, Policy{}, Env{})
		if _, err := p.Regions(256, 128); err == nil || !strings.Contains(err.Error(), "overlap") {
			t.Fatalf("overlapping regions accepted (err=%v)", err)
		}
	})
	t.Run("out of bounds", func(t *testing.T) {
		p := mustPlugin(t, zcEchoWAT, Policy{}, Env{})
		// One page of memory: a request window of 64 KiB starting at 1024
		// runs past the end.
		if _, err := p.Regions(65536, 128); err == nil || !strings.Contains(err.Error(), "exceeds memory") {
			t.Fatalf("out-of-bounds request region accepted (err=%v)", err)
		}
	})
	t.Run("missing export", func(t *testing.T) {
		p := mustPlugin(t, echoWAT, Policy{}, Env{})
		if _, err := p.Regions(256, 128); err == nil {
			t.Fatal("negotiation with a legacy guest succeeded")
		}
	})
}

func TestRegionNegotiationTrapPoisons(t *testing.T) {
	p := mustPlugin(t, zcTrapWAT, Policy{Fuel: 1_000_000}, Env{})
	if _, err := p.Regions(256, 128); err == nil {
		t.Fatal("negotiation with a trapping guest succeeded")
	}
	if !p.Poisoned() {
		t.Fatal("trap during negotiation did not poison the instance")
	}
}

func TestValidateRegionLayoutUnits(t *testing.T) {
	mem := wasm.NewMemory(1, 1) // 65536 bytes
	cases := []struct {
		name string
		lay  RegionLayout
		ok   bool
	}{
		{"disjoint", RegionLayout{ReqPtr: 0, ReqLen: 100, RespPtr: 200, RespLen: 100}, true},
		{"adjacent", RegionLayout{ReqPtr: 0, ReqLen: 100, RespPtr: 100, RespLen: 100}, true},
		{"resp before req", RegionLayout{ReqPtr: 1000, ReqLen: 100, RespPtr: 0, RespLen: 100}, true},
		{"overlap head", RegionLayout{ReqPtr: 0, ReqLen: 101, RespPtr: 100, RespLen: 100}, false},
		{"resp inside req", RegionLayout{ReqPtr: 0, ReqLen: 1000, RespPtr: 10, RespLen: 10}, false},
		{"req oob", RegionLayout{ReqPtr: 65500, ReqLen: 100, RespPtr: 0, RespLen: 100}, false},
		{"resp oob", RegionLayout{ReqPtr: 0, ReqLen: 100, RespPtr: 65535, RespLen: 2}, false},
		{"oob via overflow", RegionLayout{ReqPtr: 0xffff_ff00, ReqLen: 0x200, RespPtr: 0, RespLen: 100}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateRegionLayout(tc.lay, mem)
			if (err == nil) != tc.ok {
				t.Fatalf("validate(%+v) err = %v, want ok=%v", tc.lay, err, tc.ok)
			}
		})
	}
}

// TestPoolZeroCopyTrapThenReuse is the pool-level regression for the
// stale-layout hazard: instance serves zero-copy traffic, traps, is
// discarded by Put, and the replacement instance must renegotiate its
// regions from scratch rather than inherit the poisoned predecessor's
// layout. With a grow-based guest the stale layout would not even be
// mappable on the one-page replacement.
func TestPoolZeroCopyTrapThenReuse(t *testing.T) {
	mod, err := CompileWAT(zcGrowWAT)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(mod, Policy{Fuel: 1_000_000}, Env{}, 1)

	zcRound := func(pl *Plugin, wantWord uint32) error {
		rg, err := pl.Regions(256, 128)
		if err != nil {
			return err
		}
		mem := pl.Instance().Memory()
		if err := mem.WriteUint32(rg.Layout.ReqPtr, wantWord); err != nil {
			return err
		}
		if _, err := pl.Call("poke", nil); err != nil {
			return err
		}
		got, err := mem.ReadUint32(rg.Layout.RespPtr)
		if err != nil {
			return err
		}
		if got != wantWord {
			t.Fatalf("guest echoed %#x, want %#x", got, wantWord)
		}
		return nil
	}

	// Call 1: clean.
	pl, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if err := zcRound(pl, 0x1111); err != nil {
		t.Fatal(err)
	}
	pool.Put(pl)

	// Call 2: same recycled instance, which traps on its second poke.
	pl, err = pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if pl.zc == nil {
		t.Fatal("recycled instance lost its cached layout")
	}
	if err := zcRound(pl, 0x2222); err == nil {
		t.Fatal("second poke did not trap")
	}
	if !pl.Poisoned() {
		t.Fatal("trapped instance not poisoned")
	}
	pool.Put(pl) // discards, invalidates regions
	if d := pool.Stats().Discards; d != 1 {
		t.Fatalf("discards = %d, want 1", d)
	}
	if pl.zc != nil {
		t.Fatal("poisoned discard left a cached region layout on the wrapper")
	}

	// Call 3: replacement instance. Must renegotiate (grow again) and serve
	// a correct decision; stale 65536-based pointers on the fresh one-page
	// memory would make zcRound's writes fail.
	pl, err = pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if pl.zc != nil {
		t.Fatal("fresh wrapper carries a negotiated layout")
	}
	if err := zcRound(pl, 0x3333); err != nil {
		t.Fatalf("replacement instance zero-copy round: %v", err)
	}
	if pl.zc == nil {
		t.Fatal("replacement instance did not negotiate its layout")
	}
	pool.Put(pl)
}

// TestChaosScribbleCoversResponseRegion: a guest that traps midway through
// writing its response leaves the half-written region in memory — the
// sandbox rolls nothing back — so the host must never read a trapped call's
// region, and the instance is poisoned.
func TestChaosScribbleCoversResponseRegion(t *testing.T) {
	p := mustPlugin(t, zcEchoWAT, Policy{Fuel: 1_000_000}, Env{})
	rg, err := p.Regions(256, 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Call("poke", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Call("poke", nil); ClassOf(err) != FailTrap {
		t.Fatalf("second poke: want a trap, got %v", err)
	}
	if !p.Poisoned() {
		t.Fatal("trapped instance not poisoned")
	}
	head, err := p.Instance().Memory().Read(rg.Layout.RespPtr, rg.Layout.RespLen/2)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range head {
		if b != 0xa5 {
			t.Fatalf("response region byte %d = %#x, want scribble 0xa5", i, b)
		}
	}
}
