package sched

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"waran/internal/wabi"
	"waran/internal/wasm"
)

// TestIDIndexMatchesMap drives the index and a Go map with the same
// operations across resets, including more entries than Reset was told of
// (the table grows) and a multiplier that sends every ID to one slot.
func TestIDIndexMatchesMap(t *testing.T) {
	for _, mul := range []uint64{0, 1} {
		t.Run(fmt.Sprintf("mul=%d", mul), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(mul) + 1))
			x := &IDIndex{mul: mul}
			for round := 0; round < 200; round++ {
				hint, n := rng.Intn(40), rng.Intn(80)
				x.Reset(hint)
				ref := map[uint32]uint32{}
				id := func() uint32 { return uint32(rng.Intn(3*n/2 + 1)) }
				for i := 0; i < n; i++ {
					k, v := id(), rng.Uint32()
					got, dup := x.Add(k, v)
					want, had := ref[k]
					if !had {
						ref[k], want = v, v
					}
					if got != want || dup != had {
						t.Fatalf("round %d: Add(%d, %d) = %d, %v; want %d, %v", round, k, v, got, dup, want, had)
					}
				}
				for i := 0; i < n; i++ {
					k, v := id(), rng.Uint32()
					want, had := ref[k]
					if got, ok := x.Get(k); got != want || ok != had {
						t.Fatalf("round %d: Get(%d) = %d, %v; map has %d, %v", round, k, got, ok, want, had)
					}
					if old, ok := x.Swap(k, v); old != want || ok != had {
						t.Fatalf("round %d: Swap(%d) = %d, %v; want %d, %v", round, k, old, ok, want, had)
					}
					if had {
						ref[k] = v
					}
				}
				if x.n != len(ref) {
					t.Fatalf("round %d: %d entries, map %d", round, x.n, len(ref))
				}
				if 2*x.n > len(x.slots) {
					t.Fatalf("round %d: %d entries in %d slots", round, x.n, len(x.slots))
				}
			}
		})
	}
}

// TestIDIndexGenerationWrap: a slot stamped 2³²−1 resets ago would read as
// live once the counter wraps, unless the wrap clears the table.
func TestIDIndexGenerationWrap(t *testing.T) {
	x := &IDIndex{}
	x.Reset(4)
	x.Add(7, 70) // stamped with the first generation, 1
	x.Reset(4)
	x.Add(8, 80)
	x.gen = math.MaxUint32 - 1 // as if 2³²−3 more resets had left 7's slot alone
	x.Reset(4)
	x.Add(9, 90)
	if _, ok := x.Get(7); ok {
		t.Fatal("a stale entry reads as live before the wrap")
	}
	x.Reset(4) // the counter wraps here
	if x.gen != 1 {
		t.Fatalf("generation %d after the wrap, want 1", x.gen)
	}
	for _, id := range []uint32{7, 8, 9} {
		if v, ok := x.Get(id); ok {
			t.Fatalf("UE %d reads %d after the wrap", id, v)
		}
	}
	if v, dup := x.Add(7, 71); dup || v != 71 {
		t.Fatalf("Add after the wrap = %d, %v", v, dup)
	}
}

// TestIDIndexBoundedRetention: an outsized request's table leaves with the
// call, and the pooled scratch then serves a small Validate with nothing
// allocated.
func TestIDIndexBoundedRetention(t *testing.T) {
	big := &Request{PRBBudget: 1 << 16}
	for i := 0; i < 1<<16; i++ {
		big.UEs = append(big.UEs, UEInfo{ID: uint32(i)})
	}
	resp := &Response{Allocs: []Allocation{{UEID: 1 << 15, PRBs: 1}}}
	if err := resp.Validate(big); err != nil {
		t.Fatal(err)
	}
	var held []*scratch
	for i := 0; i < 8; i++ {
		sc := getScratch()
		if n := len(sc.ids.slots); n > maxRetainedSlots {
			t.Fatalf("a pooled index kept %d slots, cap %d", n, maxRetainedSlots)
		}
		held = append(held, sc)
	}
	for _, sc := range held {
		putScratch(sc)
	}

	// A cell that shrinks gives its table back too.
	x := &IDIndex{}
	x.Reset(1 << 16)
	x.Reset(3)
	if len(x.slots) > maxRetainedSlots {
		t.Fatalf("Reset(3) kept %d slots after Reset(1<<16), cap %d", len(x.slots), maxRetainedSlots)
	}

	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	small := &Request{PRBBudget: 10, UEs: []UEInfo{{ID: 1}, {ID: 2}, {ID: 3}}}
	grant := &Response{Allocs: []Allocation{{UEID: 3, PRBs: 4}, {UEID: 1, PRBs: 6}}}
	if err := grant.Validate(small); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = grant.Validate(small) }); n != 0 {
		t.Fatalf("a 3-UE Validate allocates %.1f times", n)
	}
}

// refZCReadResponse is zcReadResponse over a Go map, the implementation the
// index replaced.
func refZCReadResponse(mem *wasm.Memory, lay wabi.RegionLayout, resp *Response) error {
	n, err := mem.ReadUint32(lay.RespPtr)
	if err != nil {
		return badOutputKind(BadOutputOOB, "sched: zero-copy response region unreadable: %v", err)
	}
	if n > ZCMaxAllocs || 4+uint64(n)*binRespAllocLen > uint64(lay.RespLen) {
		return badOutputKind(BadOutputOOB,
			"sched: zero-copy response claims %d allocations: allocation table out of bounds (region %d bytes, max %d allocations)",
			n, lay.RespLen, ZCMaxAllocs)
	}
	seen := make(map[uint32]uint32)
	resp.Allocs = resp.Allocs[:0]
	off := lay.RespPtr + 4
	for i := uint32(0); i < n; i++ {
		id, err1 := mem.ReadUint32(off)
		prbs, err2 := mem.ReadUint32(off + 4)
		if err1 != nil || err2 != nil {
			return badOutputKind(BadOutputOOB, "sched: zero-copy response record %d unreadable", i)
		}
		if first, dup := seen[id]; dup {
			return badOutputKind(BadOutputOverlap, "sched: zero-copy response allocations %d and %d overlap on UE %d", first, i, id)
		}
		seen[id] = i
		resp.Allocs = append(resp.Allocs, Allocation{UEID: id, PRBs: prbs})
		off += binRespAllocLen
	}
	return nil
}

// validateCase decodes a fuzz input: reqIDs is the request's UE IDs, four
// bytes each (at most ZCMaxUEs of them); grants is 9-byte records — a
// selector, an ID and a PRB count — where an even selector names the
// request's UE at ID modulo the UE count, so grants mostly hit known UEs.
func validateCase(reqIDs, grants []byte, budget uint32) (*Request, *Response) {
	req := &Request{SliceID: 1, PRBBudget: budget}
	for len(reqIDs) >= 4 && len(req.UEs) < ZCMaxUEs {
		req.UEs = append(req.UEs, UEInfo{ID: binary.LittleEndian.Uint32(reqIDs)})
		reqIDs = reqIDs[4:]
	}
	resp := &Response{}
	for len(grants) >= 9 && len(resp.Allocs) < ZCMaxAllocs {
		id := binary.LittleEndian.Uint32(grants[1:])
		if grants[0]%2 == 0 && len(req.UEs) > 0 {
			id = req.UEs[id%uint32(len(req.UEs))].ID
		}
		resp.Allocs = append(resp.Allocs, Allocation{UEID: id, PRBs: binary.LittleEndian.Uint32(grants[5:])})
		grants = grants[9:]
	}
	return req, resp
}

// idBytes and grantBytes build seed inputs in validateCase's encoding; a
// grant names a raw UE ID.
func idBytes(ids ...uint32) []byte {
	b := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint32(b, id)
	}
	return b
}

func grantBytes(allocs ...Allocation) []byte {
	var b []byte
	for _, a := range allocs {
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint32(b, a.UEID)
		b = binary.LittleEndian.AppendUint32(b, a.PRBs)
	}
	return b
}

// seqIDs is n IDs from first, step apart.
func seqIDs(n int, first, step uint32) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = first + uint32(i)*step
	}
	return ids
}

// oneEach grants prbs to every ID.
func oneEach(ids []uint32, prbs uint32) []Allocation {
	var out []Allocation
	for _, id := range ids {
		out = append(out, Allocation{UEID: id, PRBs: prbs})
	}
	return out
}

// FuzzValidateMatchesMap: Validate and the zero-copy region read, both on
// the ID index, return the same verdict, error class and error text as
// map-based references (refValidate in reference_test.go,
// refZCReadResponse above).
func FuzzValidateMatchesMap(f *testing.F) {
	max := uint32(math.MaxUint32)
	for _, n := range []int{0, 1, 3, 32, 512} {
		ids := seqIDs(n, 1, 1)
		f.Add(idBytes(ids...), grantBytes(oneEach(ids, 1)...), uint32(n))
	}
	f.Add(idBytes(5, 5, 6), grantBytes(Allocation{5, 2}, Allocation{6, 1}), uint32(3))     // duplicate request IDs
	f.Add(idBytes(1, 2, 3), grantBytes(Allocation{2, 1}, Allocation{99, 1}), uint32(10))   // unknown UE
	f.Add(idBytes(1, 2, 3), grantBytes(Allocation{3, 1}, Allocation{3, 1}), uint32(10))    // duplicate grant
	f.Add(idBytes(1, 2, 3), grantBytes(Allocation{1, 6}, Allocation{2, 5}), uint32(10))    // over budget
	f.Add(idBytes(1, 2), grantBytes(Allocation{1, max}, Allocation{2, max}), uint32(max))  // over budget past 32 bits
	f.Add(idBytes(0, max, 7), grantBytes(Allocation{max, 1}, Allocation{0, 2}), uint32(3)) // IDs 0 and MaxUint32
	f.Add(idBytes(0, max), grantBytes(Allocation{max, 1}, Allocation{max, 1}), uint32(9))  // MaxUint32 twice
	// IDs that collide modulo the table size: 8 slots for 3 UEs, 1024 for 512.
	f.Add(idBytes(seqIDs(3, 8, 8)...), grantBytes(Allocation{16, 1}, Allocation{24, 1}, Allocation{32, 1}), uint32(3))
	wide := seqIDs(512, 0, 1024)
	f.Add(idBytes(wide...), grantBytes(oneEach(wide, 0)...), uint32(0))
	f.Add(idBytes(wide...), grantBytes(append(oneEach(wide[:300], 0), Allocation{wide[7], 0})...), uint32(0))

	f.Fuzz(func(t *testing.T, reqIDs, grants []byte, budget uint32) {
		req, resp := validateCase(reqIDs, grants, budget)
		got, want := resp.Validate(req), refValidate(resp, req)
		if (got == nil) != (want == nil) || got != nil && (got.Error() != want.Error() || !errors.Is(got, ErrInvalidResponse)) {
			t.Fatalf("Validate = %v, map = %v", got, want)
		}

		mem, rg := newTestRegions()
		region := binary.LittleEndian.AppendUint32(nil, uint32(len(resp.Allocs)))
		for _, a := range resp.Allocs {
			region = binary.LittleEndian.AppendUint32(region, a.UEID)
			region = binary.LittleEndian.AppendUint32(region, a.PRBs)
		}
		writeResponseRegion(t, mem, rg, region)
		zc, ref := &Response{}, &Response{}
		got, want = zcReadResponse(mem, rg.Layout, zc), refZCReadResponse(mem, rg.Layout, ref)
		if (got == nil) != (want == nil) {
			t.Fatalf("zero-copy read = %v, map = %v", got, want)
		}
		if got != nil {
			gk, gok := kindOf(t, got)
			wk, _ := kindOf(t, want)
			if !gok || gk != wk || got.Error() != want.Error() {
				t.Fatalf("zero-copy read = %v (%v), map = %v (%v)", got, gk, want, wk)
			}
		} else if !slices.Equal(zc.Allocs, ref.Allocs) {
			t.Fatalf("zero-copy read %+v, map %+v", zc.Allocs, ref.Allocs)
		}
	})
}
