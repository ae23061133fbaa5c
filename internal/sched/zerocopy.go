package sched

import (
	"fmt"
	"slices"

	"waran/internal/wabi"
	"waran/internal/wasm"
)

// Zero-copy scheduling ABI (the dApp-style real-time path).
//
// The serializing codecs pay an encode → input_read copy → guest copy →
// output_write copy → decode round trip on every intra-slice decision —
// per slice, per slot, per cell. The zero-copy ABI replaces it with two
// shared-memory windows negotiated once per sandbox instance
// (wabi.Plugin.Regions):
//
//   - the request region holds the slot context in the *same layout as the
//     binary codec* — a 20-byte header (sliceID u32 | slot u64 | prbBudget
//     u32 | nUE u32) followed by fixed-stride 24-byte UE records (id u32 |
//     mcs u32 | bitsPerPRB u32 | bufferBytes u32 | avgTput f64). The host
//     writes all of it in place before every call;
//
//   - the response region holds the allocation table (count u32, then
//     ueID u32 | prbs u32 records) which the guest writes in place.
//
// Sharing the binary layout means any guest's view of a request is
// bit-identical across both paths, which is what the differential harness
// (FuzzABIDifferential, TestDifferentialCorpus) pins down.
//
// The response region is untrusted: the host re-validates it with the same
// hardened rules as the serializing decode (absurd or out-of-region counts,
// overlapping allocations → typed *BadOutputError with the same kinds), and
// the allocation count word is poisoned before every call so a guest that
// never writes its table can only produce a structural rejection, never a
// stale decision.
const (
	// ZCEntryPoint is the entry a zero-copy-capable scheduler exports next
	// to (or instead of) the classic EntryPoint. Signature () -> i32; the
	// request is already in the request region when it runs, and the host
	// reads the response region when it returns 0.
	ZCEntryPoint = "schedule_zc"

	// ZCMaxUEs bounds the UE records the request region can hold — the same
	// 512-UE ceiling the built-in guests reserve buffer space for.
	ZCMaxUEs = 512
	// ZCMaxAllocs bounds the allocation table; one grant per UE is the most
	// a sane scheduler emits.
	ZCMaxAllocs = 512
)

// Region sizes derived from the shared binary layout.
const (
	// ZCRequestRegionLen = header + ZCMaxUEs fixed-stride records.
	ZCRequestRegionLen = uint32(binReqHeaderLen + ZCMaxUEs*binReqUELen)
	// ZCResponseRegionLen = count word + ZCMaxAllocs allocation records.
	ZCResponseRegionLen = uint32(4 + ZCMaxAllocs*binRespAllocLen)

	// zcRespPoison is written over the allocation count before every call.
	// It exceeds ZCMaxAllocs, so if the guest never seals its response the
	// host reads a guaranteed out-of-bounds claim instead of a stale table.
	zcRespPoison = 0xdead_beef
)

// ABIMode selects how a plugin scheduler exchanges requests and responses
// with its sandbox.
type ABIMode int

const (
	// ABIAuto uses the zero-copy path when the guest negotiates it and
	// falls back to the serializing codec for legacy guests.
	ABIAuto ABIMode = iota
	// ABICodec forces the serializing codec path (the differential tests'
	// reference).
	ABICodec
	// ABIZeroCopy requires the zero-copy path; construction fails if the
	// guest cannot negotiate it.
	ABIZeroCopy
)

// String implements fmt.Stringer.
func (m ABIMode) String() string {
	switch m {
	case ABICodec:
		return "codec"
	case ABIZeroCopy:
		return "zerocopy"
	default:
		return "auto"
	}
}

// resolveABI picks the call path for a plugin under the requested mode:
// zero-copy needs the region exports plus the dedicated entry point, the
// codec path needs the classic entry.
func resolveABI(name string, pl *wabi.Plugin, mode ABIMode) (zeroCopy bool, err error) {
	hasZC := pl.ZeroCopyCapable() && pl.HasEntry(ZCEntryPoint)
	switch {
	case hasZC && mode != ABICodec:
		return true, nil
	case mode == ABIZeroCopy:
		return false, fmt.Errorf("sched: plugin %q is not zero-copy capable (needs %q, %q and %q exports)",
			name, ZCEntryPoint, wabi.RegionRequestExport, wabi.RegionResponseExport)
	case !pl.HasEntry(EntryPoint):
		return false, fmt.Errorf("sched: plugin %q does not export %q with signature () -> i32", name, EntryPoint)
	}
	return false, nil
}

// zcWriteRequest writes the header and every UE record straight into the
// instance's request region. The write is unconditional: on both cell
// workloads of the benchmark every record differs from the previous slot's
// (buffer and running average move each slot), so a diff against a host-side
// copy never skipped one, and rewriting also means a guest that scribbles
// its own request region cannot see the scribble again.
func zcWriteRequest(mem *wasm.Memory, lay wabi.RegionLayout, req *Request) error {
	if len(req.UEs) > ZCMaxUEs {
		return fmt.Errorf("sched: zero-copy request with %d UEs exceeds region capacity %d", len(req.UEs), ZCMaxUEs)
	}
	var hdr [binReqHeaderLen]byte
	putBinReqHeader(hdr[:], req)
	if err := mem.Write(lay.ReqPtr, hdr[:]); err != nil {
		return fmt.Errorf("sched: zero-copy request header write: %w", err)
	}
	var rec [binReqUELen]byte
	off := lay.ReqPtr + binReqHeaderLen
	for i := range req.UEs {
		putBinReqUE(rec[:], &req.UEs[i])
		if err := mem.Write(off, rec[:]); err != nil {
			return fmt.Errorf("sched: zero-copy UE record %d write: %w", i, err)
		}
		off += binReqUELen
	}
	return nil
}

// zcReadResponse validates the untrusted response region and decodes it into
// resp.Allocs, mirroring BinaryCodec.DecodeResponse's hostile-input posture:
// an allocation count past the region bound is BadOutputOOB, two grants
// naming the same UE are BadOutputOverlap. Arithmetic is done in uint64 so a
// hostile count cannot overflow the bound computation.
func zcReadResponse(mem *wasm.Memory, lay wabi.RegionLayout, resp *Response) error {
	n, err := mem.ReadUint32(lay.RespPtr)
	if err != nil {
		return badOutputKind(BadOutputOOB, "sched: zero-copy response region unreadable: %v", err)
	}
	if n > ZCMaxAllocs || 4+uint64(n)*binRespAllocLen > uint64(lay.RespLen) {
		return badOutputKind(BadOutputOOB,
			"sched: zero-copy response claims %d allocations: allocation table out of bounds (region %d bytes, max %d allocations)",
			n, lay.RespLen, ZCMaxAllocs)
	}
	sc := getScratch()
	defer putScratch(sc)
	seen := sc.ids // UE ID -> index of the allocation that named it
	clear(seen)
	resp.Allocs = slices.Grow(resp.Allocs[:0], int(n))
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

// zcCall runs one scheduling decision over the zero-copy path: negotiate
// (or reuse) the instance's regions, write the request, poison the response
// count, invoke the entry, and validate + decode the response region into
// resp.
func zcCall(pl *wabi.Plugin, req *Request, resp *Response) error {
	rg, err := pl.Regions(ZCRequestRegionLen, ZCResponseRegionLen)
	if err != nil {
		return err
	}
	mem := pl.Instance().Memory()
	if err := zcWriteRequest(mem, rg.Layout, req); err != nil {
		return err
	}
	if err := mem.WriteUint32(rg.Layout.RespPtr, zcRespPoison); err != nil {
		return fmt.Errorf("sched: zero-copy response poison write: %w", err)
	}
	if _, err := pl.Call(ZCEntryPoint, nil); err != nil {
		return err
	}
	return zcReadResponse(mem, rg.Layout, resp)
}
