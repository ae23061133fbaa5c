package wabi

import (
	"errors"
	"fmt"

	"waran/internal/wasm"
)

// Shared-memory region negotiation: the zero-copy plugin ABI.
//
// A zero-copy-capable plugin exports, in addition to its entry points, two
// pointer functions:
//
//	(func (export "zc_req_region")  (result i32))  ;; request region base
//	(func (export "zc_resp_region") (result i32))  ;; response region base
//
// The host calls them once per instance ("negotiation") and then exchanges
// scheduling state through the returned linear-memory windows instead of the
// input_read/output_write copy ABI: the request region is written in place
// by the layer above before every call, the guest reads it directly, writes
// its response table directly, and the host validates the response region
// with the same hardened rules as the serializing decode.
//
// Contract: the returned pointers must be stable for the lifetime of the
// instance, and the guest must reserve at least the host-requested number of
// bytes at each pointer (growing memory during negotiation is allowed — this
// is how allocator-backed guests carve regions from the heap). The two
// regions must not overlap. A fresh instance of the same module may
// legitimately return different pointers (its heap starts over), which is
// why every cached RegionLayout dies with its instance: Reset, per-call
// fresh instantiation and Pool.Put's poisoned-instance discard all
// invalidate, forcing re-negotiation on the replacement.
const (
	RegionRequestExport  = "zc_req_region"
	RegionResponseExport = "zc_resp_region"
)

// RegionLayout is one instance's negotiated shared-memory windows.
type RegionLayout struct {
	ReqPtr  uint32 `json:"req_ptr"`
	ReqLen  uint32 `json:"req_len"`
	RespPtr uint32 `json:"resp_ptr"`
	RespLen uint32 `json:"resp_len"`
}

// Regions is the per-instance zero-copy state: the negotiated layout.
// Regions is owned by exactly one Plugin and shares its single-goroutine
// discipline.
type Regions struct {
	Layout RegionLayout
}

// ZeroCopyCapable reports whether the plugin exports both region pointer
// functions with the () -> i32 signature.
func (p *Plugin) ZeroCopyCapable() bool {
	return p.hasPtrExport(RegionRequestExport) && p.hasPtrExport(RegionResponseExport)
}

func (p *Plugin) hasPtrExport(name string) bool {
	ft, ok := p.inst.FuncType(name)
	if !ok {
		return false
	}
	return len(ft.Params) == 0 && len(ft.Results) == 1 && ft.Results[0] == wasm.ValI32
}

// Regions returns the current instance's negotiated zero-copy state,
// negotiating on first use. reqLen/respLen are the window sizes the host
// requires; the cached state is only valid for those exact sizes.
func (p *Plugin) Regions(reqLen, respLen uint32) (*Regions, error) {
	if p.zc != nil {
		if p.zc.Layout.ReqLen != reqLen || p.zc.Layout.RespLen != respLen {
			return nil, fmt.Errorf("wabi: region size mismatch: negotiated %d/%d bytes, caller wants %d/%d",
				p.zc.Layout.ReqLen, p.zc.Layout.RespLen, reqLen, respLen)
		}
		return p.zc, nil
	}
	reqPtr, err := p.callRegionExport(RegionRequestExport)
	if err != nil {
		return nil, err
	}
	respPtr, err := p.callRegionExport(RegionResponseExport)
	if err != nil {
		return nil, err
	}
	lay := RegionLayout{ReqPtr: reqPtr, ReqLen: reqLen, RespPtr: respPtr, RespLen: respLen}
	if err := validateRegionLayout(lay, p.inst.Memory()); err != nil {
		return nil, err
	}
	p.zc = &Regions{Layout: lay}
	p.zcNegotiations++
	return p.zc, nil
}

// RegionNegotiations counts how many times this Plugin negotiated a region
// layout — one per instance that served zero-copy calls. Tests use it to
// pin the "fresh instance re-negotiates" contract.
func (p *Plugin) RegionNegotiations() uint64 { return p.zcNegotiations }

// callRegionExport invokes one pointer export under the plugin's fuel
// policy. A trap during negotiation leaves the instance in an unknown state,
// so it is classified and poisons the instance like any mid-call abort.
func (p *Plugin) callRegionExport(name string) (uint32, error) {
	if !p.hasPtrExport(name) {
		return 0, fmt.Errorf("wabi: plugin does not export %q with signature () -> i32: not zero-copy capable", name)
	}
	if p.policy.Fuel > 0 {
		p.inst.SetFuel(p.policy.Fuel)
	}
	res, err := p.inst.Call(name)
	if err != nil {
		p.faults++
		var trap *wasm.Trap
		if errors.As(err, &trap) {
			ce := &CallError{Entry: name, Trap: trap}
			p.lastClass = ce.FailureClass()
			return 0, ce
		}
		p.lastClass = FailUnknown
		return 0, err
	}
	return uint32(res[0]), nil
}

// validateRegionLayout checks both windows fit in the instance's current
// memory (after the guest had its chance to grow during negotiation) and do
// not overlap each other — the host writes the request window while the
// guest owns the response window, so an overlap would let a hostile pointer
// alias the two.
func validateRegionLayout(lay RegionLayout, mem *wasm.Memory) error {
	size := uint64(mem.Len())
	reqEnd := uint64(lay.ReqPtr) + uint64(lay.ReqLen)
	respEnd := uint64(lay.RespPtr) + uint64(lay.RespLen)
	if reqEnd > size {
		return fmt.Errorf("wabi: negotiated request region [%d, %d) exceeds memory size %d", lay.ReqPtr, reqEnd, size)
	}
	if respEnd > size {
		return fmt.Errorf("wabi: negotiated response region [%d, %d) exceeds memory size %d", lay.RespPtr, respEnd, size)
	}
	if uint64(lay.ReqPtr) < respEnd && uint64(lay.RespPtr) < reqEnd {
		return fmt.Errorf("wabi: negotiated regions overlap: request [%d, %d) vs response [%d, %d)",
			lay.ReqPtr, reqEnd, lay.RespPtr, respEnd)
	}
	return nil
}

// invalidateRegions drops the cached layout. Called whenever the
// underlying instance is replaced (Reset, fresh-instance calls) or discarded
// (Pool.Put of a poisoned instance): the replacement's heap starts over, so
// reusing the old offsets would read and write the wrong memory.
func (p *Plugin) invalidateRegions() { p.zc = nil }

// chaosScribbleRegions simulates a guest that trapped midway through writing
// its response: the first half of the response region (count word included)
// is overwritten with a recognizable garbage pattern. Validation above must
// reject anything read from it.
func (p *Plugin) chaosScribbleRegions() {
	rg := p.zc
	if rg == nil {
		return
	}
	n := rg.Layout.RespLen / 2
	if n == 0 {
		n = rg.Layout.RespLen
	}
	junk := make([]byte, n)
	for i := range junk {
		junk[i] = 0xa5
	}
	// Best effort: the region was validated at negotiation, so this cannot
	// fail unless the instance is already broken.
	_ = p.inst.Memory().Write(rg.Layout.RespPtr, junk)
}

// chaosCorruptRegions is the zero-copy analogue of corruptOutput: the call
// completed, but the allocation count is replaced with an absurd claim so
// only the hardened region validation above can catch the lie.
func (p *Plugin) chaosCorruptRegions() {
	rg := p.zc
	if rg == nil {
		return
	}
	_ = p.inst.Memory().WriteUint32(rg.Layout.RespPtr, 0xffff_ffff)
}
