// Package ric implements WA-RAN's near-Real-Time RAN Intelligent
// Controller (§4B of the paper): xApps hosted as Wasm plugins, RIC host
// functions exposed to them (inter-xApp messaging), communication plugins
// that wrap the E2-lite wire protocol on both sides, and the gNB-side E2
// agent.
package ric

import (
	"fmt"
	"sync"

	"waran/internal/e2"
	"waran/internal/guard"
	"waran/internal/wabi"
	"waran/internal/wasm"
)

// XAppEntry is the export every xApp plugin must provide: it receives an
// encoded e2 indication as call input and returns an encoded control list.
const XAppEntry = "on_indication"

// XApp is one sandboxed control application.
type XApp struct {
	Name string
	// pool hosts the xApp's one sandbox instance. It is one wide because the
	// messaging xApps keep state in guest globals; one RIC serves several E2
	// associations concurrently, so dispatches queue for the instance, and
	// one that trapped or ran out of fuel is discarded, never called again.
	pool *wabi.Pool

	// breaker is the xApp's guard-style circuit and its one give-up rule: a
	// stalling or faulting xApp trips it open and is skipped (at zero
	// dispatch cost) until its probes succeed again, so one bad xApp cannot
	// back up the fan-in.
	breaker *guard.Breaker

	// mu guards the fields below for readers and for host calls made from
	// inside a sandbox call.
	mu          sync.Mutex
	mailbox     [][]byte
	totalFaults uint64
	invocations uint64
	skipped     uint64
}

// XAppStats is the flat snapshot of an xApp's invocation accounting.
type XAppStats struct {
	Invocations uint64 `json:"invocations"`
	Faults      uint64 `json:"faults"`
	// Skipped counts dispatches bypassed while the xApp's breaker was open.
	Skipped uint64 `json:"skipped"`
	// Deprecated: always false; the breaker is the one give-up rule. Kept
	// because bench/ reads it.
	Disabled bool `json:"disabled"`
	// BreakerState is the guard breaker state label.
	BreakerState string `json:"breaker_state"`
}

// Stats returns invocation and fault counters.
func (x *XApp) Stats() XAppStats {
	x.mu.Lock()
	s := XAppStats{Invocations: x.invocations, Faults: x.totalFaults, Skipped: x.skipped}
	x.mu.Unlock()
	s.BreakerState = x.breaker.State().String()
	return s
}

// Breaker exposes the xApp's circuit breaker.
func (x *XApp) Breaker() *guard.Breaker { return x.breaker }

// Pool exposes the pool hosting the xApp's sandbox.
func (x *XApp) Pool() *wabi.Pool { return x.pool }

// deliver appends a message to the xApp's mailbox (inter-xApp messaging).
func (x *XApp) deliver(msg []byte) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.mailbox) < 1024 { // drop on overload rather than grow unbounded
		x.mailbox = append(x.mailbox, msg)
	}
}

// popMail removes and returns the oldest mailbox entry, or nil.
func (x *XApp) popMail() []byte {
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.mailbox) == 0 {
		return nil
	}
	m := x.mailbox[0]
	x.mailbox = x.mailbox[1:]
	return m
}

// hostFuncs builds the "ric" import namespace for an xApp: the well-defined
// host functions the paper says the RIC provides (messaging between xApps
// and diagnostics).
func (r *RIC) hostFuncs(self *XApp) map[string]*wasm.HostFunc {
	i32 := wasm.ValI32
	return map[string]*wasm.HostFunc{
		// xapp_send(name_ptr, name_len, msg_ptr, msg_len) -> i32 (1 ok, 0 unknown dst)
		"xapp_send": {
			Name: "xapp_send",
			Type: wasm.FuncType{Params: []wasm.ValType{i32, i32, i32, i32}, Results: []wasm.ValType{i32}},
			Fn: func(ctx *wasm.CallContext, args []uint64) ([]uint64, error) {
				name, err := ctx.Memory().Read(uint32(args[0]), uint32(args[1]))
				if err != nil {
					return nil, err
				}
				msg, err := ctx.Memory().Read(uint32(args[2]), uint32(args[3]))
				if err != nil {
					return nil, err
				}
				dst, ok := r.XApp(string(name))
				if !ok {
					return []uint64{0}, nil
				}
				dst.deliver(msg)
				return []uint64{1}, nil
			},
		},
		// xapp_recv(dst_ptr, cap) -> i32 bytes copied (0 = empty mailbox)
		"xapp_recv": {
			Name: "xapp_recv",
			Type: wasm.FuncType{Params: []wasm.ValType{i32, i32}, Results: []wasm.ValType{i32}},
			Fn: func(ctx *wasm.CallContext, args []uint64) ([]uint64, error) {
				m := self.popMail()
				if m == nil {
					return []uint64{0}, nil
				}
				if uint32(len(m)) > uint32(args[1]) {
					m = m[:uint32(args[1])]
				}
				if err := ctx.Memory().Write(uint32(args[0]), m); err != nil {
					return nil, err
				}
				return []uint64{uint64(uint32(len(m)))}, nil
			},
		},
	}
}

// invoke runs the xApp on an encoded indication, appending its requested
// control actions to dst. Faults are contained and counted and leave dst as
// it was; an xApp whose breaker is open appends nothing.
func (x *XApp) invoke(r *RIC, indication []byte, dst []e2.ControlRequest) ([]e2.ControlRequest, error) {
	dst, err := x.call(indication, dst)
	if err != nil {
		if r.cfg.OnFault != nil {
			r.cfg.OnFault(x.Name, err)
		}
		return dst, fmt.Errorf("ric: xApp %q: %w", x.Name, err)
	}
	return dst, nil
}

// call is one dispatch decision. The breaker gate, the sandbox call, the
// decoding of its output onto dst and the breaker's record of its outcome
// all happen while the instance is checked out: the output is the
// instance's own buffer until its next call, and a dispatch that queued
// behind the calls that tripped the breaker sees it open and is skipped. A
// replacement instance that fails to instantiate is a fault like any other.
func (x *XApp) call(indication []byte, dst []e2.ControlRequest) ([]e2.ControlRequest, error) {
	pl, err := x.pool.Get()
	if err == nil {
		defer x.pool.Put(pl)
	}
	// An open breaker skips the dispatch outright: the stalled xApp costs
	// the fan-in nothing until a half-open probe proves it healthy again.
	run := x.breaker.Allow()
	x.mu.Lock()
	if run {
		x.invocations++
	} else {
		x.skipped++
	}
	x.mu.Unlock()
	if !run {
		return dst, nil
	}
	if err == nil {
		var out []byte
		if out, err = pl.Call(XAppEntry, indication); err == nil {
			dst, err = e2.DecodeControlListAppend(dst, out)
		}
	}
	x.breaker.Record(wabi.ClassOf(err))
	if err != nil {
		x.mu.Lock()
		x.totalFaults++
		x.mu.Unlock()
	}
	return dst, err
}
