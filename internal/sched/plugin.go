package sched

import (
	"fmt"
	"time"

	"waran/internal/obs"
	"waran/internal/wabi"
	"waran/internal/wasm"
)

// EntryPoint is the exported function name intra-slice scheduler plugins
// must provide.
const EntryPoint = "schedule"

// PluginScheduler adapts a Wasm plugin to the IntraSlice interface. Over
// the serializing path it encodes the request with the configured codec,
// invokes the plugin's "schedule" export inside the sandbox, and decodes +
// validates the response; over the zero-copy path (negotiated automatically
// when the guest exports the region ABI, see zerocopy.go) it delta-writes
// the request into shared memory, invokes "schedule_zc" and validates the
// response region in place. Serialization time is included in Stats either
// way, matching the measurement methodology of Fig. 5d.
type PluginScheduler struct {
	name   string
	plugin *wabi.Plugin
	codec  Codec

	abi      ABIMode
	zeroCopy bool

	// Call accounting, read through Stats(). Unsynchronized like the
	// underlying Plugin: one goroutine at a time.
	calls     uint64
	faults    uint64
	totalTime time.Duration
	lastTime  time.Duration
	zcCalls   uint64
	zcDirty   uint64
	zcRecords uint64
	tierCalls [wasm.NumTiers]uint64 // indexed by wasm.Tier
}

// NewPluginScheduler wraps an instantiated plugin. codec nil means the
// binary codec. The call path defaults to ABIAuto: zero-copy when the guest
// negotiates it, codec otherwise; force either with SetABIMode.
func NewPluginScheduler(name string, plugin *wabi.Plugin, codec Codec) (*PluginScheduler, error) {
	if codec == nil {
		codec = BinaryCodec{}
	}
	zc, err := resolveABI(name, plugin, ABIAuto)
	if err != nil {
		return nil, err
	}
	return &PluginScheduler{name: name, plugin: plugin, codec: codec, zeroCopy: zc}, nil
}

// SetABIMode forces the call path. ABIZeroCopy fails for guests without the
// region ABI; ABICodec fails for zero-copy-only guests.
func (p *PluginScheduler) SetABIMode(mode ABIMode) error {
	zc, err := resolveABI(p.name, p.plugin, mode)
	if err != nil {
		return err
	}
	p.abi = mode
	p.zeroCopy = zc
	return nil
}

// ABI reports the requested ABI mode (ABIAuto unless forced).
func (p *PluginScheduler) ABI() ABIMode { return p.abi }

// ZeroCopy reports whether calls go over the zero-copy path.
func (p *PluginScheduler) ZeroCopy() bool { return p.zeroCopy }

// Name implements IntraSlice.
func (p *PluginScheduler) Name() string { return "plugin:" + p.name }

// Plugin exposes the underlying sandbox for observation (memory footprint,
// fuel accounting).
func (p *PluginScheduler) Plugin() *wabi.Plugin { return p.plugin }

// Stats returns accounting accumulated across calls. Fuel figures come
// from the underlying sandbox.
func (p *PluginScheduler) Stats() SchedStats {
	ps := p.plugin.Stats()
	return SchedStats{
		Calls:            p.calls,
		Faults:           p.faults,
		TotalTime:        p.totalTime,
		LastTime:         p.lastTime,
		LastFuel:         ps.LastFuel,
		TotalFuel:        ps.TotalFuel,
		ZCCalls:          p.zcCalls,
		ZCDirtyRecords:   p.zcDirty,
		ZCRecords:        p.zcRecords,
		TierInterpCalls:  p.tierCalls[wasm.TierInterp],
		TierClosureCalls: p.tierCalls[wasm.TierClosure],
	}
}

// LastFuelUsed implements FuelReporter.
func (p *PluginScheduler) LastFuelUsed() int64 { return p.plugin.LastFuelUsed() }

// Register exposes the scheduler on reg under waran_sched_* with the given
// labels (typically cell and slice).
func (p *PluginScheduler) Register(reg *obs.Registry, labels ...obs.Label) {
	registerSched(reg, p.Stats, labels)
}

// Schedule implements IntraSlice. The measured span covers the full
// host-side cost of outsourcing the decision to the plugin: encode +
// sandbox execution + decode on the codec path, delta-write + sandbox
// execution + region validation on the zero-copy path.
func (p *PluginScheduler) Schedule(req *Request) (*Response, error) {
	start := time.Now()
	defer func() {
		p.lastTime = time.Since(start)
		p.totalTime += p.lastTime
		p.calls++
		p.tierCalls[p.plugin.LastTier()]++
	}()

	var resp *Response
	var err error
	if p.zeroCopy {
		var st zcStats
		resp, st, err = zcCall(p.plugin, req)
		p.zcCalls++
		p.zcDirty += uint64(st.dirty)
		p.zcRecords += uint64(st.total)
		if err != nil {
			p.faults++
			return nil, fmt.Errorf("sched: plugin %q: %w", p.name, err)
		}
	} else {
		in := p.codec.EncodeRequest(req)
		var out []byte
		out, err = p.plugin.Call(EntryPoint, in)
		if err != nil {
			p.faults++
			return nil, fmt.Errorf("sched: plugin %q: %w", p.name, err)
		}
		resp, err = p.codec.DecodeResponse(out)
		if err != nil {
			p.faults++
			return nil, fmt.Errorf("sched: plugin %q returned malformed response: %w", p.name, err)
		}
	}
	if err := resp.Validate(req); err != nil {
		p.faults++
		// Semantic rejection of a decoded response is still bad output for
		// the failure taxonomy: the sandbox completed and the result lied.
		return nil, fmt.Errorf("sched: plugin %q: %w", p.name, &BadOutputError{Kind: BadOutputSemantic, Err: err})
	}
	return resp, nil
}
