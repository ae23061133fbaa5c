package sched

import (
	"fmt"
	"time"

	"waran/internal/obs"
	"waran/internal/wabi"
)

// EntryPoint is the exported function name intra-slice scheduler plugins
// must provide.
const EntryPoint = "schedule"

// PluginScheduler adapts a Wasm plugin to the IntraSlice interface. Over
// the serializing path it encodes the request with the configured codec,
// invokes the plugin's "schedule" export inside the sandbox, and decodes +
// validates the response; over the zero-copy path (negotiated automatically
// when the guest exports the region ABI, see zerocopy.go) it writes the
// request into shared memory, invokes "schedule_zc" and validates the
// response region in place. Serialization time is included in Stats either
// way, matching the measurement methodology of Fig. 5d.
type PluginScheduler struct {
	name   string
	label  string // Name(), built once
	plugin *wabi.Plugin
	codec  Codec

	zeroCopy bool

	// Call accounting, read through Stats(). Unsynchronized like the
	// underlying Plugin: one goroutine at a time.
	stats callStats
}

// NewPluginScheduler wraps an instantiated plugin. codec nil means the
// binary codec. The call path is ABIAuto: zero-copy when the guest exports
// the region ABI, codec otherwise.
func NewPluginScheduler(name string, plugin *wabi.Plugin, codec Codec) (*PluginScheduler, error) {
	if codec == nil {
		codec = BinaryCodec{}
	}
	p := &PluginScheduler{name: name, label: "plugin:" + name, plugin: plugin, codec: codec}
	if err := p.SetABIMode(ABIAuto); err != nil {
		return nil, err
	}
	return p, nil
}

// SetABIMode forces the call path (the differential tests' selector).
// ABIZeroCopy fails for guests without the region ABI; ABICodec fails for
// zero-copy-only guests.
func (p *PluginScheduler) SetABIMode(mode ABIMode) error {
	zc, err := resolveABI(p.name, p.plugin, mode)
	if err != nil {
		return err
	}
	p.zeroCopy = zc
	return nil
}

// ZeroCopy reports whether calls go over the zero-copy path.
func (p *PluginScheduler) ZeroCopy() bool { return p.zeroCopy }

// Name implements IntraSlice.
func (p *PluginScheduler) Name() string { return p.label }

// Plugin exposes the underlying sandbox for observation (memory footprint,
// fuel accounting).
func (p *PluginScheduler) Plugin() *wabi.Plugin { return p.plugin }

// Stats returns accounting accumulated across calls. Fuel figures come
// from the underlying sandbox.
func (p *PluginScheduler) Stats() SchedStats {
	st := p.stats.snapshot()
	ps := p.plugin.Stats()
	st.LastFuel, st.TotalFuel = ps.LastFuel, ps.TotalFuel
	return st
}

// LastFuelUsed implements FuelReporter.
func (p *PluginScheduler) LastFuelUsed() int64 { return p.plugin.LastFuelUsed() }

// Register exposes the scheduler on reg under waran_sched_* with the given
// labels (typically cell and slice).
func (p *PluginScheduler) Register(reg *obs.Registry, labels ...obs.Label) {
	registerSched(reg, p.Stats, labels)
}

// schedule runs one scheduling decision on pl into resp: encode + sandbox
// execution + decode on the codec path, region write + sandbox execution +
// region validation on the zero-copy path, then the semantic checks every
// response must pass. PluginScheduler and PoolScheduler both call it; they
// differ only in where pl comes from and what guards their counters.
func schedule(pl *wabi.Plugin, codec Codec, zeroCopy bool, req *Request, resp *Response) error {
	if zeroCopy {
		if err := zcCall(pl, req, resp); err != nil {
			return err
		}
	} else {
		out, err := pl.Call(EntryPoint, codec.EncodeRequest(req))
		if err != nil {
			return err
		}
		decoded, err := codec.DecodeResponse(out)
		if err != nil {
			return fmt.Errorf("malformed response: %w", err)
		}
		resp.Allocs = append(resp.Allocs[:0], decoded.Allocs...)
	}
	resp.FuelUsed = pl.LastFuelUsed()
	if err := resp.Validate(req); err != nil {
		// Semantic rejection of a decoded response is still bad output for
		// the failure taxonomy: the sandbox completed and the result lied.
		return &BadOutputError{Kind: BadOutputSemantic, Err: err}
	}
	return nil
}

// Schedule implements IntraSlice. The measured span covers the full
// host-side cost of outsourcing the decision to the plugin, serialization
// included, matching the measurement methodology of Fig. 5d.
func (p *PluginScheduler) Schedule(req *Request) (*Response, error) { return scheduleNew(p, req) }

func (p *PluginScheduler) scheduleInto(req *Request, resp *Response) error {
	start := time.Now()
	err := schedule(p.plugin, p.codec, p.zeroCopy, req, resp)
	p.stats.record(p.plugin, time.Since(start), p.zeroCopy, req, err)
	if err != nil {
		return fmt.Errorf("sched: plugin %q: %w", p.name, err)
	}
	return nil
}
