package ric

import (
	"fmt"

	"waran/internal/e2"
	"waran/internal/wabi"
)

// PluginCodec is an e2.Codec whose wire format is produced by a Wasm
// communication plugin: the host encodes a message with the inner codec and
// the plugin transforms it to the vendor's wire representation ("encode");
// incoming frames are transformed back ("decode") before the inner codec
// parses them.
//
// This is the paper's communication-plugin seam: a system integrator ships
// a shim (e.g. plugins.Widen8To12CommWAT) to adapt vendor A's frames to
// vendor B's field widths without changing either vendor's stack.
type PluginCodec struct {
	name  string
	inner e2.Codec

	// pool hosts the plugin's one instance. e2.Conn.Send is documented safe
	// for concurrent use (heartbeats and control pushes come from different
	// goroutines) and Send/Recv run concurrently, so every transform checks
	// the instance out; one that trapped or ran out of fuel is discarded,
	// never called again.
	pool *wabi.Pool
}

// NewPluginCodecWAT compiles a communication plugin from WAT and wraps
// inner (nil means the binary codec) with its "encode"/"decode" transforms,
// which it must export with the wabi entry signature.
func NewPluginCodecWAT(name, src string, inner e2.Codec) (*PluginCodec, error) {
	mod, err := wabi.CompileWAT(src)
	if err != nil {
		return nil, fmt.Errorf("ric: compile communication plugin %q: %w", name, err)
	}
	if inner == nil {
		inner = e2.BinaryCodec{}
	}
	p := &PluginCodec{name: name, inner: inner, pool: wabi.NewPool(mod, wabi.Policy{Fuel: 50_000_000}, wabi.Env{}, 1)}
	pl, err := p.pool.Get()
	if err != nil {
		return nil, err
	}
	defer p.pool.Put(pl)
	for _, entry := range []string{"encode", "decode"} {
		if !pl.HasEntry(entry) {
			return nil, fmt.Errorf("ric: communication plugin %q does not export %q", name, entry)
		}
	}
	return p, nil
}

// Name implements e2.Codec.
func (p *PluginCodec) Name() string { return p.inner.Name() + "+plugin:" + p.name }

// Encode implements e2.Codec.
func (p *PluginCodec) Encode(m *e2.Message) ([]byte, error) {
	host, err := p.inner.Encode(m)
	if err != nil {
		return nil, err
	}
	wire, err := p.pool.Call("encode", host)
	if err != nil {
		return nil, fmt.Errorf("ric: communication plugin %q encode: %w", p.name, err)
	}
	return wire, nil
}

// Decode implements e2.Codec.
func (p *PluginCodec) Decode(b []byte) (*e2.Message, error) {
	host, err := p.pool.Call("decode", b)
	if err != nil {
		return nil, fmt.Errorf("ric: communication plugin %q decode: %w", p.name, err)
	}
	return p.inner.Decode(host)
}
