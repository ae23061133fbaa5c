package sched

import (
	"fmt"
	"sync"
	"time"

	"waran/internal/obs"
	"waran/internal/wabi"
	"waran/internal/wasm"
)

// PoolScheduler adapts a pool of sandbox instances of one compiled plugin
// to the IntraSlice interface. Where PluginScheduler serializes every call
// on a single instance, PoolScheduler checks an instance out per call, so a
// multi-cell gNB stepping cells concurrently fans intra-slice decisions
// across up to Pool.max sandboxes of the same module — one upload, one
// compilation, N parallel executions.
//
// PoolScheduler is safe for concurrent use; the plugins it runs should be
// stateless across calls (pure functions of the request), which all the
// built-in schedulers are, so decisions do not depend on which instance
// served a call.
type PoolScheduler struct {
	name  string
	pool  *wabi.Pool
	codec Codec

	abi      ABIMode
	zeroCopy bool

	mu        sync.Mutex
	calls     uint64
	faults    uint64
	totalTime time.Duration
	lastTime  time.Duration
	lastFuel  int64
	totalFuel int64
	zcCalls   uint64
	zcDirty   uint64
	zcRecords uint64
	tierCalls [wasm.NumTiers]uint64 // indexed by wasm.Tier
}

// NewPoolScheduler wraps an instance pool. codec nil means the binary
// codec. One instance is created eagerly to resolve the call path (every
// instance is the same compiled module, so its exports speak for the whole
// pool); it is returned to the pool warm. The path defaults to ABIAuto:
// zero-copy when the guest negotiates it, codec otherwise; force either
// with SetABIMode.
func NewPoolScheduler(name string, pool *wabi.Pool, codec Codec) (*PoolScheduler, error) {
	if codec == nil {
		codec = BinaryCodec{}
	}
	pl, err := pool.Get()
	if err != nil {
		return nil, fmt.Errorf("sched: pool plugin %q: %w", name, err)
	}
	zc, err := resolveABI(name, pl, ABIAuto)
	pool.Put(pl)
	if err != nil {
		return nil, err
	}
	return &PoolScheduler{name: name, pool: pool, codec: codec, zeroCopy: zc}, nil
}

// SetABIMode forces the call path. ABIZeroCopy fails for guests without the
// region ABI; ABICodec fails for zero-copy-only guests.
func (p *PoolScheduler) SetABIMode(mode ABIMode) error {
	pl, err := p.pool.Get()
	if err != nil {
		return fmt.Errorf("sched: pool plugin %q: %w", p.name, err)
	}
	zc, err := resolveABI(p.name, pl, mode)
	p.pool.Put(pl)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.abi = mode
	p.zeroCopy = zc
	p.mu.Unlock()
	return nil
}

// ABI reports the requested ABI mode (ABIAuto unless forced).
func (p *PoolScheduler) ABI() ABIMode {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.abi
}

// ZeroCopy reports whether calls go over the zero-copy path.
func (p *PoolScheduler) ZeroCopy() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.zeroCopy
}

// Name implements IntraSlice.
func (p *PoolScheduler) Name() string { return "pool:" + p.name }

// Pool exposes the underlying instance pool for observation.
func (p *PoolScheduler) Pool() *wabi.Pool { return p.pool }

// Stats returns call accounting across all instances.
func (p *PoolScheduler) Stats() SchedStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return SchedStats{
		Calls:            p.calls,
		Faults:           p.faults,
		TotalTime:        p.totalTime,
		LastTime:         p.lastTime,
		LastFuel:         p.lastFuel,
		TotalFuel:        p.totalFuel,
		ZCCalls:          p.zcCalls,
		ZCDirtyRecords:   p.zcDirty,
		ZCRecords:        p.zcRecords,
		TierInterpCalls:  p.tierCalls[wasm.TierInterp],
		TierClosureCalls: p.tierCalls[wasm.TierClosure],
	}
}

// LastFuelUsed implements FuelReporter.
func (p *PoolScheduler) LastFuelUsed() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastFuel
}

// Register exposes the scheduler on reg under waran_sched_* with the given
// labels (typically cell and slice).
func (p *PoolScheduler) Register(reg *obs.Registry, labels ...obs.Label) {
	registerSched(reg, p.Stats, labels)
}

// Schedule implements IntraSlice: check out an instance, run the decision,
// return the instance. The measured span matches PluginScheduler (encode +
// sandbox execution + decode, or delta-write + sandbox execution + region
// validation over zero-copy), excluding time spent waiting for a free
// instance so pool-exhaustion stalls are visible as wall-clock, not
// mistaken for plugin cost.
//
// Each pooled instance keeps its own request-region shadow, so the delta
// writer's hit rate depends on instance affinity: a pool of one behaves
// like PluginScheduler, while round-robining instances across cells pays a
// fuller write per checkout. The ZCDirtyRecords/ZCRecords ratio in Stats
// makes that cost visible.
func (p *PoolScheduler) Schedule(req *Request) (*Response, error) {
	p.mu.Lock()
	zeroCopy := p.zeroCopy
	p.mu.Unlock()

	pl, err := p.pool.Get()
	if err != nil {
		p.recordCall(nil, 0, true, zcStats{}, false)
		return nil, fmt.Errorf("sched: pool plugin %q: %w", p.name, err)
	}
	defer p.pool.Put(pl)

	start := time.Now()
	var resp *Response
	if zeroCopy {
		var st zcStats
		resp, st, err = zcCall(pl, req)
		if err != nil {
			p.recordCall(pl, time.Since(start), true, st, true)
			return nil, fmt.Errorf("sched: pool plugin %q: %w", p.name, err)
		}
		if err := resp.Validate(req); err != nil {
			p.recordCall(pl, time.Since(start), true, st, true)
			return nil, fmt.Errorf("sched: pool plugin %q: %w", p.name, &BadOutputError{Kind: BadOutputSemantic, Err: err})
		}
		p.recordCall(pl, time.Since(start), false, st, true)
		return resp, nil
	}

	in := p.codec.EncodeRequest(req)
	out, err := pl.Call(EntryPoint, in)
	if err != nil {
		p.recordCall(pl, time.Since(start), true, zcStats{}, false)
		return nil, fmt.Errorf("sched: pool plugin %q: %w", p.name, err)
	}
	resp, err = p.codec.DecodeResponse(out)
	if err != nil {
		p.recordCall(pl, time.Since(start), true, zcStats{}, false)
		return nil, fmt.Errorf("sched: pool plugin %q returned malformed response: %w", p.name, err)
	}
	if err := resp.Validate(req); err != nil {
		p.recordCall(pl, time.Since(start), true, zcStats{}, false)
		// Semantic rejection of a decoded response is still bad output for
		// the failure taxonomy: the sandbox completed and the result lied.
		return nil, fmt.Errorf("sched: pool plugin %q: %w", p.name, &BadOutputError{Kind: BadOutputSemantic, Err: err})
	}
	p.recordCall(pl, time.Since(start), false, zcStats{}, false)
	return resp, nil
}

// recordCall folds one Schedule outcome into the accounting. pl is the
// instance that served it, nil when the pool had none to give: then no
// sandbox ran, so no fuel and no execution tier is charged.
func (p *PoolScheduler) recordCall(pl *wabi.Plugin, d time.Duration, fault bool, st zcStats, zc bool) {
	p.mu.Lock()
	p.calls++
	p.lastFuel = 0
	if pl != nil {
		p.lastFuel = pl.LastFuelUsed()
		p.tierCalls[pl.LastTier()]++
	}
	p.lastTime = d
	p.totalTime += d
	p.totalFuel += p.lastFuel
	if fault {
		p.faults++
	}
	if zc {
		p.zcCalls++
		p.zcDirty += uint64(st.dirty)
		p.zcRecords += uint64(st.total)
	}
	p.mu.Unlock()
}
