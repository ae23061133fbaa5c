package sched

import (
	"fmt"
	"sync"
	"time"

	"waran/internal/obs"
	"waran/internal/wabi"
)

// EntryPoint is the exported function name intra-slice scheduler plugins
// must provide.
const EntryPoint = "schedule"

// PoolScheduler adapts a pool of sandbox instances of one compiled plugin
// to the IntraSlice interface, and is the only one: every plugin slice
// scheduler checks an instance out per call. Over the serializing path a
// call encodes the request with BinaryCodec, invokes the guest's
// "schedule" export and decodes + validates the response; over the
// zero-copy path (negotiated automatically when the guest exports the
// region ABI, see zerocopy.go) it writes the request into shared memory,
// invokes "schedule_zc" and validates the response region in place. An
// instance whose call trapped or ran out of fuel is discarded by Pool.Put,
// never called again. A multi-cell gNB stepping cells concurrently fans
// intra-slice decisions across up to Pool.max sandboxes of the same module —
// one upload, one compilation, N parallel executions; a width-1 pool
// serializes its callers on one instance.
//
// PoolScheduler is safe for concurrent use; the plugins it runs should be
// stateless across calls (pure functions of the request), which all the
// built-in schedulers are, so decisions do not depend on which instance
// served a call.
type PoolScheduler struct {
	name     string
	label    string // Name(), built once: the slot tracer asks every slot
	pool     *wabi.Pool
	zeroCopy bool // the call path, resolved once from the guest's exports

	mu        sync.Mutex // guards the accounting below
	stats     callStats
	lastFuel  int64
	totalFuel int64
}

// NewPoolScheduler wraps an instance pool. The call path is zero-copy when
// the guest exports the region ABI and BinaryCodec otherwise. One instance
// is checked out to read its exports — every instance is the same compiled
// module, so they speak for the whole pool — and returned warm.
func NewPoolScheduler(name string, pool *wabi.Pool) (*PoolScheduler, error) {
	pl, err := pool.Get()
	if err != nil {
		return nil, fmt.Errorf("sched: pool plugin %q: %w", name, err)
	}
	zc, err := resolveABI(name, pl)
	pool.Put(pl)
	if err != nil {
		return nil, err
	}
	return &PoolScheduler{name: name, label: "pool:" + name, pool: pool, zeroCopy: zc}, nil
}

// Name implements IntraSlice.
func (p *PoolScheduler) Name() string { return p.label }

// Pool exposes the underlying instance pool for observation.
func (p *PoolScheduler) Pool() *wabi.Pool { return p.pool }

// Stats returns call accounting across all instances.
func (p *PoolScheduler) Stats() SchedStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats.snapshot()
	st.LastFuel, st.TotalFuel = p.lastFuel, p.totalFuel
	return st
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
// return the instance. The measured span covers the full host-side cost of
// outsourcing the decision to the plugin, serialization included (the
// methodology of Fig. 5d), excluding time spent waiting for a free instance
// so pool-exhaustion stalls are visible as wall-clock, not mistaken for
// plugin cost.
func (p *PoolScheduler) Schedule(req *Request) (*Response, error) { return scheduleNew(p, req) }

// ScheduleInto implements IntoScheduler.
func (p *PoolScheduler) ScheduleInto(req *Request, resp *Response) error {
	pl, err := p.pool.Get()
	if err != nil {
		p.record(nil, 0, req, err)
		return fmt.Errorf("sched: pool plugin %q: %w", p.name, err)
	}
	defer p.pool.Put(pl)

	start := time.Now()
	err = schedule(pl, p.zeroCopy, req, resp)
	p.record(pl, time.Since(start), req, err)
	if err != nil {
		return fmt.Errorf("sched: pool plugin %q: %w", p.name, err)
	}
	return nil
}

// schedule runs one scheduling decision on pl into resp: encode + sandbox
// execution + decode on the codec path, region write + sandbox execution +
// region validation on the zero-copy path, then the semantic checks every
// response must pass.
func schedule(pl *wabi.Plugin, zeroCopy bool, req *Request, resp *Response) error {
	if zeroCopy {
		if err := zcCall(pl, req, resp); err != nil {
			return err
		}
	} else {
		out, err := pl.Call(EntryPoint, BinaryCodec{}.EncodeRequest(req))
		if err != nil {
			return err
		}
		decoded, err := BinaryCodec{}.DecodeResponse(out)
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

// record folds one Schedule outcome into the accounting under the lock. pl
// is nil when the pool had no instance to give: then no fuel is charged.
func (p *PoolScheduler) record(pl *wabi.Plugin, d time.Duration, req *Request, err error) {
	p.mu.Lock()
	p.stats.record(pl, d, p.zeroCopy, req, err)
	p.lastFuel = 0
	if pl != nil {
		p.lastFuel = pl.LastFuelUsed()
	}
	p.totalFuel += p.lastFuel
	p.mu.Unlock()
}
