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
	name  string
	label string // Name(), built once: the slot tracer asks every slot
	pool  *wabi.Pool

	mu        sync.Mutex // guards zeroCopy and the accounting below
	zeroCopy  bool
	stats     callStats
	lastFuel  int64
	totalFuel int64
}

// NewPoolScheduler wraps an instance pool. The call path is ABIAuto:
// zero-copy when the guest exports the region ABI, BinaryCodec otherwise.
func NewPoolScheduler(name string, pool *wabi.Pool) (*PoolScheduler, error) {
	p := &PoolScheduler{name: name, label: "pool:" + name, pool: pool}
	if err := p.SetABIMode(ABIAuto); err != nil {
		return nil, err
	}
	return p, nil
}

// SetABIMode forces the call path (the differential tests' selector).
// ABIZeroCopy fails for guests without the region ABI; ABICodec fails for
// zero-copy-only guests. One instance is checked out to read its exports —
// every instance is the same compiled module, so they speak for the whole
// pool — and returned warm.
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
	p.zeroCopy = zc
	p.mu.Unlock()
	return nil
}

// ZeroCopy reports whether calls go over the zero-copy path.
func (p *PoolScheduler) ZeroCopy() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.zeroCopy
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
	p.mu.Lock()
	zeroCopy := p.zeroCopy
	p.mu.Unlock()

	pl, err := p.pool.Get()
	if err != nil {
		p.record(nil, 0, zeroCopy, req, err)
		return fmt.Errorf("sched: pool plugin %q: %w", p.name, err)
	}
	defer p.pool.Put(pl)

	start := time.Now()
	err = schedule(pl, zeroCopy, req, resp)
	p.record(pl, time.Since(start), zeroCopy, req, err)
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
func (p *PoolScheduler) record(pl *wabi.Plugin, d time.Duration, zeroCopy bool, req *Request, err error) {
	p.mu.Lock()
	p.stats.record(pl, d, zeroCopy, req, err)
	p.lastFuel = 0
	if pl != nil {
		p.lastFuel = pl.LastFuelUsed()
	}
	p.totalFuel += p.lastFuel
	p.mu.Unlock()
}
