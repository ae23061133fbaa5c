package wabi

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"

	"waran/internal/obs"
)

// Pool hands out Plugin instances of one compiled module to concurrent
// callers. A Plugin is single-threaded by design (one linear memory, one
// I/O buffer pair); a multi-cell gNB or a RIC serving several E2
// associations checks instances out per call instead of serializing on one
// sandbox. Instances are created lazily up to Max and reused afterwards.
type Pool struct {
	mod    *Module
	policy Policy
	env    Env

	mu      sync.Mutex
	idle    []*Plugin
	created int
	max     int
	waiters []chan *Plugin

	// Occupancy counters, read through Stats(); guarded by mu.
	gets        uint64
	waits       uint64
	createFails uint64
	discards    uint64

	// newFn creates one instance; overridable in tests to exercise
	// creation-failure orderings deterministically.
	newFn func() (*Plugin, error)
}

// maxSpins is how many times an exhausted Get yields before it queues.
const maxSpins = 16

// NewPool creates a pool bounded to max concurrent instances (0 means 16).
func NewPool(mod *Module, policy Policy, env Env, max int) *Pool {
	if max <= 0 {
		max = 16
	}
	p := &Pool{mod: mod, policy: policy, env: env, max: max}
	p.newFn = func() (*Plugin, error) { return NewPlugin(p.mod, p.policy, p.env) }
	return p
}

// Get checks out an instance, instantiating one if under the limit and
// blocking when the pool is exhausted.
func (p *Pool) Get() (*Plugin, error) {
	p.mu.Lock()
	p.gets++
	spins := 0
	for {
		if n := len(p.idle); n > 0 {
			pl := p.idle[n-1]
			p.idle = p.idle[:n-1]
			p.mu.Unlock()
			return pl, nil
		}
		if p.created < p.max {
			p.created++
			newFn := p.newFn
			p.mu.Unlock()
			pl, err := newFn()
			if err != nil {
				p.mu.Lock()
				p.created--
				p.createFails++
				// The creation slot just freed. A waiter may have queued
				// while this Get held the last slot; wake one so it retries
				// instead of waiting for a Put that may never come.
				p.wakeOne(nil)
				p.mu.Unlock()
				return nil, err
			}
			return pl, nil
		}
		// Exhausted. A checkout usually ends within microseconds, and
		// parking turns each hand-off into a goroutine wake-up that the
		// next caller queues behind, so yield a few times first, as
		// sync.Mutex spins before it parks.
		if spins < maxSpins {
			spins++
			p.mu.Unlock()
			runtime.Gosched()
			p.mu.Lock()
			continue
		}
		// Wait for a Put (instance delivered) or a failed creation (nil
		// delivered; loop and retry the slot).
		ch := make(chan *Plugin, 1)
		p.waiters = append(p.waiters, ch)
		p.waits++
		p.mu.Unlock()
		if pl := <-ch; pl != nil {
			return pl, nil
		}
		p.mu.Lock()
	}
}

// wakeOne hands pl (nil: a freed creation slot) to the longest waiter, if
// any; callers hold mu. It reports whether a waiter took it.
func (p *Pool) wakeOne(pl *Plugin) bool {
	if len(p.waiters) == 0 {
		return false
	}
	ch := p.waiters[0]
	p.waiters = p.waiters[1:]
	ch <- pl // buffered: never blocks
	return true
}

// Put returns an instance to the pool. Instances whose last call aborted
// mid-execution (trap or fuel exhaustion) are discarded instead of
// recycled: their linear memory is in an unknown intermediate state and must
// never be handed to the next caller. The creation slot is released so a
// future Get instantiates a fresh, zeroed replacement. The discarded
// wrapper's cached zero-copy region layout is invalidated with it — a fresh
// instance's heap starts over, so its region pointers must be re-negotiated
// rather than inherited from the poisoned predecessor (regression:
// TestPoolZeroCopyTrapThenReuse).
func (p *Pool) Put(pl *Plugin) {
	if pl == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if pl.Poisoned() {
		pl.invalidateRegions()
		p.created--
		p.discards++
		// A parked waiter retries the freed creation slot instead of
		// waiting for a Put that never comes.
		p.wakeOne(nil)
		return
	}
	if !p.wakeOne(pl) {
		p.idle = append(p.idle, pl)
	}
}

// Call is the checkout-call-return convenience wrapper. The instance is
// back in the pool when it returns, so its output is returned as a copy the
// caller owns.
func (p *Pool) Call(entry string, input []byte) ([]byte, error) {
	pl, err := p.Get()
	if err != nil {
		return nil, err
	}
	defer p.Put(pl)
	out, err := pl.Call(entry, input)
	return bytes.Clone(out), err
}

// PoolStats is the flat snapshot of a Pool: occupancy plus the checkout
// counters the observability layer exposes.
type PoolStats struct {
	Created     int    `json:"created"`
	Idle        int    `json:"idle"`
	Max         int    `json:"max"`
	Gets        uint64 `json:"gets"`
	Waits       uint64 `json:"waits"`
	CreateFails uint64 `json:"create_fails"`
	Discards    uint64 `json:"discards"`
}

// Stats returns current pool accounting.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Created:     p.created,
		Idle:        len(p.idle),
		Max:         p.max,
		Gets:        p.gets,
		Waits:       p.waits,
		CreateFails: p.createFails,
		Discards:    p.discards,
	}
}

// Register exposes the pool on reg under waran_wabi_pool_* with the given
// labels (typically the cell or slice the pool serves).
func (p *Pool) Register(reg *obs.Registry, labels ...obs.Label) {
	reg.MustRegister("waran_wabi_pool", "plugin instance pool occupancy and checkout counters", obs.Func{
		Kind: obs.KindUntyped,
		Collect: func() []obs.Sample {
			s := p.Stats()
			return []obs.Sample{
				{Suffix: "_created", Value: float64(s.Created)},
				{Suffix: "_idle", Value: float64(s.Idle)},
				{Suffix: "_max", Value: float64(s.Max)},
				{Suffix: "_gets_total", Value: float64(s.Gets)},
				{Suffix: "_waits_total", Value: float64(s.Waits)},
				{Suffix: "_create_fails_total", Value: float64(s.CreateFails)},
				{Suffix: "_discards_total", Value: float64(s.Discards)},
			}
		},
		JSON: func() any { return p.Stats() },
	}, labels...)
}

// String implements fmt.Stringer.
func (p *Pool) String() string {
	s := p.Stats()
	return fmt.Sprintf("wabi.Pool{created=%d idle=%d max=%d}", s.Created, s.Idle, s.Max)
}
