// Package slicing implements WA-RAN's MVNO slice management: registration
// of slices with contracted target rates, live (hot) swap of a slice's
// intra-slice scheduler plugin without stopping the gNB, and the per-slot
// half of the fault tolerance the paper lists under §6A — a native default
// scheduler serves every slot the plugin fails or refuses. Giving up on a
// misbehaving plugin is its supervisor's breaker (internal/guard).
package slicing

import (
	"errors"
	"fmt"
	"sync"

	"waran/internal/sched"
)

// ErrNoSuchSlice is returned for operations on unknown slice IDs.
var ErrNoSuchSlice = errors.New("slicing: no such slice")

// ErrAdmissionDenied is returned when admitting a slice would overcommit
// the cell's capacity.
var ErrAdmissionDenied = errors.New("slicing: admission denied")

// Slice is one MVNO tenancy on the gNB.
type Slice struct {
	ID   uint32
	Name string
	// MaxUEs caps concurrent subscribers (0 = unlimited); enforced by the
	// gNB at attach time.
	MaxUEs int

	mu            sync.Mutex
	targetRateBps float64
	weight        float64
	scheduler     sched.IntraSlice
	fallback      sched.IntraSlice
	// fault accounting
	totalFaults   uint64
	fallbackSlots uint64
	swaps         uint64

	// resp is the decision storage Manager.Schedule hands schedulers that
	// can fill it. It is not guarded by mu: one goroutine at a time
	// schedules a given slice (the cell's slot loop).
	resp sched.Response
}

// TargetRate returns the contracted cumulative downlink rate.
func (s *Slice) TargetRate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.targetRateBps
}

// SetTargetRate updates the contracted rate (e.g. from a RIC control).
func (s *Slice) SetTargetRate(bps float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.targetRateBps = bps
}

// Weight returns the inter-slice share weight.
func (s *Slice) Weight() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.weight
}

// TargetAndWeight returns the contracted rate and the share weight under
// one lock: what the slot reads of a slice for its inter-slice demand.
func (s *Slice) TargetAndWeight() (targetRateBps, weight float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.targetRateBps, s.weight
}

// SetWeight updates the inter-slice share weight.
func (s *Slice) SetWeight(w float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.weight = w
}

// Scheduler returns the currently active intra-slice scheduler.
func (s *Slice) Scheduler() sched.IntraSlice {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scheduler
}

// SchedulerName reports the active policy.
func (s *Slice) SchedulerName() string { return s.Scheduler().Name() }

// SliceStats summarizes the slice's fault history. TotalFaults counts the
// scheduler's own failures; FallbackSlots counts every slot the native
// fallback served, breaker refusals included.
type SliceStats struct {
	TotalFaults   uint64 `json:"total_faults"`
	FallbackSlots uint64 `json:"fallback_slots"`
	Swaps         uint64 `json:"swaps"`
}

// Stats returns a snapshot of fault accounting.
func (s *Slice) Stats() SliceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SliceStats{
		TotalFaults:   s.totalFaults,
		FallbackSlots: s.fallbackSlots,
		Swaps:         s.swaps,
	}
}

// Manager owns the slice registry. It is safe for concurrent use; the
// per-slot scheduling path is typically driven by the single MAC goroutine
// while swaps arrive from management goroutines — exactly the paper's
// on-the-fly update scenario.
type Manager struct {
	mu     sync.RWMutex
	slices map[uint32]*Slice
	order  []*Slice // deterministic iteration order (registration order)

	// CapacityBps, when positive, enables admission control: AddSlice
	// refuses a slice whose contracted rate would push the sum of targets
	// past the cell's capacity — the role the paper delegates to the AMF.
	CapacityBps float64
	// OnFault, if set, observes plugin failures (for logs/alerts).
	OnFault func(sliceID uint32, err error)
}

// NewManager creates an empty slice registry.
func NewManager() *Manager {
	return &Manager{slices: make(map[uint32]*Slice)}
}

// AddSlice registers a new slice. fallback nil defaults to round-robin.
func (m *Manager) AddSlice(id uint32, name string, targetRateBps float64, scheduler, fallback sched.IntraSlice) (*Slice, error) {
	if scheduler == nil {
		return nil, errors.New("slicing: scheduler must not be nil")
	}
	if fallback == nil {
		fallback = sched.RoundRobin{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.slices[id]; dup {
		return nil, fmt.Errorf("slicing: slice %d already exists", id)
	}
	if m.CapacityBps > 0 {
		committed := targetRateBps
		for _, s := range m.slices {
			committed += s.TargetRate()
		}
		if committed > m.CapacityBps {
			return nil, fmt.Errorf("%w: contracted %.1f Mb/s would exceed cell capacity %.1f Mb/s",
				ErrAdmissionDenied, committed/1e6, m.CapacityBps/1e6)
		}
	}
	s := &Slice{
		ID:            id,
		Name:          name,
		targetRateBps: targetRateBps,
		weight:        1,
		scheduler:     scheduler,
		fallback:      fallback,
	}
	m.slices[id] = s
	m.order = append(m.order, s)
	return s, nil
}

// Slice looks up a slice by ID.
func (m *Manager) Slice(id uint32) (*Slice, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.slices[id]
	return s, ok
}

// Slices returns all slices in registration order.
func (m *Manager) Slices() []*Slice {
	return m.AppendSlices(nil)
}

// AppendSlices appends all slices in registration order to dst: Slices for
// a caller that asks every slot and keeps the storage.
func (m *Manager) AppendSlices(dst []*Slice) []*Slice {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append(dst, m.order...)
}

// HotSwap atomically replaces a slice's intra-slice scheduler between
// slots: the live-update path of Fig. 5b. It installs what it is given
// without validation; the gNB's plugin installs go through a supervisor
// (core.CellGroup, core.GNB.Apply), whose Swap shadow-validates candidates.
func (m *Manager) HotSwap(id uint32, scheduler sched.IntraSlice) error {
	if scheduler == nil {
		return errors.New("slicing: scheduler must not be nil")
	}
	m.mu.RLock()
	s, ok := m.slices[id]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchSlice, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scheduler = scheduler
	s.swaps++
	return nil
}

// Schedule runs the slice's intra-slice policy on req with full fault
// protection: a trap, timeout (fuel), malformed or over-budget response is
// absorbed — counted as a fault and the slot rescued by the fallback
// scheduler — and a refusal (sched.ErrRefused: the plugin's breaker is open)
// is rescued the same way without counting a fault. fellBack reports whether
// the fallback served the slot. The returned response is always valid for
// req. It may live in storage the slice owns, so it is good until the next
// Schedule of the same slice, and one goroutine at a time schedules a given
// slice.
func (m *Manager) Schedule(s *Slice, req *sched.Request) (resp *sched.Response, fellBack bool, err error) {
	s.mu.Lock()
	scheduler := s.scheduler
	fallback := s.fallback
	s.mu.Unlock()

	resp, err = sched.ScheduleInto(scheduler, req, &s.resp)
	if err == nil {
		if err = resp.Validate(req); err == nil {
			return resp, false, nil
		}
	}
	if !errors.Is(err, sched.ErrRefused) {
		if m.OnFault != nil {
			m.OnFault(s.ID, err)
		}
		s.mu.Lock()
		s.totalFaults++
		s.mu.Unlock()
	}

	s.mu.Lock()
	s.fallbackSlots++
	s.mu.Unlock()
	resp, err = sched.ScheduleInto(fallback, req, &s.resp)
	if err != nil {
		return nil, true, fmt.Errorf("slicing: fallback scheduler for slice %d failed: %w", s.ID, err)
	}
	if err := resp.Validate(req); err != nil {
		return nil, true, fmt.Errorf("slicing: fallback scheduler for slice %d invalid: %w", s.ID, err)
	}
	return resp, true, nil
}
