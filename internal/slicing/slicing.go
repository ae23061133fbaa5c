// Package slicing implements WA-RAN's MVNO slice management: registration
// of slices with contracted target rates, live (hot) swap of a slice's
// intra-slice scheduler plugin without stopping the gNB, and the fault
// tolerance the paper lists under §6A — fallback to a native default
// scheduler on plugin misbehaviour and quarantine after repeated faults.
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

// DefaultQuarantineThreshold is the number of consecutive plugin faults
// after which the slice is pinned to its fallback scheduler.
const DefaultQuarantineThreshold = 3

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
	consecutiveFaults int
	totalFaults       uint64
	fallbackSlots     uint64
	quarantined       bool
	swaps             uint64

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

// SchedulerName reports the active policy, annotated when quarantined.
func (s *Slice) SchedulerName() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quarantined {
		return s.fallback.Name() + " (quarantine)"
	}
	return s.scheduler.Name()
}

// Quarantined reports whether the slice's plugin is quarantined.
func (s *Slice) Quarantined() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}

// SliceStats summarizes the slice's fault history.
type SliceStats struct {
	TotalFaults   uint64 `json:"total_faults"`
	FallbackSlots uint64 `json:"fallback_slots"`
	Swaps         uint64 `json:"swaps"`
	Quarantined   bool   `json:"quarantined"`
}

// Stats returns a snapshot of fault accounting.
func (s *Slice) Stats() SliceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SliceStats{
		TotalFaults:   s.totalFaults,
		FallbackSlots: s.fallbackSlots,
		Swaps:         s.swaps,
		Quarantined:   s.quarantined,
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
	// forceFallback pins every slice to its native fallback scheduler —
	// the cell-group deadline watchdog's recovery action when plugin
	// scheduling blows the slot budget.
	forceFallback bool

	// QuarantineThreshold is the consecutive-fault limit before a slice is
	// pinned to its fallback (0 means DefaultQuarantineThreshold).
	QuarantineThreshold int
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

// RemoveSlice deregisters a slice (an MVNO leaving the gNB — no restart
// needed, per the paper's motivation).
func (m *Manager) RemoveSlice(id uint32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.slices[id]; !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchSlice, id)
	}
	delete(m.slices, id)
	for i, v := range m.order {
		if v.ID == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return nil
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
// slots: the live-update path of Fig. 5b. The swap clears any quarantine —
// the operator is uploading a (presumably fixed) plugin.
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
	s.quarantined = false
	s.consecutiveFaults = 0
	s.swaps++
	return nil
}

// SetForceFallback pins (on) or releases (off) every slice to its native
// fallback scheduler. While pinned, Schedule skips plugins entirely — the
// same rescue path a faulting plugin takes, applied cell-wide. Fallback
// slots are counted per slice as usual; fault counters are untouched.
func (m *Manager) SetForceFallback(on bool) {
	m.mu.Lock()
	m.forceFallback = on
	m.mu.Unlock()
}

// ForceFallback reports whether the manager is pinned to native fallbacks.
func (m *Manager) ForceFallback() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.forceFallback
}

// Schedule runs the slice's intra-slice policy on req with full fault
// protection: a trap, timeout (fuel), malformed or over-budget response is
// absorbed — the slot is rescued by the fallback scheduler, and after
// QuarantineThreshold consecutive faults the plugin is quarantined.
// The returned response is always valid for req. It may live in storage the
// slice owns, so it is good until the next Schedule of the same slice, and
// one goroutine at a time schedules a given slice.
func (m *Manager) Schedule(s *Slice, req *sched.Request) (*sched.Response, error) {
	threshold := m.QuarantineThreshold
	if threshold == 0 {
		threshold = DefaultQuarantineThreshold
	}

	m.mu.RLock()
	forced := m.forceFallback
	m.mu.RUnlock()

	s.mu.Lock()
	scheduler := s.scheduler
	quarantined := s.quarantined
	fallback := s.fallback
	s.mu.Unlock()

	if !quarantined && !forced {
		resp, err := sched.ScheduleInto(scheduler, req, &s.resp)
		if err == nil {
			if verr := resp.Validate(req); verr == nil {
				s.mu.Lock()
				s.consecutiveFaults = 0
				s.mu.Unlock()
				return resp, nil
			} else {
				err = verr
			}
		}
		// Fault path.
		if m.OnFault != nil {
			m.OnFault(s.ID, err)
		}
		s.mu.Lock()
		s.totalFaults++
		s.consecutiveFaults++
		if s.consecutiveFaults >= threshold {
			s.quarantined = true
		}
		s.mu.Unlock()
	}

	s.mu.Lock()
	s.fallbackSlots++
	s.mu.Unlock()
	resp, err := sched.ScheduleInto(fallback, req, &s.resp)
	if err != nil {
		return nil, fmt.Errorf("slicing: fallback scheduler for slice %d failed: %w", s.ID, err)
	}
	if err := resp.Validate(req); err != nil {
		return nil, fmt.Errorf("slicing: fallback scheduler for slice %d invalid: %w", s.ID, err)
	}
	return resp, nil
}
