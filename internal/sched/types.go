// Package sched implements WA-RAN's two-level MAC scheduler: an inter-slice
// scheduler that divides the cell's PRBs among slices (MVNOs), and
// intra-slice schedulers — native Go baselines and Wasm-plugin-backed
// implementations — that divide a slice's PRBs among its UEs.
//
// The intra-slice scheduling contract mirrors §4A of the paper: the host
// passes the PRB budget and a UE list (identifier, channel quality, buffer
// status, long-term throughput); the scheduler returns per-UE PRB grants.
package sched

import (
	"errors"
	"fmt"
	"math"
)

// UEInfo is the per-UE scheduling input visible to intra-slice schedulers
// and serialized across the plugin ABI.
type UEInfo struct {
	// ID identifies the UE within the cell.
	ID uint32
	// MCS is the current modulation-and-coding scheme index (0..28).
	MCS int32
	// BitsPerPRB is the transport bits one PRB carries for this UE this
	// slot — precomputed by the host so schedulers need no PHY tables.
	BitsPerPRB uint32
	// BufferBytes is the downlink queue occupancy.
	BufferBytes uint32
	// AvgTputBps is the long-term served throughput (for PF policies).
	AvgTputBps float64
}

// Request asks an intra-slice scheduler to divide PRBBudget among UEs.
type Request struct {
	SliceID   uint32
	Slot      uint64
	PRBBudget uint32
	UEs       []UEInfo
}

// Allocation grants PRBs to one UE. Order in the response conveys priority:
// earlier entries are served first if the host must trim.
type Allocation struct {
	UEID uint32
	PRBs uint32
}

// Response is the intra-slice scheduling decision.
type Response struct {
	Allocs []Allocation
	// FuelUsed is the sandbox fuel this decision consumed: set by the plugin
	// schedulers, 0 for native policies and when metering is off. It travels
	// with the decision because a scheduler shared by concurrently stepped
	// cells has no per-caller "last call".
	FuelUsed int64
}

// IntraSlice is one slice's scheduling policy. Implementations must treat
// the request as read-only and must not retain it.
type IntraSlice interface {
	// Name identifies the policy ("rr", "pf", "mt", "pool:...").
	Name() string
	// Schedule divides req.PRBBudget among req.UEs.
	Schedule(req *Request) (*Response, error)
}

// IntoScheduler is the hook behind ScheduleInto: the schedulers of this
// package and guard.Supervisor write their decision into resp (already
// reset) instead of allocating one. Their Schedule is the same body run on a
// fresh Response.
type IntoScheduler interface {
	ScheduleInto(req *Request, resp *Response) error
}

// ErrRefused is what a scheduler returns when it declines a slot without
// having failed: a supervisor whose breaker is open. The slice serves the
// slot from its native fallback and counts no fault.
var ErrRefused = errors.New("sched: scheduler refused the slot")

// ScheduleInto runs s on req with caller-owned response storage. An
// IntoScheduler fills resp and returns it, reusing its Allocs array; any
// other IntraSlice (a decorator, a third-party policy) decides through
// Schedule and returns its own response. Either way the result is valid
// until resp is passed in again.
func ScheduleInto(s IntraSlice, req *Request, resp *Response) (*Response, error) {
	in, ok := s.(IntoScheduler)
	if !ok {
		return s.Schedule(req)
	}
	resp.Allocs, resp.FuelUsed = resp.Allocs[:0], 0
	if err := in.ScheduleInto(req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// scheduleNew is Schedule for an IntoScheduler: the hook, run on a fresh
// Response.
func scheduleNew(s IntoScheduler, req *Request) (*Response, error) {
	resp := &Response{}
	if err := s.ScheduleInto(req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// ErrInvalidResponse is wrapped by Validate for malformed decisions.
var ErrInvalidResponse = errors.New("sched: invalid scheduling response")

// Validate checks a response against its request: grants must reference
// known UEs, without duplicates, and must not exceed the PRB budget.
// Intra-slice plugins are untrusted, so the host calls this before applying
// any decision (paper §6A fault tolerance).
func (r *Response) Validate(req *Request) error {
	sc := getScratch()
	defer putScratch(sc)
	// ids holds 0 for a known UE and 1 once a grant named it.
	ids := &sc.ids
	ids.Reset(len(req.UEs))
	for i := range req.UEs {
		ids.Add(req.UEs[i].ID, 0)
	}
	var total uint64
	for _, a := range r.Allocs {
		granted, known := ids.Swap(a.UEID, 1)
		if !known {
			return fmt.Errorf("%w: grant to unknown UE %d", ErrInvalidResponse, a.UEID)
		}
		if granted != 0 {
			return fmt.Errorf("%w: duplicate grant to UE %d", ErrInvalidResponse, a.UEID)
		}
		total += uint64(a.PRBs)
	}
	if total > uint64(req.PRBBudget) {
		return fmt.Errorf("%w: granted %d PRBs exceeds budget %d", ErrInvalidResponse, total, req.PRBBudget)
	}
	return nil
}

// prbsNeeded returns how many PRBs drain the UE's buffer this slot,
// saturated at MaxUint32.
func prbsNeeded(u *UEInfo) uint32 {
	if u.BufferBytes == 0 || u.BitsPerPRB == 0 {
		return 0
	}
	bits := uint64(u.BufferBytes) * 8
	per := uint64(u.BitsPerPRB)
	return uint32(min((bits+per-1)/per, math.MaxUint32))
}
