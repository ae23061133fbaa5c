package sched

import (
	"cmp"
	"slices"
)

// SliceDemand is the inter-slice scheduler's per-slice input.
type SliceDemand struct {
	SliceID uint32
	// TargetRateBps is the slice's contracted cumulative downlink rate
	// (its SLA); 0 means best-effort.
	TargetRateBps float64
	// AchievedBps is the slice's recent served rate, used by the
	// target-rate policy to decide who is behind contract.
	AchievedBps float64
	// DemandPRBs is how many PRBs would drain all of the slice's buffers
	// this slot.
	DemandPRBs uint32
	// Weight is the share weight for the weighted-fair policy.
	Weight float64
}

// InterSlice divides the cell's PRBs among slices each slot. Implementations
// must return shares summing to at most the budget.
type InterSlice interface {
	Name() string
	// Divide returns PRBs per slice ID.
	Divide(slot uint64, budgetPRBs uint32, demands []SliceDemand) map[uint32]uint32
}

// TargetRate apportions PRBs proportionally to each slice's target rate,
// capped by actual demand, with unused budget redistributed to slices that
// still have queued data. This is the inter-slice policy of the paper's
// evaluation: each MVNO contracts a cumulative rate (3, 12 and 15 Mb/s in
// Fig. 5a) and the gNB provisions accordingly.
type TargetRate struct{}

// Name implements InterSlice.
func (TargetRate) Name() string { return "target-rate" }

// Divide implements InterSlice.
func (TargetRate) Divide(_ uint64, budget uint32, demands []SliceDemand) map[uint32]uint32 {
	out := make(map[uint32]uint32, len(demands))
	if budget == 0 || len(demands) == 0 {
		return out
	}
	var totalTarget float64
	for _, d := range demands {
		totalTarget += d.TargetRateBps
	}
	// Grants accumulate per slice ID in acc, in demand order, and reach the
	// map once at the end. Slice IDs are normally distinct; a repeated one
	// shares the grant of its first appearance.
	var (
		gbuf   [interSliceStack]sliceGrant
		abuf   [interSliceStack]sliceAcc
		grants = gbuf[:0]
		acc    = abuf[:0]
	)
	for i, d := range demands {
		slot := i
		for _, g := range grants {
			if g.d.SliceID == d.SliceID {
				slot = g.slot
				break
			}
		}
		grants = append(grants, sliceGrant{d: d, slot: slot})
		acc = append(acc, sliceAcc{})
		acc[slot].demand = d.DemandPRBs // the last appearance caps the base share
	}
	remaining := budget
	if totalTarget > 0 {
		// Proportional base shares (floor), capped by demand.
		for _, g := range grants {
			a := &acc[g.slot]
			base := min(uint32(float64(budget)*g.d.TargetRateBps/totalTarget), a.demand, remaining)
			a.prbs += base
			remaining -= base
		}
	}
	// Redistribute leftover PRBs to slices with residual demand: slices
	// furthest behind their contracted rate first (deficit-aware), then by
	// larger target, so under-SLA slices catch up before best-effort bulk.
	if remaining > 0 {
		slices.SortStableFunc(grants, func(a, b sliceGrant) int {
			if da, db := a.deficit(), b.deficit(); da != db {
				return cmpDesc(da, db)
			}
			if a.d.TargetRateBps != b.d.TargetRateBps {
				return cmpDesc(a.d.TargetRateBps, b.d.TargetRateBps)
			}
			return cmp.Compare(a.d.SliceID, b.d.SliceID)
		})
		for remaining > 0 {
			progressed := false
			for i := range grants {
				if remaining == 0 {
					break
				}
				if a := &acc[grants[i].slot]; a.prbs < grants[i].d.DemandPRBs {
					a.prbs++
					remaining--
					progressed = true
				}
			}
			if !progressed {
				break
			}
		}
	}
	for _, g := range grants {
		if prbs := acc[g.slot].prbs; totalTarget > 0 || prbs > 0 {
			out[g.d.SliceID] = prbs
		}
	}
	return out
}

// interSliceStack is how many slices Divide handles without leaving the
// stack; a cell with more pays two allocations more per call.
const interSliceStack = 8

// sliceGrant is one demand and where TargetRate accumulates its grant: the
// index of the first demand with the same slice ID.
type sliceGrant struct {
	d    SliceDemand
	slot int
}

// sliceAcc is what one slice ID has been granted so far and the demand that
// caps its base share.
type sliceAcc struct {
	prbs, demand uint32
}

// deficit is how far the slice is behind its contracted rate, as a fraction
// of it; best-effort slices have none.
func (g sliceGrant) deficit() float64 {
	if g.d.TargetRateBps <= 0 {
		return 0
	}
	return (g.d.TargetRateBps - g.d.AchievedBps) / g.d.TargetRateBps
}

// cmpDesc orders the larger float first. A NaN is neither above nor below
// anything.
func cmpDesc(a, b float64) int {
	switch {
	case a > b:
		return -1
	case a < b:
		return 1
	}
	return 0
}

// FixedShare gives each slice a fixed fraction of the budget (by Weight),
// regardless of demand — strict isolation, possibly wasteful.
type FixedShare struct{}

// Name implements InterSlice.
func (FixedShare) Name() string { return "fixed-share" }

// Divide implements InterSlice.
func (FixedShare) Divide(_ uint64, budget uint32, demands []SliceDemand) map[uint32]uint32 {
	out := make(map[uint32]uint32, len(demands))
	var totalW float64
	for _, d := range demands {
		w := d.Weight
		if w <= 0 {
			w = 1
		}
		totalW += w
	}
	if totalW == 0 {
		return out
	}
	var assigned uint32
	for i, d := range demands {
		w := d.Weight
		if w <= 0 {
			w = 1
		}
		g := uint32(float64(budget) * w / totalW)
		if i == len(demands)-1 {
			g = budget - assigned // give rounding residue to the last slice
		}
		out[d.SliceID] = g
		assigned += g
	}
	return out
}

// WeightedFair is demand-aware weighted sharing: budget is split by weight
// among slices with demand; shares capped at demand with iterative
// redistribution (progressive filling).
type WeightedFair struct{}

// Name implements InterSlice.
func (WeightedFair) Name() string { return "weighted-fair" }

// Divide implements InterSlice.
func (WeightedFair) Divide(_ uint64, budget uint32, demands []SliceDemand) map[uint32]uint32 {
	out := make(map[uint32]uint32, len(demands))
	type st struct {
		id     uint32
		w      float64
		demand uint32
	}
	var buf [interSliceStack]st
	pend := buf[:0]
	for _, d := range demands {
		w := d.Weight
		if w <= 0 {
			w = 1
		}
		if d.DemandPRBs > 0 {
			pend = append(pend, st{id: d.SliceID, w: w, demand: d.DemandPRBs})
		}
	}
	remaining := budget
	for remaining > 0 && len(pend) > 0 {
		var totalW float64
		for _, p := range pend {
			totalW += p.w
		}
		next := pend[:0]
		distributed := uint32(0)
		for _, p := range pend {
			g := uint32(float64(remaining) * p.w / totalW)
			if g == 0 {
				g = 1 // progressive filling always advances
			}
			if g > p.demand {
				g = p.demand
			}
			if g > remaining-distributed {
				g = remaining - distributed
			}
			out[p.id] += g
			distributed += g
			p.demand -= g
			if p.demand > 0 {
				next = append(next, p)
			}
		}
		pend = next
		if distributed == 0 {
			break
		}
		remaining -= distributed
	}
	return out
}
