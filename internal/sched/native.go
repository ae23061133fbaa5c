package sched

import (
	"cmp"
	"slices"
)

// Native intra-slice schedulers. These are both the fallback policies the
// fault-tolerant slice manager switches to when a plugin misbehaves and the
// reference implementations the Wasm plugins are differentially tested
// against: for identical requests, plugin and native decisions must match.

// RoundRobin serves UEs with pending data in rotating order, one equal share
// each, cycling the starting UE by slot so no position is permanently
// favoured. The paper's MVNO 2 (IoT profile) uses this policy.
type RoundRobin struct{}

// Name implements IntraSlice.
func (RoundRobin) Name() string { return "rr" }

// Schedule implements IntraSlice.
func (rr RoundRobin) Schedule(req *Request) (*Response, error) { return scheduleNew(rr, req) }

func (RoundRobin) scheduleInto(req *Request, resp *Response) error {
	sc := getScratch()
	defer putScratch(sc)
	active := sc.active(req, nil)
	if len(active) == 0 || req.PRBBudget == 0 {
		return nil
	}
	sc.grants = append(sc.grants[:0], make([]uint32, len(active))...)
	grants := sc.grants
	remaining := req.PRBBudget
	// Equal base share, then distribute the remainder one PRB at a time
	// starting at the rotating offset; capped at each UE's buffer need with
	// spill to the next UE so the budget is not wasted.
	start := int(req.Slot % uint64(len(active)))
	for remaining > 0 {
		progressed := false
		for i := 0; i < len(active) && remaining > 0; i++ {
			ix := (start + i) % len(active)
			if grants[ix] >= active[ix].need {
				continue
			}
			grants[ix]++
			remaining--
			progressed = true
		}
		if !progressed {
			break
		}
	}
	resp.Allocs = slices.Grow(resp.Allocs, len(active))
	for i, g := range grants {
		if g > 0 {
			resp.Allocs = append(resp.Allocs, Allocation{UEID: active[i].id, PRBs: g})
		}
	}
	return nil
}

// MaxThroughput greedily serves the best-channel UEs first, maximizing cell
// throughput at the cost of starving poor channels — the paper's MVNO 1
// (eMBB profile) and the first phase of Fig. 5b.
type MaxThroughput struct{}

// Name implements IntraSlice.
func (MaxThroughput) Name() string { return "mt" }

// Schedule implements IntraSlice.
func (mt MaxThroughput) Schedule(req *Request) (*Response, error) { return scheduleNew(mt, req) }

func (MaxThroughput) scheduleInto(req *Request, resp *Response) error {
	sc := getScratch()
	defer putScratch(sc)
	// Per-PRB capacity; a float64 holds a uint32 exactly.
	ranked := sc.active(req, func(u *UEInfo) float64 { return float64(u.BitsPerPRB) })
	fillRanked(ranked, req.PRBBudget, resp)
	return nil
}

// ProportionalFair ranks UEs by instantaneous-rate over long-term-average
// throughput, the classic PF metric. With a large averaging time constant
// the metric is dominated by the denominator, so starved UEs win first —
// the transient the paper highlights in Fig. 5b.
type ProportionalFair struct {
	// MinAvgBps floors the denominator to keep the metric finite for
	// never-served UEs. Default 1000 (1 kb/s).
	MinAvgBps float64
}

// Name implements IntraSlice.
func (ProportionalFair) Name() string { return "pf" }

// Schedule implements IntraSlice.
func (p ProportionalFair) Schedule(req *Request) (*Response, error) { return scheduleNew(p, req) }

func (p ProportionalFair) scheduleInto(req *Request, resp *Response) error {
	minAvg := p.MinAvgBps
	if minAvg <= 0 {
		minAvg = 1000
	}
	sc := getScratch()
	defer putScratch(sc)
	ranked := sc.active(req, func(u *UEInfo) float64 {
		avg := u.AvgTputBps
		if !(avg >= minAvg) { // a NaN average is floored too: no metric is ever NaN
			avg = minAvg
		}
		return float64(u.BitsPerPRB) / avg
	})
	fillRanked(ranked, req.PRBBudget, resp)
	return nil
}

// fillRanked grants each UE its buffer need in descending metric order
// until the budget is exhausted. Ties go to the lower UE ID, for determinism
// and so plugins can reproduce the exact decision.
func fillRanked(ranked []ueEntry, budget uint32, resp *Response) {
	if budget == 0 {
		return
	}
	slices.SortStableFunc(ranked, func(a, b ueEntry) int {
		if a.metric != b.metric {
			return cmpDesc(a.metric, b.metric)
		}
		return cmp.Compare(a.id, b.id)
	})
	resp.Allocs = slices.Grow(resp.Allocs, len(ranked))
	for i := range ranked {
		if budget == 0 {
			break
		}
		g := min(ranked[i].need, budget)
		if g == 0 {
			continue
		}
		resp.Allocs = append(resp.Allocs, Allocation{UEID: ranked[i].id, PRBs: g})
		budget -= g
	}
}

// ByName returns a native scheduler by its short name.
func ByName(name string) (IntraSlice, bool) {
	switch name {
	case "rr", "round-robin":
		return RoundRobin{}, true
	case "mt", "max-throughput":
		return MaxThroughput{}, true
	case "pf", "proportional-fair":
		return ProportionalFair{}, true
	default:
		return nil, false
	}
}
