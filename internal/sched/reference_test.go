package sched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// The map-and-reflection implementations the allocation-free ones replaced,
// kept verbatim as the reference: TestReferenceEquivalence requires the same
// decisions, the same error text and the same error precedence from both on
// seeded random inputs.

func refRoundRobin(req *Request) *Response {
	active := refActiveUEs(req)
	if len(active) == 0 || req.PRBBudget == 0 {
		return &Response{}
	}
	n := uint32(len(active))
	resp := &Response{Allocs: make([]Allocation, 0, n)}
	grants := make(map[int]uint32, n)

	remaining := req.PRBBudget
	start := int(req.Slot % uint64(len(active)))
	for round := 0; remaining > 0; round++ {
		progressed := false
		for i := 0; i < len(active) && remaining > 0; i++ {
			ix := (start + i) % len(active)
			u := active[ix]
			need := prbsNeeded(u)
			if grants[ix] >= need {
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
	for i, u := range active {
		if grants[i] > 0 {
			resp.Allocs = append(resp.Allocs, Allocation{UEID: u.ID, PRBs: grants[i]})
		}
	}
	return resp
}

func refMaxThroughput(req *Request) *Response {
	active := refActiveUEs(req)
	if len(active) == 0 || req.PRBBudget == 0 {
		return &Response{}
	}
	sort.SliceStable(active, func(i, j int) bool {
		if active[i].BitsPerPRB != active[j].BitsPerPRB {
			return active[i].BitsPerPRB > active[j].BitsPerPRB
		}
		return active[i].ID < active[j].ID
	})
	return refFillInOrder(active, req.PRBBudget)
}

func refProportionalFair(p ProportionalFair, req *Request) *Response {
	minAvg := p.MinAvgBps
	if minAvg <= 0 {
		minAvg = 1000
	}
	active := refActiveUEs(req)
	if len(active) == 0 || req.PRBBudget == 0 {
		return &Response{}
	}
	type scored struct {
		u      *UEInfo
		metric float64
	}
	scoredUEs := make([]scored, len(active))
	for i, u := range active {
		avg := u.AvgTputBps
		if !(avg >= minAvg) { // the one edit to the kept PF: NaN is floored, as in ProportionalFair
			avg = minAvg
		}
		scoredUEs[i] = scored{u: u, metric: float64(u.BitsPerPRB) / avg}
	}
	sort.SliceStable(scoredUEs, func(i, j int) bool {
		if scoredUEs[i].metric != scoredUEs[j].metric {
			return scoredUEs[i].metric > scoredUEs[j].metric
		}
		return scoredUEs[i].u.ID < scoredUEs[j].u.ID
	})
	ordered := make([]*UEInfo, len(scoredUEs))
	for i, s := range scoredUEs {
		ordered[i] = s.u
	}
	return refFillInOrder(ordered, req.PRBBudget)
}

func refActiveUEs(req *Request) []*UEInfo {
	out := make([]*UEInfo, 0, len(req.UEs))
	for i := range req.UEs {
		if req.UEs[i].BufferBytes > 0 && req.UEs[i].BitsPerPRB > 0 {
			out = append(out, &req.UEs[i])
		}
	}
	return out
}

func refFillInOrder(ordered []*UEInfo, budget uint32) *Response {
	resp := &Response{}
	for _, u := range ordered {
		if budget == 0 {
			break
		}
		g := prbsNeeded(u)
		if g > budget {
			g = budget
		}
		if g == 0 {
			continue
		}
		resp.Allocs = append(resp.Allocs, Allocation{UEID: u.ID, PRBs: g})
		budget -= g
	}
	return resp
}

func refValidate(r *Response, req *Request) error {
	known := make(map[uint32]bool, len(req.UEs))
	for _, u := range req.UEs {
		known[u.ID] = true
	}
	seen := make(map[uint32]bool, len(r.Allocs))
	var total uint64
	for _, a := range r.Allocs {
		if !known[a.UEID] {
			return fmt.Errorf("%w: grant to unknown UE %d", ErrInvalidResponse, a.UEID)
		}
		if seen[a.UEID] {
			return fmt.Errorf("%w: duplicate grant to UE %d", ErrInvalidResponse, a.UEID)
		}
		seen[a.UEID] = true
		total += uint64(a.PRBs)
	}
	if total > uint64(req.PRBBudget) {
		return fmt.Errorf("%w: granted %d PRBs exceeds budget %d", ErrInvalidResponse, total, req.PRBBudget)
	}
	return nil
}

func refTargetRateDivide(budget uint32, demands []SliceDemand) map[uint32]uint32 {
	out := make(map[uint32]uint32, len(demands))
	if budget == 0 || len(demands) == 0 {
		return out
	}
	var totalTarget float64
	for _, d := range demands {
		totalTarget += d.TargetRateBps
	}
	remaining := budget
	if totalTarget > 0 {
		type share struct {
			id    uint32
			exact float64
		}
		shares := make([]share, 0, len(demands))
		for _, d := range demands {
			exact := float64(budget) * d.TargetRateBps / totalTarget
			shares = append(shares, share{id: d.SliceID, exact: exact})
		}
		demandByID := make(map[uint32]uint32, len(demands))
		for _, d := range demands {
			demandByID[d.SliceID] = d.DemandPRBs
		}
		for _, s := range shares {
			g := uint32(s.exact)
			if g > demandByID[s.id] {
				g = demandByID[s.id]
			}
			if g > remaining {
				g = remaining
			}
			out[s.id] += g
			remaining -= g
		}
	}
	if remaining > 0 {
		deficit := func(d SliceDemand) float64 {
			if d.TargetRateBps <= 0 {
				return 0
			}
			return (d.TargetRateBps - d.AchievedBps) / d.TargetRateBps
		}
		ordered := append([]SliceDemand(nil), demands...)
		sort.SliceStable(ordered, func(i, j int) bool {
			di, dj := deficit(ordered[i]), deficit(ordered[j])
			if di != dj {
				return di > dj
			}
			if ordered[i].TargetRateBps != ordered[j].TargetRateBps {
				return ordered[i].TargetRateBps > ordered[j].TargetRateBps
			}
			return ordered[i].SliceID < ordered[j].SliceID
		})
		for remaining > 0 {
			progressed := false
			for _, d := range ordered {
				if remaining == 0 {
					break
				}
				if out[d.SliceID] < d.DemandPRBs {
					out[d.SliceID]++
					remaining--
					progressed = true
				}
			}
			if !progressed {
				break
			}
		}
	}
	return out
}

// randomRequest draws 0-64 UEs with a budget of 0-52. IDs repeat now and
// then, buffers and per-PRB capacities are often zero, and averages include
// zero, ties, infinities and NaN — everything the comparators must order the
// way they used to.
func randomRequest(rng *rand.Rand) *Request {
	req := &Request{SliceID: rng.Uint32(), Slot: rng.Uint64() >> uint(rng.Intn(64)), PRBBudget: uint32(rng.Intn(53))}
	n := rng.Intn(65)
	avgs := []float64{0, 500, 1000, 1e6, 1e6, 3.5e6, math.Inf(1), math.NaN()}
	for i := 0; i < n; i++ {
		u := UEInfo{ID: uint32(i + 1), MCS: int32(rng.Intn(29))}
		if rng.Intn(100) == 0 {
			u.ID = uint32(1 + rng.Intn(n)) // a duplicate ID
		}
		if rng.Intn(5) > 0 {
			u.BitsPerPRB = uint32(100 * (1 + rng.Intn(8))) // few values: ties
		}
		switch rng.Intn(6) {
		case 0:
		case 1:
			u.BufferBytes = math.MaxUint32
		default:
			u.BufferBytes = uint32(rng.Intn(4000))
		}
		if rng.Intn(3) == 0 {
			u.AvgTputBps = avgs[rng.Intn(len(avgs))]
		} else {
			u.AvgTputBps = rng.Float64() * 2e7
		}
		req.UEs = append(req.UEs, u)
	}
	return req
}

// randomResponse is a plausible decision for req bent in the ways Validate
// rejects: unknown UEs, duplicates and totals over the budget, often several
// at once so the precedence between them is exercised.
func randomResponse(rng *rand.Rand, req *Request) *Response {
	resp := &Response{}
	insert := func(a Allocation) {
		resp.Allocs = slices.Insert(resp.Allocs, rng.Intn(len(resp.Allocs)+1), a)
	}
	for _, ix := range rng.Perm(len(req.UEs))[:rng.Intn(len(req.UEs)+1)] {
		insert(Allocation{UEID: req.UEs[ix].ID, PRBs: uint32(rng.Intn(3))})
	}
	if rng.Intn(4) == 0 {
		insert(Allocation{UEID: uint32(1000 + rng.Intn(4)), PRBs: 1}) // unknown
	}
	if len(resp.Allocs) > 0 && rng.Intn(4) == 0 {
		insert(resp.Allocs[rng.Intn(len(resp.Allocs))]) // duplicate
	}
	if len(resp.Allocs) > 0 && rng.Intn(8) == 0 {
		resp.Allocs[rng.Intn(len(resp.Allocs))].PRBs = math.MaxUint32 // over any budget
	}
	return resp
}

func randomDemands(rng *rand.Rand) []SliceDemand {
	n := rng.Intn(12)
	bestEffort := rng.Intn(4) == 0 // no slice has a contract
	demands := make([]SliceDemand, n)
	for i, id := range rng.Perm(n) {
		d := SliceDemand{SliceID: uint32(id + 1), DemandPRBs: uint32(rng.Intn(60)), Weight: float64(rng.Intn(4))}
		if !bestEffort && rng.Intn(4) > 0 {
			d.TargetRateBps = float64(1+rng.Intn(5)) * 3e6 // few values: ties
			d.AchievedBps = d.TargetRateBps * float64(rng.Intn(5)) / 3
		}
		if i > 0 && rng.Intn(20) == 0 {
			d.SliceID = demands[rng.Intn(i)].SliceID // a repeated slice: grants accumulate
		}
		demands[i] = d
	}
	return demands
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestReferenceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pfs := []ProportionalFair{{}, {MinAvgBps: 5e5}}
	var reused Response // the into-hook path, storage carried across requests
	for i := 0; i < 10_000; i++ {
		req := randomRequest(rng)
		pf := pfs[i%len(pfs)]
		cases := []struct {
			s    IntraSlice
			want *Response
		}{
			{RoundRobin{}, refRoundRobin(req)},
			{MaxThroughput{}, refMaxThroughput(req)},
			{pf, refProportionalFair(pf, req)},
		}
		for _, c := range cases {
			got, err := c.s.Schedule(req)
			if err != nil || !slices.Equal(got.Allocs, c.want.Allocs) {
				t.Fatalf("request %d, %s.Schedule: %v, %v\nreference: %v\nrequest: %+v", i, c.s.Name(), got, err, c.want.Allocs, req)
			}
			into, err := ScheduleInto(c.s, req, &reused)
			if err != nil || into != &reused || into.FuelUsed != 0 || !slices.Equal(into.Allocs, c.want.Allocs) {
				t.Fatalf("request %d, %s through ScheduleInto: %v, %v\nreference: %v", i, c.s.Name(), into, err, c.want.Allocs)
			}
			if got, want := errText(got.Validate(req)), errText(refValidate(got, req)); got != want {
				t.Fatalf("request %d, %s's own decision: Validate %q, reference %q", i, c.s.Name(), got, want)
			}
		}

		resp := randomResponse(rng, req)
		if got, want := errText(resp.Validate(req)), errText(refValidate(resp, req)); got != want {
			t.Fatalf("request %d: Validate %q, reference %q\nresponse: %v\nrequest: %+v", i, got, want, resp.Allocs, req)
		}

		demands, budget := randomDemands(rng), uint32(rng.Intn(53))
		if got, want := (TargetRate{}).Divide(uint64(i), budget, demands), refTargetRateDivide(budget, demands); !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d: Divide(%d) = %v, reference %v\ndemands: %+v", i, budget, got, want, demands)
		}
	}
}
