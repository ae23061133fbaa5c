package sched

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mkUE(id uint32, per, buf uint32, avg float64) UEInfo {
	return UEInfo{ID: id, MCS: 20, BitsPerPRB: per, BufferBytes: buf, AvgTputBps: avg}
}

func TestRoundRobinEqualSharesSaturated(t *testing.T) {
	req := &Request{
		PRBBudget: 12,
		UEs: []UEInfo{
			mkUE(1, 500, 1_000_000, 0),
			mkUE(2, 500, 1_000_000, 0),
			mkUE(3, 500, 1_000_000, 0),
		},
	}
	resp, err := RoundRobin{}.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Allocs) != 3 {
		t.Fatalf("allocs = %v", resp.Allocs)
	}
	for _, a := range resp.Allocs {
		if a.PRBs != 4 {
			t.Fatalf("unequal share: %v", resp.Allocs)
		}
	}
}

func TestRoundRobinRotatesRemainder(t *testing.T) {
	mk := func(slot uint64) map[uint32]uint32 {
		req := &Request{
			Slot:      slot,
			PRBBudget: 4,
			UEs: []UEInfo{
				mkUE(1, 500, 1_000_000, 0),
				mkUE(2, 500, 1_000_000, 0),
				mkUE(3, 500, 1_000_000, 0),
			},
		}
		resp, err := RoundRobin{}.Schedule(req)
		if err != nil {
			t.Fatal(err)
		}
		out := map[uint32]uint32{}
		for _, a := range resp.Allocs {
			out[a.UEID] = a.PRBs
		}
		return out
	}
	// With 4 PRBs over 3 UEs, the extra PRB must rotate with the slot.
	first := mk(0)
	second := mk(1)
	var extraFirst, extraSecond uint32
	for id, g := range first {
		if g == 2 {
			extraFirst = id
		}
	}
	for id, g := range second {
		if g == 2 {
			extraSecond = id
		}
	}
	if extraFirst == 0 || extraSecond == 0 || extraFirst == extraSecond {
		t.Fatalf("remainder did not rotate: slot0=%v slot1=%v", first, second)
	}
}

func TestRoundRobinSpillsToBacklogged(t *testing.T) {
	req := &Request{
		PRBBudget: 10,
		UEs: []UEInfo{
			mkUE(1, 800, 100, 0), // needs 1 PRB only
			mkUE(2, 800, 1_000_000, 0),
		},
	}
	resp, err := RoundRobin{}.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint32]uint32{}
	for _, a := range resp.Allocs {
		got[a.UEID] = a.PRBs
	}
	if got[1] != 1 || got[2] != 9 {
		t.Fatalf("spill: %v", got)
	}
}

func TestMaxThroughputOrdering(t *testing.T) {
	req := &Request{
		PRBBudget: 10,
		UEs: []UEInfo{
			mkUE(1, 400, 1_000_000, 0),
			mkUE(2, 800, 1_000_000, 0), // best channel wins all
		},
	}
	resp, err := MaxThroughput{}.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Allocs) != 1 || resp.Allocs[0].UEID != 2 || resp.Allocs[0].PRBs != 10 {
		t.Fatalf("MT allocs = %v", resp.Allocs)
	}
}

func TestMaxThroughputTieBreaksByID(t *testing.T) {
	req := &Request{
		PRBBudget: 4,
		UEs: []UEInfo{
			mkUE(9, 500, 200, 0),
			mkUE(3, 500, 200, 0),
		},
	}
	resp, err := MaxThroughput{}.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Allocs[0].UEID != 3 {
		t.Fatalf("tie break: %v", resp.Allocs)
	}
}

func TestProportionalFairFavorsStarved(t *testing.T) {
	req := &Request{
		PRBBudget: 10,
		UEs: []UEInfo{
			mkUE(1, 800, 1_000_000, 20e6), // rich history
			mkUE(2, 400, 1_000_000, 1e3),  // starved
		},
	}
	resp, err := ProportionalFair{}.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Allocs[0].UEID != 2 {
		t.Fatalf("PF should serve the starved UE first: %v", resp.Allocs)
	}
}

func TestSchedulersSkipInactiveUEs(t *testing.T) {
	req := &Request{
		PRBBudget: 10,
		UEs: []UEInfo{
			mkUE(1, 0, 100, 0),   // zero-rate channel
			mkUE(2, 500, 0, 0),   // empty buffer
			mkUE(3, 500, 100, 0), // the only schedulable UE
		},
	}
	for _, s := range []IntraSlice{RoundRobin{}, MaxThroughput{}, ProportionalFair{}} {
		resp, err := s.Schedule(req)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(resp.Allocs) != 1 || resp.Allocs[0].UEID != 3 {
			t.Fatalf("%s allocs = %v", s.Name(), resp.Allocs)
		}
	}
}

func TestSchedulersEmptyCases(t *testing.T) {
	for _, s := range []IntraSlice{RoundRobin{}, MaxThroughput{}, ProportionalFair{}} {
		resp, err := s.Schedule(&Request{PRBBudget: 10})
		if err != nil || len(resp.Allocs) != 0 {
			t.Fatalf("%s on empty UE list: %v, %v", s.Name(), resp.Allocs, err)
		}
		resp, err = s.Schedule(&Request{UEs: []UEInfo{mkUE(1, 500, 100, 0)}})
		if err != nil || len(resp.Allocs) != 0 {
			t.Fatalf("%s on zero budget: %v, %v", s.Name(), resp.Allocs, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"rr", "pf", "mt", "round-robin", "proportional-fair", "max-throughput"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("bogus"); ok {
		t.Error("ByName(bogus) succeeded")
	}
}

func TestResponseValidate(t *testing.T) {
	req := &Request{
		PRBBudget: 10,
		UEs:       []UEInfo{mkUE(1, 500, 100, 0), mkUE(2, 500, 100, 0)},
	}
	ok := &Response{Allocs: []Allocation{{UEID: 1, PRBs: 6}, {UEID: 2, PRBs: 4}}}
	if err := ok.Validate(req); err != nil {
		t.Errorf("valid response rejected: %v", err)
	}
	cases := map[string]*Response{
		"unknown UE":  {Allocs: []Allocation{{UEID: 9, PRBs: 1}}},
		"duplicate":   {Allocs: []Allocation{{UEID: 1, PRBs: 1}, {UEID: 1, PRBs: 1}}},
		"over budget": {Allocs: []Allocation{{UEID: 1, PRBs: 11}}},
	}
	for name, resp := range cases {
		if err := resp.Validate(req); !errors.Is(err, ErrInvalidResponse) {
			t.Errorf("%s: want ErrInvalidResponse, got %v", name, err)
		}
	}
}

// randomReq builds a randomized request for property tests.
func randomReq(rng *rand.Rand) *Request {
	req := &Request{
		Slot:      rng.Uint64(),
		PRBBudget: uint32(rng.Intn(60)),
	}
	n := rng.Intn(15)
	for i := 0; i < n; i++ {
		req.UEs = append(req.UEs, UEInfo{
			ID:          uint32(i + 1),
			MCS:         int32(rng.Intn(29)),
			BitsPerPRB:  uint32(rng.Intn(900)),
			BufferBytes: uint32(rng.Intn(100_000)),
			AvgTputBps:  rng.Float64() * 30e6,
		})
	}
	return req
}

// Property: every native scheduler emits a valid response (budget
// respected, no unknown or duplicate UEs) and never grants to inactive UEs.
func TestQuickSchedulerInvariants(t *testing.T) {
	scheds := []IntraSlice{RoundRobin{}, MaxThroughput{}, ProportionalFair{}}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		req := randomReq(rng)
		for _, s := range scheds {
			resp, err := s.Schedule(req)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if err := resp.Validate(req); err != nil {
				t.Fatalf("%s violated invariants: %v (req %+v)", s.Name(), err, req)
			}
			active := map[uint32]bool{}
			for _, u := range req.UEs {
				if u.BufferBytes > 0 && u.BitsPerPRB > 0 {
					active[u.ID] = true
				}
			}
			for _, a := range resp.Allocs {
				if !active[a.UEID] {
					t.Fatalf("%s granted to inactive UE %d", s.Name(), a.UEID)
				}
				if a.PRBs == 0 {
					t.Fatalf("%s emitted zero-PRB grant", s.Name())
				}
			}
		}
	}
}

// Property: schedulers are deterministic — same request, same answer.
func TestQuickSchedulerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scheds := []IntraSlice{RoundRobin{}, MaxThroughput{}, ProportionalFair{}}
	for trial := 0; trial < 100; trial++ {
		req := randomReq(rng)
		for _, s := range scheds {
			a, _ := s.Schedule(req)
			b, _ := s.Schedule(req)
			if len(a.Allocs) != len(b.Allocs) {
				t.Fatalf("%s nondeterministic", s.Name())
			}
			for i := range a.Allocs {
				if a.Allocs[i] != b.Allocs[i] {
					t.Fatalf("%s nondeterministic at %d", s.Name(), i)
				}
			}
		}
	}
}

// Property: work conservation — if total demand >= budget, the full budget
// is allocated.
func TestQuickWorkConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	scheds := []IntraSlice{RoundRobin{}, MaxThroughput{}, ProportionalFair{}}
	for trial := 0; trial < 300; trial++ {
		req := randomReq(rng)
		var demand uint64
		for i := range req.UEs {
			demand += uint64(prbsNeeded(&req.UEs[i]))
		}
		for _, s := range scheds {
			resp, _ := s.Schedule(req)
			total := uint64(totalPRBs(resp))
			want := uint64(req.PRBBudget)
			if demand < want {
				want = demand
			}
			if total != want {
				t.Fatalf("%s allocated %d PRBs, want %d (budget %d, demand %d)",
					s.Name(), total, want, req.PRBBudget, demand)
			}
		}
	}
}

func TestQuickPrbsNeeded(t *testing.T) {
	f := func(per uint16, buf uint32) bool {
		u := &UEInfo{BitsPerPRB: uint32(per), BufferBytes: buf}
		need := prbsNeeded(u)
		if per == 0 || buf == 0 {
			return need == 0
		}
		bits := uint64(buf) * 8
		// need is the least n with n*per >= bits, or MaxUint32 when that n
		// does not fit.
		if uint64(need)*uint64(per) < bits && need != math.MaxUint32 {
			return false
		}
		return uint64(need-1)*uint64(per) < bits
	}
	if !f(6, 0xc902643f) { // least n is 2^32 + 0xc033054: the draw that used to wrap
		t.Fatal("need past 2^32 PRBs is not saturated")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// totalPRBs sums the granted PRBs.
func totalPRBs(r *Response) uint32 {
	var t uint32
	for _, a := range r.Allocs {
		t += a.PRBs
	}
	return t
}
