package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"waran/internal/core"
	"waran/internal/obs"
	"waran/internal/ran"
	"waran/internal/sched"
	"waran/internal/wabi"
)

// sliceSpec is one MVNO of the paper's Fig. 5a cell: scheduler and
// contracted rate (the cmd/gnb default -slices).
type sliceSpec struct {
	id      uint32
	sched   string
	rateBps float64
}

var fig5aSlices = []sliceSpec{{1, "mt", 3e6}, {2, "rr", 12e6}, {3, "pf", 15e6}}

// traceRingDepth is cmd/gnb's slot-ring depth.
const traceRingDepth = 512

// ueSpec is one UE as the seed drew it. The program only ever receives the
// constructed ran.UE values.
type ueSpec struct {
	id, slice   uint32
	mcs         int
	rateBps     float64
	backlogBits int64 // traffic phase: bits already queued at slot 0
}

// fig5aLoad is the Fig. 5a overload factor: each slice is offered 1.4x its
// contracted rate, which the inter-slice scheduler serves at 1.0x, so every
// UE stays backlogged and every scheduler sees its full UE list every slot.
const fig5aLoad = 1.4

// drawUEs draws a cell's population: MCS uniform in [16, 28], each UE's CBR
// rate load times its share of the slice's rate, scaled by a factor in
// [0.9, 1.1], and up to one slot's worth of initial backlog so sources are
// not phase-aligned.
func drawUEs(rng *rand.Rand, slices []sliceSpec, perSlice int, load float64) []ueSpec {
	var out []ueSpec
	id := uint32(1)
	for _, sp := range slices {
		for k := 0; k < perSlice; k++ {
			rate := load * sp.rateBps / float64(perSlice) * (0.9 + 0.2*rng.Float64())
			out = append(out, ueSpec{
				id: id, slice: sp.id,
				mcs:         16 + rng.Intn(13),
				rateBps:     rate,
				backlogBits: int64(rng.Float64() * rate / 1000),
			})
			id++
		}
	}
	return out
}

func (u ueSpec) build() *ran.UE {
	ue := ran.NewUE(u.id, u.slice, u.mcs)
	ue.Traffic = ran.NewCBR(u.rateBps)
	ue.EnqueueBits(u.backlogBits)
	return ue
}

// cellOpts shapes one build of a cell_* workload.
type cellOpts struct {
	cells, uesPerSlice int
	par                int       // CellGroupConfig.Parallelism
	obsOff             bool      // skip registry + slot ring (the obs.registry_on_ratio arm)
	rec                *recorder // non-nil: install the decorators
}

// cellSystem is a built cell_* workload: a cell group assembled the way
// cmd/gnb assembles one, plus the handles the harness reads stats through.
type cellSystem struct {
	opts  cellOpts
	cg    *core.CellGroup
	pools []*sched.PoolScheduler // one per slice, shared across cells

	slot    uint64 // next group slot
	prbs    uint32
	samples map[string]*sampleBox[*sched.Request] // by scheduler name, traced runs

	attempted, failed uint64
	failure           string // first oracle violation seen
	lastBudget        map[uint32]uint32
}

// buildCells assembles the group: NewCellGroup -> AddSlice/AttachUE ->
// InstallPooledScheduler with the zero wabi.Policy -> registry + slot ring,
// in cmd/gnb's order.
func buildCells(seed int64, o cellOpts) (*cellSystem, error) {
	cg, err := core.NewCellGroup(ran.CellConfig{}, core.CellGroupConfig{Cells: o.cells, Parallelism: o.par})
	if err != nil {
		return nil, err
	}
	s := &cellSystem{opts: o, cg: cg, prbs: uint32(cg.Cell(0).Cell.PRBs),
		samples: map[string]*sampleBox[*sched.Request]{}, lastBudget: map[uint32]uint32{}}
	var reg *obs.Registry
	if !o.obsOff {
		reg = obs.NewRegistry()
	}
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < o.cells; c++ {
		cell := cg.Cell(c)
		for _, sp := range fig5aSlices {
			name := fmt.Sprintf("slice-%d(%s)", sp.id, sp.sched)
			if _, err := cell.Slices.AddSlice(sp.id, name, sp.rateBps, sched.RoundRobin{}, nil); err != nil {
				return nil, err
			}
		}
		for _, u := range drawUEs(rng, fig5aSlices, o.uesPerSlice, fig5aLoad) {
			if err := cell.AttachUE(u.build()); err != nil {
				return nil, err
			}
		}
	}
	for _, sp := range fig5aSlices {
		ps, err := cg.InstallPooledScheduler(sp.id, sp.sched, wabi.Policy{}, o.cells)
		if err != nil {
			return nil, err
		}
		if reg != nil {
			label := obs.L("slice", strconv.FormatUint(uint64(sp.id), 10))
			ps.Register(reg, label)
			ps.Pool().Register(reg, label)
		}
		s.pools = append(s.pools, ps)
	}
	if reg != nil {
		cg.EnableObservability(reg, obs.NewTraceRing(traceRingDepth))
	}
	if o.rec != nil {
		s.decorate(o.rec)
	}
	return s, nil
}

// decorate hot-swaps a tracedIntra around every installed scheduler and
// wraps each cell's inter-slice scheduler.
func (s *cellSystem) decorate(rec *recorder) {
	for i, sp := range fig5aSlices {
		box := &sampleBox[*sched.Request]{}
		s.samples[sp.sched] = box
		for c := 0; c < s.opts.cells; c++ {
			cell := s.cg.Cell(c)
			// HotSwap only fails for a nil scheduler or an unknown slice.
			_ = cell.Slices.HotSwap(sp.id, &tracedIntra{inner: s.pools[i], lane: rec.lanes[c], samples: box})
		}
	}
	for c := 0; c < s.opts.cells; c++ {
		cell := s.cg.Cell(c)
		cell.Inter = &tracedInter{inner: cell.Inter, lane: rec.lanes[c]}
	}
}

// step advances the group one slot and runs the per-slot oracle. It returns
// the wall time of the StepAll call alone.
func (s *cellSystem) step() time.Duration {
	start := time.Now()
	results := s.cg.StepAll()
	wall := time.Since(start)
	if rec := s.opts.rec; rec != nil {
		from := int64(start.Sub(rec.epoch))
		rec.lanes[0].addOp(kindSlot, s.slot, from, from+int64(wall))
	}
	s.slot++
	for c := range results {
		s.attempted++
		if why := checkSlot(results[c], s.prbs); why != "" {
			s.failed++
			if s.failure == "" {
				s.failure = fmt.Sprintf("cell %d slot %d: %s", c, results[c].Slot, why)
			}
		}
	}
	for id, ss := range results[0].PerSlice {
		s.lastBudget[id] = ss.BudgetPRBs
	}
	return wall
}

// checkSlot is the per-slot oracle: PRB conservation across the cell, no
// slice granted beyond its budget, no slice served by the native fallback
// (a fallback means the plugin faulted), and every slice scheduled. It
// returns "" for a clean slot.
func checkSlot(r core.SlotResult, cellPRBs uint32) string {
	var granted, budget uint32
	for id, ss := range r.PerSlice {
		granted += ss.GrantedPRBs
		budget += ss.BudgetPRBs
		if ss.GrantedPRBs > ss.BudgetPRBs {
			return fmt.Sprintf("slice %d granted %d PRBs over its budget %d", id, ss.GrantedPRBs, ss.BudgetPRBs)
		}
		if ss.UsedFallback {
			return fmt.Sprintf("slice %d used the native fallback", id)
		}
	}
	if granted > cellPRBs || budget > cellPRBs {
		return fmt.Sprintf("granted %d / budgeted %d PRBs of %d", granted, budget, cellPRBs)
	}
	if len(r.PerSlice) != len(fig5aSlices) {
		return fmt.Sprintf("%d of %d slices reported", len(r.PerSlice), len(fig5aSlices))
	}
	return ""
}

// firstOp steps the group's first slot.
func (s *cellSystem) firstOp() error {
	s.step()
	if s.failed > 0 {
		return errors.New(s.failure)
	}
	return nil
}

// stability is the set of counters warm-up waits on: pool sizes, module
// promotions and per-tier call counts stop moving once lazy set-up is done.
type stability struct {
	created, promotions uint64
	tiersSeen           [3]bool // interp, fused, closure have served a call
}

func (s *cellSystem) stability() stability {
	var st stability
	for _, ps := range s.pools {
		st.created += uint64(ps.Pool().Stats().Created)
		ss := ps.Stats()
		for i, calls := range []uint64{ss.TierInterpCalls, ss.TierFusedCalls, ss.TierClosureCalls} {
			st.tiersSeen[i] = st.tiersSeen[i] || calls > 0
		}
	}
	st.promotions = s.cg.Modules.Stats().TierPromotions
	return st
}

// warmSlots is the least warm-up: three PF time constants (1000 slots), so
// the long-term throughput averages the schedulers sort by have settled.
const warmSlots = 3000

// warm steps the group until pool sizes and tier counters stop changing
// between consecutive 500-slot windows (and at least warmSlots).
func (s *cellSystem) warm() error {
	prev := s.stability()
	for done := 0; ; {
		for i := 0; i < 500; i++ {
			s.step()
		}
		done += 500
		cur := s.stability()
		if done >= warmSlots && cur == prev {
			break
		}
		if done > 40*warmSlots {
			return fmt.Errorf("warm-up did not settle after %d slots: %+v", done, cur)
		}
		prev = cur
	}
	if s.failed > 0 {
		return fmt.Errorf("warm-up: %s", s.failure)
	}
	s.attempted, s.failed = 0, 0
	return nil
}

// run is the timed closed loop: one driver calling StepAll back to back for
// d, cut into segs equal segments.
func (s *cellSystem) run(d time.Duration, segs int) *phase {
	p := newPhase(segs)
	segLen := d / time.Duration(segs)
	attempted0, failed0 := s.attempted, s.failed
	begin := time.Now()
	for seg := 0; seg < segs; seg++ {
		p.startSegment()
		until := begin.Add(time.Duration(seg+1) * segLen)
		for time.Now().Before(until) {
			p.add(float64(s.step())/1e3, s.opts.cells)
		}
		p.endSegment()
	}
	p.attempted, p.failed, p.failure = s.attempted-attempted0, s.failed-failed0, s.failure
	return p
}

// verify is the end-of-run oracle: no scheduler fault, no fallback slot, no
// pool discard, and a replayed sample of requests gives bit-identical
// allocations from the plugin and from the native scheduler.
func (s *cellSystem) verify() error {
	for i, ps := range s.pools {
		if st := ps.Stats(); st.Faults != 0 {
			return fmt.Errorf("scheduler %s: %d faults", fig5aSlices[i].sched, st.Faults)
		}
		if st := ps.Pool().Stats(); st.Discards != 0 || st.CreateFails != 0 {
			return fmt.Errorf("pool %s: %d discards, %d create failures", fig5aSlices[i].sched, st.Discards, st.CreateFails)
		}
	}
	for c := 0; c < s.opts.cells; c++ {
		for _, sl := range s.cg.Cell(c).Slices.Slices() {
			if st := sl.Stats(); st.FallbackSlots != 0 || st.TotalFaults != 0 {
				return fmt.Errorf("cell %d slice %d: %d fallback slots, %d faults", c, sl.ID, st.FallbackSlots, st.TotalFaults)
			}
		}
	}
	for _, sp := range fig5aSlices {
		if err := checkReplay(sp.sched, s.replayRequests(sp)); err != nil {
			return err
		}
	}
	return nil
}

// replayRequests returns the requests the replays run on: the sampled live
// ones in a traced run, otherwise requests rebuilt from each cell's final UE
// state the way core.GNB.Step builds them.
func (s *cellSystem) replayRequests(sp sliceSpec) []*sched.Request {
	if box := s.samples[sp.sched]; box != nil {
		if reqs := box.samples(); len(reqs) > 0 {
			return reqs
		}
	}
	var reqs []*sched.Request
	for c := 0; c < s.opts.cells; c++ {
		cell := s.cg.Cell(c)
		req := &sched.Request{SliceID: sp.id, Slot: cell.Slot(), PRBBudget: s.lastBudget[sp.id]}
		if req.PRBBudget == 0 {
			req.PRBBudget = s.prbs / uint32(len(fig5aSlices))
		}
		for _, u := range cell.UEs() {
			if u.SliceID != sp.id {
				continue
			}
			req.UEs = append(req.UEs, sched.UEInfo{
				ID: u.ID, MCS: int32(u.MCS), BitsPerPRB: uint32(cell.Cell.BitsPerPRB(u.MCS)),
				BufferBytes: u.BufferBytes(), AvgTputBps: u.AvgTputBps,
			})
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// checkReplay runs each request through a fresh plugin scheduler and through
// the native scheduler of the same name and requires identical allocations.
func checkReplay(name string, reqs []*sched.Request) error {
	native, ok := sched.ByName(name)
	if !ok {
		return fmt.Errorf("replay: no native scheduler %q", name)
	}
	plugin, err := core.NewPluginScheduler(name, wabi.Policy{})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	return sameDecisions(plugin, native, reqs)
}

// sameDecisions requires got and want to allocate identically on every
// request.
func sameDecisions(got, want sched.IntraSlice, reqs []*sched.Request) error {
	for _, req := range reqs {
		w, err := want.Schedule(req)
		if err != nil {
			return fmt.Errorf("replay: %s: %w", want.Name(), err)
		}
		g, err := got.Schedule(req)
		if err != nil {
			return fmt.Errorf("replay: %s: %w", got.Name(), err)
		}
		if !sameAllocs(g.Allocs, w.Allocs) {
			return fmt.Errorf("replay: %s and %s disagree on slot %d: %v vs %v", got.Name(), want.Name(), req.Slot, g.Allocs, w.Allocs)
		}
	}
	return nil
}

func sameAllocs(a, b []sched.Allocation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (s *cellSystem) close() {}

// nproc is the load generator's ceiling: driver goroutines, E2 connections
// and cell-group parallelism never exceed it.
func nproc() int { return runtime.GOMAXPROCS(0) }
