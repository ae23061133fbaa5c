// Package core is WA-RAN's top level: it wires the Wasm plugin runtime, the
// two-level slice scheduler, and the RAN substrate into a runnable gNB, and
// provides the experiment harness that regenerates every figure of the
// paper's evaluation (Fig. 5a-5d and the §5D memory-safety matrix).
package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"waran/internal/obs"
	"waran/internal/obs/trace"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/sched"
	"waran/internal/slicing"
	"waran/internal/wabi"
)

// GNB is a slot-clocked base station MAC with WA-RAN slicing: per slot it
// runs the inter-slice scheduler, consults each slice's (possibly
// plugin-hosted) intra-slice scheduler, and applies the grants to UE queues.
type GNB struct {
	Cell   ran.CellConfig
	Slices *slicing.Manager
	// Inter divides PRBs among slices; defaults to sched.TargetRate.
	Inter sched.InterSlice
	// PFTimeConstant is the EWMA horizon (slots) for long-term throughput.
	PFTimeConstant float64
	// Modules content-addresses uploaded plugin bytecode so repeated
	// uploads of identical bytes compile once. Cells created via
	// NewCellGroup share one cache; a standalone gNB gets its own.
	Modules *wabi.ModuleCache

	group    *CellGroup // the group g is a cell of; nil for a lone gNB
	mu       sync.Mutex
	ues      []*ran.UE
	byID     map[uint32]*ran.UE // the admin paths: attach, detach, UE
	fleet    *ran.UEFleet       // aggregate population, nil unless AttachFleet
	fleetWin []*ran.UE          // fleet UEs materialized for the current slot
	slot     uint64
	rates    []sliceRate // served-rate EWMA per slice, for E2 KPM
	obsv     *gnbObs     // set by EnableObservability, nil otherwise
	scratch  slotScratch
	// snapSlices is Snapshot's copy of the slice list, reused under mu.
	snapSlices []*slicing.Slice

	// Causal tracing (EnableTracing). effect is the armed slot.effect span:
	// set when a traced control is applied, closed at the end of the next
	// slot — the first one the reconfigured scheduler serves. Both Apply and
	// Step hold mu, so no extra synchronization is needed, and the disabled
	// path costs Step a single nil check.
	tracer    *trace.Tracer
	traceCell uint32
	effect    *effectArm
}

// slotScratch is everything Step builds anew each slot, kept so that a
// steady-state slot allocates nothing: it is overwritten under mu by the
// next Step, which is why a SlotResult is valid only until then.
type slotScratch struct {
	slices []*slicing.Slice // this slot's slice list, registration order
	// ues is this slot's UEs, the attached ones then the fleet window; index
	// maps a UE ID to its position there (the first: an attached UE shadows
	// a fleet UE of the same ID) and granted marks the positions served.
	ues     []*ran.UE
	index   sched.IDIndex
	granted []bool
	grants  []UEGrant           // the array behind res.PerUE
	reqs    []sched.Request     // one per slice; reqs[i].UEs is the slice's UE view
	demands []sched.SliceDemand // one per slice
	res     SlotResult          // what every Step empties and refills
	event   obs.SlotEvent       // the trace entry, copied into the ring
}

// effectArm is a pending slot.effect span: the decision it closes and when
// that decision was applied.
type effectArm struct {
	ctx     trace.Context
	startNs int64
}

// sliceRateAlpha is the EWMA weight for per-slice served rate reporting.
const sliceRateAlpha = 1.0 / 200

// sliceRate is one slice's served-rate EWMA. GNB.rates keeps them in the
// slice list's registration order, so Step reaches a slice's rate by its
// position; alignRates re-keys the list when slices come or go.
type sliceRate struct {
	id   uint32
	bps  float64
	bits int64 // served this slot
}

// alignRates makes g.rates parallel to slices, keeping the rate of every
// slice the last slot served; any other slice starts from zero.
func (g *GNB) alignRates(slices []*slicing.Slice) {
	if len(g.rates) == len(slices) {
		i := 0
		for i < len(slices) && g.rates[i].id == slices[i].ID {
			i++
		}
		if i == len(slices) {
			return
		}
	}
	old := g.rates
	g.rates = make([]sliceRate, len(slices))
	for i, s := range slices {
		g.rates[i].id = s.ID
		g.rates[i].bps = servedBps(old, s.ID)
	}
}

// servedBps looks a slice's served-rate EWMA up by ID: zero for one no
// slot has seen yet.
func servedBps(rates []sliceRate, id uint32) float64 {
	for _, r := range rates {
		if r.id == id {
			return r.bps
		}
	}
	return 0
}

// NewGNB creates a gNB for the given cell (defaults applied).
func NewGNB(cell ran.CellConfig) (*GNB, error) {
	cell = cell.WithDefaults()
	if err := cell.Validate(); err != nil {
		return nil, err
	}
	return &GNB{
		Cell:    cell,
		Slices:  slicing.NewManager(),
		Inter:   sched.TargetRate{},
		Modules: wabi.NewModuleCache(),
		byID:    make(map[uint32]*ran.UE),
		scratch: slotScratch{res: SlotResult{PerSlice: make(map[uint32]SliceSlot)}},
	}, nil
}

// AttachUE admits a UE to the cell. The UE's SliceID must name a registered
// slice (the admission-control role the paper delegates to the AMF), and
// its ID must be free: neither attached nor inside an attached fleet's ID
// range, where the slice's request would carry the ID twice and every
// decision would fail validation.
func (g *GNB) AttachUE(ue *ran.UE) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.Slices.Slice(ue.SliceID)
	if !ok {
		return fmt.Errorf("core: UE %d subscribes to unknown slice %d", ue.ID, ue.SliceID)
	}
	if _, dup := g.byID[ue.ID]; dup {
		return fmt.Errorf("core: UE %d already attached", ue.ID)
	}
	if g.fleet != nil && g.fleet.Owns(ue.ID) {
		return fmt.Errorf("core: UE %d collides with the cell's fleet IDs", ue.ID)
	}
	if s.MaxUEs > 0 {
		attached := 0
		for _, u := range g.ues {
			if u.SliceID == ue.SliceID {
				attached++
			}
		}
		if attached >= s.MaxUEs {
			return fmt.Errorf("core: slice %d is full (%d UEs)", ue.SliceID, s.MaxUEs)
		}
	}
	g.ues = append(g.ues, ue)
	g.byID[ue.ID] = ue
	return nil
}

// AttachFleet admits an aggregate modeled population (ran.UEFleet) to the
// cell. Every slice the fleet subscribes to must already be registered, like
// AttachUE's admission check, and its ID range must cover no attached UE.
// Each slot, the fleet's rotating active window competes for PRBs alongside
// explicitly attached UEs; the rest of the population accrues traffic
// lazily. One fleet per cell.
func (g *GNB) AttachFleet(f *ran.UEFleet) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.fleet != nil {
		return fmt.Errorf("core: cell already has a fleet of %d UEs", g.fleet.Size())
	}
	for _, id := range f.SliceIDs() {
		if _, ok := g.Slices.Slice(id); !ok {
			return fmt.Errorf("core: fleet subscribes to unknown slice %d", id)
		}
	}
	for _, u := range g.ues {
		if f.Owns(u.ID) {
			return fmt.Errorf("core: fleet IDs cover attached UE %d", u.ID)
		}
	}
	g.fleet = f
	return nil
}

// Fleet returns the attached aggregate population, if any.
func (g *GNB) Fleet() *ran.UEFleet {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fleet
}

func (g *GNB) detachLocked(id uint32) error {
	if _, ok := g.byID[id]; !ok {
		return fmt.Errorf("core: UE %d not attached", id)
	}
	delete(g.byID, id)
	for i, u := range g.ues {
		if u.ID == id {
			g.ues = append(g.ues[:i], g.ues[i+1:]...)
			break
		}
	}
	return nil
}

// UEs returns a snapshot of the attached UEs in attach order.
func (g *GNB) UEs() []*ran.UE {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*ran.UE(nil), g.ues...)
}

// UE looks up an attached UE.
func (g *GNB) UE(id uint32) (*ran.UE, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	u, ok := g.byID[id]
	return u, ok
}

// Slot returns the current slot counter.
func (g *GNB) Slot() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.slot
}

// UEGrant is the outcome of one slot for one granted UE.
type UEGrant struct {
	UEID uint32
	PRBs uint32
	Bits int64
}

// SliceSlot aggregates one slot's outcome per slice.
type SliceSlot struct {
	BudgetPRBs   uint32
	GrantedPRBs  uint32
	Bits         int64
	UsedFallback bool
}

// SlotResult reports everything that happened in one slot. PerUE lists the
// grants in the order they were applied, slice by slice; a UE without a
// grant is absent. PerUE's array and the PerSlice map are the cell's own slot
// scratch: a result is valid until that cell's next Step, which empties and
// refills them. Clone what must outlive it.
type SlotResult struct {
	Slot     uint64
	PerUE    []UEGrant
	PerSlice map[uint32]SliceSlot
}

// Clone returns a copy that the cell's next Step leaves alone.
func (r SlotResult) Clone() SlotResult {
	return SlotResult{Slot: r.Slot, PerUE: slices.Clone(r.PerUE), PerSlice: maps.Clone(r.PerSlice)}
}

// Step advances the gNB by one slot: traffic and channel evolution,
// inter-slice division, intra-slice decisions (with fault protection), and
// grant application. The result is valid until the next Step (see
// SlotResult). Every grant is resolved to its UE through one ID index built
// per slot, so the decision path does no map operation per UE.
func (g *GNB) Step() SlotResult {
	g.mu.Lock()
	defer g.mu.Unlock()
	sc := &g.scratch
	res := &sc.res
	res.Slot = g.slot
	grants := sc.grants[:0]
	clear(res.PerSlice)

	o := g.obsv
	var slotStart time.Time
	var ev *obs.SlotEvent
	if o != nil {
		slotStart = time.Now()
		if o.ring != nil {
			ev = &sc.event
			*ev = obs.SlotEvent{Slices: ev.Slices[:0]}
		}
	}

	// 1. Evolve traffic and channels; materialize this slot's fleet window
	// (its arrivals since last touch are accrued lazily inside Advance) and
	// index the slot's UEs by ID.
	for _, u := range g.ues {
		u.StepSlot(g.slot, g.Cell.SlotDuration)
	}
	if g.fleet != nil {
		g.fleetWin = g.fleet.Advance(g.slot, g.Cell.SlotDuration)
	}
	sc.ues = append(append(sc.ues[:0], g.ues...), g.fleetWin...)
	ues := sc.ues
	sc.index.Reset(len(ues))
	for i, u := range ues {
		sc.index.Add(u.ID, uint32(i))
	}
	sc.granted = append(sc.granted[:0], make([]bool, len(ues))...)

	// 2. Build per-slice UE views and demands.
	sc.slices = g.Slices.AppendSlices(sc.slices[:0])
	slices := sc.slices
	g.alignRates(slices)
	for len(sc.reqs) < len(slices) {
		sc.reqs = append(sc.reqs, sched.Request{})
	}
	sc.demands = sc.demands[:0]
	for i, s := range slices {
		view := sc.reqs[i].UEs[:0]
		var demandPRBs uint64
		for _, u := range ues {
			if u.SliceID != s.ID {
				continue
			}
			per := uint32(g.Cell.BitsPerPRB(u.MCS))
			view = append(view, sched.UEInfo{
				ID:          u.ID,
				MCS:         int32(u.MCS),
				BitsPerPRB:  per,
				BufferBytes: u.BufferBytes(),
				AvgTputBps:  u.AvgTputBps,
			})
			if per > 0 && u.BufferBits > 0 {
				demandPRBs += (uint64(u.BufferBits) + uint64(per) - 1) / uint64(per)
			}
		}
		sc.reqs[i].UEs = view
		d := sched.SliceDemand{SliceID: s.ID, AchievedBps: g.rates[i].bps}
		d.TargetRateBps, d.Weight = s.TargetAndWeight()
		if demandPRBs > uint64(g.Cell.PRBs) {
			demandPRBs = uint64(g.Cell.PRBs)
		}
		d.DemandPRBs = uint32(demandPRBs)
		sc.demands = append(sc.demands, d)
	}

	// 3. Inter-slice division.
	inter := g.Inter
	if inter == nil {
		inter = sched.TargetRate{}
	}
	shares := inter.Divide(g.slot, uint32(g.Cell.PRBs), sc.demands)

	// 4. Intra-slice decisions and grant application.
	for i, s := range slices {
		budget := shares[s.ID]
		ss := SliceSlot{BudgetPRBs: budget}
		g.rates[i].bits = 0
		req := &sc.reqs[i]
		if budget == 0 || len(req.UEs) == 0 {
			res.PerSlice[s.ID] = ss
			continue
		}
		req.SliceID, req.Slot, req.PRBBudget = s.ID, g.slot, budget
		var schedStart time.Time
		if o != nil {
			schedStart = time.Now()
		}
		resp, fellBack, err := g.Slices.Schedule(s, req)
		if err != nil {
			// Both plugin and fallback failed; skip the slice this slot.
			res.PerSlice[s.ID] = ss
			continue
		}
		ss.UsedFallback = fellBack
		for _, a := range resp.Allocs {
			pos, ok := sc.index.Get(a.UEID)
			if !ok {
				continue
			}
			u := ues[pos]
			tbs := int64(g.Cell.TransportBlockBits(u.MCS, int(a.PRBs)))
			served := tbs
			if served > u.BufferBits {
				served = u.BufferBits
			}
			if u.HARQ != nil {
				// A failed transport block delivers nothing this slot; the
				// data stays queued and is rescheduled (retransmission).
				served = u.HARQ.Transmit(served, u.MCS, u.MCS)
				if served > 0 {
					u.HARQ.AckRetx(served)
				}
			}
			u.RecordService(served, g.Cell.SlotDuration, g.PFTimeConstant)
			sc.granted[pos] = true
			grants = append(grants, UEGrant{UEID: a.UEID, PRBs: a.PRBs, Bits: served})
			ss.GrantedPRBs += a.PRBs
			ss.Bits += served
		}
		res.PerSlice[s.ID] = ss
		g.rates[i].bits = ss.Bits
		if o != nil {
			o.observeSlice(ev, s, ss, resp.FuelUsed, time.Since(schedStart))
		}
	}

	sc.grants, res.PerUE = grants, grants

	// UEs with no grant still update their PF average (toward zero).
	for i, u := range ues {
		if !sc.granted[i] {
			u.RecordService(0, g.Cell.SlotDuration, g.PFTimeConstant)
		}
	}
	// Fold the window's outcomes back into the fleet's compact arrays and
	// rotate, so the next slot materializes a fresh cohort.
	if g.fleet != nil {
		g.fleet.Absorb(g.slot)
	}

	// Track served-rate EWMA per slice for E2 KPM reporting.
	slotSec := g.Cell.SlotDuration.Seconds()
	for i := range g.rates {
		r := &g.rates[i]
		inst := float64(r.bits) / slotSec
		r.bps = (1-sliceRateAlpha)*r.bps + sliceRateAlpha*inst
	}

	if o != nil {
		o.finishSlot(ev, g.slot, time.Since(slotStart))
	}
	if g.effect != nil {
		// First slot served after a traced control decision: close the loop.
		now := time.Now().UnixNano()
		g.tracer.Record(&trace.Span{
			TraceID: g.effect.ctx.TraceID, SpanID: trace.NewSpanID(), Parent: g.effect.ctx.SpanID,
			Name: trace.SpanSlotEffect, Plane: trace.PlaneGNB,
			Slot: g.slot, Cell: g.traceCell,
			StartNs: g.effect.startNs, DurNs: now - g.effect.startNs,
		})
		g.effect = nil
	}
	g.slot++
	return *res
}

// EnableTracing attaches the causal tracing layer: traced control requests
// (ApplyTraced) record gnb.apply, swap.canary and slot.effect spans on the
// gNB plane, labeled with this cell. A nil tracer disables tracing.
func (g *GNB) EnableTracing(tr *trace.Tracer, cell uint32) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tracer = tr
	g.traceCell = cell
	if tr == nil {
		g.effect = nil
	}
}

// RunSlots advances n slots, invoking observe (if non-nil) per slot. Each
// result is valid for the duration of that observe call.
func (g *GNB) RunSlots(n int, observe func(SlotResult)) {
	for i := 0; i < n; i++ {
		r := g.Step()
		if observe != nil {
			observe(r)
		}
	}
}

// NewPluginScheduler compiles one of the built-in WAT scheduler plugins
// ("rr", "pf", "mt") under the given policy (no fuel means wabi.DefaultFuel)
// into a pool of one sandbox, ready to be installed into a slice. Concurrent
// callers queue for its one instance; a trapped instance is replaced.
func NewPluginScheduler(name string, policy wabi.Policy) (*sched.PoolScheduler, error) {
	mod, err := plugins.CompileScheduler(name)
	if err != nil {
		return nil, err
	}
	return sched.NewPoolScheduler(name, wabi.NewPool(mod, defaultPolicy(policy), wabi.Env{}, 1))
}

// SlotsForDuration converts an experiment duration into a slot count.
func SlotsForDuration(cell ran.CellConfig, d time.Duration) int {
	return int(d / cell.SlotDuration)
}
