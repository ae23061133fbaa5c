// Package core is WA-RAN's top level: it wires the Wasm plugin runtime, the
// two-level slice scheduler, and the RAN substrate into a runnable gNB, and
// provides the experiment harness that regenerates every figure of the
// paper's evaluation (Fig. 5a-5d and the §5D memory-safety matrix).
package core

import (
	"fmt"
	"maps"
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
	// Modules, when set, content-addresses uploaded plugin bytecode so
	// repeated uploads of identical bytes compile once. Cells created via
	// NewCellGroup share one cache; a standalone gNB gets its own.
	Modules *wabi.ModuleCache

	mu        sync.Mutex
	ues       []*ran.UE
	byID      map[uint32]*ran.UE
	fleet     *ran.UEFleet       // aggregate population, nil unless AttachFleet
	fleetWin  []*ran.UE          // fleet UEs materialized for the current slot
	fleetByID map[uint32]*ran.UE // grant lookup for the materialized window
	slot      uint64
	sliceRate map[uint32]float64 // served-rate EWMA per slice, for E2 KPM
	obsv      *gnbObs            // set by EnableObservability, nil otherwise
	scratch   slotScratch

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
	slices  []*slicing.Slice    // this slot's slice list, registration order
	reqs    []sched.Request     // one per slice; reqs[i].UEs is the slice's UE view
	demands []sched.SliceDemand // one per slice
	res     SlotResult          // the maps every Step clears and refills
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

// NewGNB creates a gNB for the given cell (defaults applied).
func NewGNB(cell ran.CellConfig) (*GNB, error) {
	cell = cell.WithDefaults()
	if err := cell.Validate(); err != nil {
		return nil, err
	}
	return &GNB{
		Cell:      cell,
		Slices:    slicing.NewManager(),
		Inter:     sched.TargetRate{},
		Modules:   wabi.NewModuleCache(),
		byID:      make(map[uint32]*ran.UE),
		sliceRate: make(map[uint32]float64),
		scratch: slotScratch{res: SlotResult{
			PerUE:    make(map[uint32]UEGrant),
			PerSlice: make(map[uint32]SliceSlot),
		}},
	}, nil
}

// AttachUE admits a UE to the cell. The UE's SliceID must name a registered
// slice (the admission-control role the paper delegates to the AMF).
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
// AttachUE's admission check. Each slot, the fleet's rotating active window
// competes for PRBs alongside explicitly attached UEs; the rest of the
// population accrues traffic lazily. One fleet per cell.
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
	g.fleet = f
	g.fleetByID = make(map[uint32]*ran.UE, f.ActiveK())
	return nil
}

// Fleet returns the attached aggregate population, if any.
func (g *GNB) Fleet() *ran.UEFleet {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fleet
}

// DetachUE removes a UE from the cell.
func (g *GNB) DetachUE(id uint32) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.detachLocked(id)
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

// UEGrant is the outcome of one slot for one UE.
type UEGrant struct {
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

// SlotResult reports everything that happened in one slot. Its maps are the
// cell's own slot scratch: a result is valid until that cell's next Step,
// which clears and refills them. Clone what must outlive it.
type SlotResult struct {
	Slot     uint64
	PerUE    map[uint32]UEGrant
	PerSlice map[uint32]SliceSlot
}

// Clone returns a copy that the cell's next Step leaves alone.
func (r SlotResult) Clone() SlotResult {
	return SlotResult{Slot: r.Slot, PerUE: maps.Clone(r.PerUE), PerSlice: maps.Clone(r.PerSlice)}
}

// Step advances the gNB by one slot: traffic and channel evolution,
// inter-slice division, intra-slice decisions (with fault protection), and
// grant application. The result is valid until the next Step (see
// SlotResult).
func (g *GNB) Step() SlotResult {
	g.mu.Lock()
	defer g.mu.Unlock()
	sc := &g.scratch
	res := sc.res
	res.Slot = g.slot
	clear(res.PerUE)
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
	// (its arrivals since last touch are accrued lazily inside Advance).
	for _, u := range g.ues {
		u.StepSlot(g.slot, g.Cell.SlotDuration)
	}
	if g.fleet != nil {
		g.fleetWin = g.fleet.Advance(g.slot, g.Cell.SlotDuration)
		clear(g.fleetByID)
		for _, u := range g.fleetWin {
			g.fleetByID[u.ID] = u
		}
	}

	// 2. Build per-slice UE views and demands.
	sc.slices = g.Slices.AppendSlices(sc.slices[:0])
	slices := sc.slices
	for len(sc.reqs) < len(slices) {
		sc.reqs = append(sc.reqs, sched.Request{})
	}
	sc.demands = sc.demands[:0]
	for i, s := range slices {
		view := sc.reqs[i].UEs[:0]
		var demandPRBs uint64
		for _, pool := range [2][]*ran.UE{g.ues, g.fleetWin} {
			for _, u := range pool {
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
		}
		sc.reqs[i].UEs = view
		d := sched.SliceDemand{
			SliceID:       s.ID,
			TargetRateBps: s.TargetRate(),
			AchievedBps:   g.sliceRate[s.ID],
			Weight:        s.Weight(),
		}
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
		req := &sc.reqs[i]
		if budget == 0 || len(req.UEs) == 0 {
			res.PerSlice[s.ID] = ss
			continue
		}
		req.SliceID, req.Slot, req.PRBBudget = s.ID, g.slot, budget
		before := s.Stats().FallbackSlots
		var schedStart time.Time
		if o != nil {
			schedStart = time.Now()
		}
		resp, err := g.Slices.Schedule(s, req)
		if err != nil {
			// Both plugin and fallback failed; skip the slice this slot.
			res.PerSlice[s.ID] = ss
			continue
		}
		ss.UsedFallback = s.Stats().FallbackSlots > before
		for _, a := range resp.Allocs {
			u, ok := g.byID[a.UEID]
			if !ok {
				u, ok = g.fleetByID[a.UEID]
			}
			if !ok {
				continue
			}
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
			res.PerUE[a.UEID] = UEGrant{PRBs: a.PRBs, Bits: served}
			ss.GrantedPRBs += a.PRBs
			ss.Bits += served
		}
		res.PerSlice[s.ID] = ss
		if o != nil {
			o.observeSlice(ev, s, ss, resp.FuelUsed, time.Since(schedStart))
		}
	}

	// UEs with no grant still update their PF average (toward zero).
	for _, pool := range [2][]*ran.UE{g.ues, g.fleetWin} {
		for _, u := range pool {
			if _, granted := res.PerUE[u.ID]; !granted {
				u.RecordService(0, g.Cell.SlotDuration, g.PFTimeConstant)
			}
		}
	}
	// Fold the window's outcomes back into the fleet's compact arrays and
	// rotate, so the next slot materializes a fresh cohort.
	if g.fleet != nil {
		g.fleet.Absorb(g.slot)
	}

	// Track served-rate EWMA per slice for E2 KPM reporting.
	slotSec := g.Cell.SlotDuration.Seconds()
	for id, ss := range res.PerSlice {
		inst := float64(ss.Bits) / slotSec
		g.sliceRate[id] = (1-sliceRateAlpha)*g.sliceRate[id] + sliceRateAlpha*inst
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
	return res
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

// NewPluginScheduler compiles-and-instantiates one of the built-in WAT
// scheduler plugins ("rr", "pf", "mt") under the given policy, ready to be
// installed into a slice. A zero Policy gets a 16 MiB memory cap and a
// 10M-instruction fuel budget — comfortable for 20 UEs, small enough to
// bound slot overruns.
func NewPluginScheduler(name string, policy wabi.Policy) (*sched.PluginScheduler, error) {
	mod, err := plugins.CompileScheduler(name)
	if err != nil {
		return nil, err
	}
	if policy.MaxMemoryPages == 0 {
		policy.MaxMemoryPages = 256
	}
	if policy.Fuel == 0 {
		policy.Fuel = 10_000_000
	}
	p, err := wabi.NewPlugin(mod, policy, wabi.Env{})
	if err != nil {
		return nil, err
	}
	return sched.NewPluginScheduler(name, p, nil)
}

// SlotsForDuration converts an experiment duration into a slot count.
func SlotsForDuration(cell ran.CellConfig, d time.Duration) int {
	return int(d / cell.SlotDuration)
}
