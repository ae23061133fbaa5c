package ran

import (
	"fmt"
	"math"
	"time"
)

// MaxFleetActive caps a fleet's concurrently scheduled window. The bound
// keeps the per-slot scheduler input within what the zero-copy plugin ABI
// carries in one request (512 UEs) with ample headroom for explicitly
// attached UEs sharing the cell.
const MaxFleetActive = 128

// DefaultFleetActive is the window size when FleetConfig.ActiveK is zero.
const DefaultFleetActive = 64

// FleetConfig parameterizes a modeled UE population.
type FleetConfig struct {
	// UEs is the total modeled population (required, > 0).
	UEs int
	// ActiveK is how many fleet UEs are materialized for the scheduler
	// each slot (default DefaultFleetActive, capped at MaxFleetActive).
	ActiveK int
	// SliceIDs are the slices the population subscribes to, assigned per
	// UE by hash (required, non-empty).
	SliceIDs []uint32
	// MeanRateBps is the per-UE offered load; individual rates are
	// jittered ±50% around it by hash (default 64 kb/s).
	MeanRateBps float64
	// Seed selects the per-UE hash draws (0 behaves as 1).
	Seed int64
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.ActiveK == 0 {
		c.ActiveK = DefaultFleetActive
	}
	if c.MeanRateBps == 0 {
		c.MeanRateBps = 64e3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate rejects configurations NewUEFleet would have to guess about.
func (c FleetConfig) Validate() error {
	if c.UEs <= 0 {
		return fmt.Errorf("ran: fleet needs a positive UE count, got %d", c.UEs)
	}
	if c.ActiveK < 0 || c.ActiveK > MaxFleetActive {
		return fmt.Errorf("ran: fleet active window %d outside [0, %d]", c.ActiveK, MaxFleetActive)
	}
	if len(c.SliceIDs) == 0 {
		return fmt.Errorf("ran: fleet needs at least one slice")
	}
	if len(c.SliceIDs) > 256 {
		return fmt.Errorf("ran: fleet supports at most 256 slices, got %d", len(c.SliceIDs))
	}
	if c.MeanRateBps < 0 {
		return fmt.Errorf("ran: negative fleet rate %f", c.MeanRateBps)
	}
	return nil
}

// UEFleet models thousands of UEs per cell at O(ActiveK) per-slot cost —
// the aggregation that makes a city-scale run tractable. Per-UE state lives
// in flat arrays (a few bytes each, not a UE struct with models attached);
// traffic arrival is accrued lazily — backlog(t) = backlog(touch) +
// rate x (t - touch) — only when a UE is touched; and each slot only a
// rotating window of ActiveK UEs is materialized as real *UE values for the
// scheduler, so every UE still periodically competes for PRBs, reports
// measurable throughput, and overflows its finite buffer under sustained
// load.
//
// The fleet is not safe for concurrent use; it is owned by one cell's slot
// loop (GNB.Step holds the cell lock while advancing it).
type UEFleet struct {
	cfg     FleetConfig
	slotDur time.Duration // set on first Advance

	// Per-UE compact state, indexed 0..UEs-1.
	mcs      []uint8
	sliceIdx []uint8 // index into cfg.SliceIDs
	rateBps  []float32
	backlog  []int64 // queued bits at lastSlot
	avgTput  []float32
	lastSlot []int64 // last slot this UE was materialized (-1 = never)

	pos    int   // rotation cursor: next window starts here
	winIdx []int // population indexes materialized in the current window
	window []*UE // reused UE values backing the current window

	delivered int64
	dropped   int64
}

// NewUEFleet builds the population from a validated config.
func NewUEFleet(cfg FleetConfig) (*UEFleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	f := &UEFleet{
		cfg:      cfg,
		mcs:      make([]uint8, cfg.UEs),
		sliceIdx: make([]uint8, cfg.UEs),
		rateBps:  make([]float32, cfg.UEs),
		backlog:  make([]int64, cfg.UEs),
		avgTput:  make([]float32, cfg.UEs),
		lastSlot: make([]int64, cfg.UEs),
		winIdx:   make([]int, 0, cfg.ActiveK),
		window:   make([]*UE, cfg.ActiveK),
	}
	for i := range f.window {
		f.window[i] = &UE{}
	}
	for i := 0; i < cfg.UEs; i++ {
		h := fleetHash(cfg.Seed, uint64(i))
		// MCS spread 4..27: the population covers cell-edge to near-peak.
		f.mcs[i] = uint8(4 + h%24)
		f.sliceIdx[i] = uint8((h >> 8) % uint64(len(cfg.SliceIDs)))
		// ±50% rate jitter so the population's demand isn't a comb.
		jitter := 0.5 + float64((h>>16)%1024)/1023.0
		f.rateBps[i] = float32(cfg.MeanRateBps * jitter)
		f.lastSlot[i] = -1
	}
	return f, nil
}

// fleetHash is a splitmix64-style draw, deterministic per (seed, index).
func fleetHash(seed int64, i uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + i*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fleetPFAlpha mirrors the UE EWMA horizon for the lazily decayed average.
const fleetPFAlpha = 1.0 / PFTimeConstant

// Advance materializes the next rotation window for slot: each returned UE
// carries the backlog accrued since it was last touched and its decayed
// long-term average, ready for view building and grant application. Call
// Absorb after grants to fold the outcomes back. slotDur converts offered
// load to bits per slot.
func (f *UEFleet) Advance(slot uint64, slotDur time.Duration) []*UE {
	f.slotDur = slotDur
	slotSec := slotDur.Seconds()
	n := f.cfg.UEs
	k := f.cfg.ActiveK
	if k > n {
		k = n
	}
	f.winIdx = f.winIdx[:0]
	s := int64(slot)
	for j := 0; j < k; j++ {
		idx := (f.pos + j) % n
		f.winIdx = append(f.winIdx, idx)
		// Slots since the UE was last serviced; at least 1 so the first
		// touch delivers one slot of arrivals, like UE.StepSlot would.
		elapsed := s - f.lastSlot[idx]
		if elapsed < 1 {
			elapsed = 1
		}
		// Lazy arrival accrual with finite-buffer overflow.
		arriving := int64(float64(f.rateBps[idx]) * slotSec * float64(elapsed))
		backlog := f.backlog[idx] + arriving
		if backlog > DefaultMaxBufferBits {
			f.dropped += backlog - DefaultMaxBufferBits
			backlog = DefaultMaxBufferBits
		}
		// Lazy EWMA decay for the unserviced slots; the serviced slot
		// itself is applied by RecordService during grant application.
		avg := float64(f.avgTput[idx])
		if elapsed > 1 && avg > 0 {
			avg *= math.Pow(1-fleetPFAlpha, float64(elapsed-1))
		}
		u := f.window[j]
		*u = UE{
			ID:         fleetBaseID + uint32(idx),
			SliceID:    f.cfg.SliceIDs[f.sliceIdx[idx]],
			MCS:        int(f.mcs[idx]),
			CQI:        mcsToApproxCQI(int(f.mcs[idx])),
			BufferBits: backlog,
			AvgTputBps: avg,
		}
	}
	return f.window[:k]
}

// Absorb folds the current window's post-grant state back into the compact
// arrays and advances the rotation, so the next slot materializes a fresh
// cohort.
func (f *UEFleet) Absorb(slot uint64) {
	s := int64(slot)
	for j, idx := range f.winIdx {
		u := f.window[j]
		f.backlog[idx] = u.BufferBits
		f.avgTput[idx] = float32(u.AvgTputBps)
		f.delivered += u.DeliveredBits
		f.dropped += u.DroppedBits
		f.lastSlot[idx] = s
	}
	if n := f.cfg.UEs; n > 0 {
		f.pos = (f.pos + len(f.winIdx)) % n
	}
}

// Size returns the modeled population.
func (f *UEFleet) Size() int { return f.cfg.UEs }

// fleetBaseID is the first fleet UE's ID; IDs are contiguous from it, clear
// of explicitly attached UEs.
const fleetBaseID = 1 << 20

// Owns reports whether id falls in the population's ID range
// [fleetBaseID, fleetBaseID+UEs).
func (f *UEFleet) Owns(id uint32) bool {
	return id >= fleetBaseID && uint64(id) < uint64(fleetBaseID)+uint64(f.cfg.UEs)
}

// ActiveK returns the per-slot window size.
func (f *UEFleet) ActiveK() int {
	k := f.cfg.ActiveK
	if k > f.cfg.UEs {
		return f.cfg.UEs
	}
	return k
}

// SliceIDs returns the slices the population subscribes to.
func (f *UEFleet) SliceIDs() []uint32 {
	return append([]uint32(nil), f.cfg.SliceIDs...)
}

// FleetStats is the flat snapshot of a fleet's aggregate accounting.
type FleetStats struct {
	UEs           int   `json:"ues"`
	ActiveK       int   `json:"active_k"`
	DeliveredBits int64 `json:"delivered_bits"`
	DroppedBits   int64 `json:"dropped_bits"`
}

// Stats reports aggregate delivery and overflow accounting.
func (f *UEFleet) Stats() FleetStats {
	return FleetStats{
		UEs:           f.cfg.UEs,
		ActiveK:       f.ActiveK(),
		DeliveredBits: f.delivered,
		DroppedBits:   f.dropped,
	}
}
