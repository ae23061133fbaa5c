package core

import (
	"strconv"
	"sync"
	"time"

	"waran/internal/obs"
	"waran/internal/slicing"
)

// gnbObs holds one gNB's registered instruments plus the shared trace ring.
// It is created by EnableObservability and read by Step on the cell's slot
// goroutine; the lazily created per-slice instruments are the only shared
// mutable state and carry their own lock.
type gnbObs struct {
	reg      *obs.Registry
	ring     *obs.TraceRing
	cell     int
	deadline time.Duration

	slotLatency *obs.Histogram
	overruns    *obs.Counter
	fallbacks   *obs.Counter
	fuel        *obs.Histogram

	mu       sync.Mutex
	perSlice map[uint32]*sliceObs
}

// sliceObs is what observeSlice needs per slice and would otherwise rebuild
// every slot: the PRB-grant counter and the slice's label string.
type sliceObs struct {
	label  string
	grants *obs.Counter
}

// EnableObservability registers this gNB's slot instruments on reg under
// the given cell index and streams per-slot trace events into ring (nil
// disables tracing but keeps the metrics). deadline, when positive, marks
// slots slower than it as overruns in both the counter and the trace.
// Call before the slot loop starts; instruments live for the gNB's
// lifetime.
func (g *GNB) EnableObservability(reg *obs.Registry, ring *obs.TraceRing, cell int, deadline time.Duration) {
	cellLabel := obs.L("cell", strconv.Itoa(cell))
	o := &gnbObs{
		reg:         reg,
		ring:        ring,
		cell:        cell,
		deadline:    deadline,
		slotLatency: reg.Histogram("waran_slot_latency_us", "wall time of one MAC slot in microseconds", cellLabel),
		overruns:    reg.Counter("waran_slot_overruns_total", "slots exceeding the deadline budget", cellLabel),
		fallbacks:   reg.Counter("waran_slice_fallback_slots_total", "slice-slots served by the native fallback scheduler", cellLabel),
		fuel:        reg.Histogram("waran_plugin_fuel_per_call", "fuel consumed per intra-slice plugin call", cellLabel),
		perSlice:    make(map[uint32]*sliceObs),
	}
	g.mu.Lock()
	g.obsv = o
	g.mu.Unlock()
}

// slice returns the per-slice instruments, creating the counter series on
// first sight of the slice.
func (o *gnbObs) slice(sliceID uint32) *sliceObs {
	o.mu.Lock()
	defer o.mu.Unlock()
	so, ok := o.perSlice[sliceID]
	if !ok {
		label := strconv.FormatUint(uint64(sliceID), 10)
		so = &sliceObs{
			label: label,
			grants: o.reg.Counter("waran_sched_granted_prbs_total", "PRBs granted by intra-slice schedulers",
				obs.L("cell", strconv.Itoa(o.cell)), obs.L("slice", label)),
		}
		o.perSlice[sliceID] = so
	}
	return so
}

// observeSlice records one slice's outcome: PRB grants, fallback and fuel
// accounting, plus the trace entry when tracing is on. fuelUsed is the
// decision's own (sched.Response.FuelUsed): a scheduler shared by cells
// stepped in parallel cannot say whose call its last one was.
func (o *gnbObs) observeSlice(ev *obs.SlotEvent, s *slicing.Slice, ss SliceSlot, fuelUsed int64, wall time.Duration) {
	so := o.slice(s.ID)
	so.grants.Add(uint64(ss.GrantedPRBs))
	if ss.UsedFallback {
		o.fallbacks.Inc()
		fuelUsed = 0
	}
	if fuelUsed > 0 {
		o.fuel.Observe(float64(fuelUsed))
	}
	if ev != nil {
		ev.Slices = append(ev.Slices, obs.SliceTrace{
			Slice:    so.label,
			Sched:    s.SchedulerName(),
			PRBs:     int(ss.GrantedPRBs),
			Bits:     int(ss.Bits),
			Fallback: ss.UsedFallback,
			FuelUsed: fuelUsed,
			WallUs:   wall.Microseconds(),
		})
	}
}

// finishSlot closes out one slot's accounting and publishes the trace.
func (o *gnbObs) finishSlot(ev *obs.SlotEvent, slot uint64, wall time.Duration) {
	o.slotLatency.ObserveDuration(wall)
	overrun := o.deadline > 0 && wall > o.deadline
	if overrun {
		o.overruns.Inc()
	}
	if ev != nil && o.ring != nil {
		ev.Slot = slot
		ev.Cell = o.cell
		ev.WallUs = wall.Microseconds()
		ev.DeadlineUs = o.deadline.Microseconds()
		ev.Overrun = overrun
		for _, st := range ev.Slices {
			if st.Fallback {
				ev.Fallback = true
			}
		}
		o.ring.Add(*ev)
	}
}
