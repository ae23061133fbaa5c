package ran

import (
	"math"
	"time"
)

// ChannelModel evolves a UE's radio conditions slot by slot.
type ChannelModel interface {
	Step(slot uint64, ue *UE)
}

// StaticChannel pins the UE to a fixed MCS — the configuration used in the
// paper's Fig. 5b (UEs at MCS 20, 24 and 28).
type StaticChannel struct {
	MCS int
}

// Step implements ChannelModel.
func (s *StaticChannel) Step(_ uint64, ue *UE) {
	ue.MCS = s.MCS
	ue.CQI = mcsToApproxCQI(s.MCS)
}

// FadingChannel approximates periodic multi-path fading: CQI oscillates
// sinusoidally between bounds with per-UE phase, giving the scheduler a
// frequency-selective-like pattern to exploit.
type FadingChannel struct {
	MinCQI, MaxCQI int
	Period         time.Duration
	Phase          float64
	slotDur        time.Duration
}

// NewFadingChannel creates a sinusoidal CQI oscillation.
func NewFadingChannel(minCQI, maxCQI int, period time.Duration, phase float64, slotDur time.Duration) *FadingChannel {
	if slotDur == 0 {
		slotDur = time.Millisecond
	}
	return &FadingChannel{MinCQI: minCQI, MaxCQI: maxCQI, Period: period, Phase: phase, slotDur: slotDur}
}

// Step implements ChannelModel.
func (f *FadingChannel) Step(slot uint64, ue *UE) {
	t := float64(slot) * f.slotDur.Seconds()
	omega := 2 * math.Pi / f.Period.Seconds()
	x := (math.Sin(omega*t+f.Phase) + 1) / 2
	cqi := f.MinCQI + int(math.Round(x*float64(f.MaxCQI-f.MinCQI)))
	ue.CQI = cqi
	ue.MCS = CQIToMCS(cqi)
}
