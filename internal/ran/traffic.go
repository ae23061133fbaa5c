package ran

import "time"

// TrafficSource produces downlink traffic for one UE. Step returns the
// number of bits arriving during the given slot. Implementations are
// deterministic for a fixed seed so experiments are reproducible.
type TrafficSource interface {
	Step(slot uint64, slotDur time.Duration) int64
}

// CBR is a constant-bit-rate source — the shape iperf3 UDP traffic takes in
// the paper's testbed.
type CBR struct {
	// RateBps is the offered load in bits per second.
	RateBps float64
	// accum carries fractional bits between slots so long-run rate is exact.
	accum float64
}

// NewCBR creates a constant-bit-rate source.
func NewCBR(rateBps float64) *CBR { return &CBR{RateBps: rateBps} }

// Step implements TrafficSource.
func (c *CBR) Step(_ uint64, slotDur time.Duration) int64 {
	c.accum += c.RateBps * slotDur.Seconds()
	bits := int64(c.accum)
	c.accum -= float64(bits)
	return bits
}

// FullBuffer keeps the downlink queue saturated: the classic full-buffer
// assumption used to measure scheduler capacity shares.
type FullBuffer struct {
	// BitsPerSlot is how much to offer each slot (default: 1 Mbit).
	BitsPerSlot int64
}

// Step implements TrafficSource.
func (f *FullBuffer) Step(uint64, time.Duration) int64 {
	if f.BitsPerSlot == 0 {
		return 1 << 20
	}
	return f.BitsPerSlot
}
