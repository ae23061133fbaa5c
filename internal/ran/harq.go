package ran

import (
	"math"
	"math/rand"
)

// HARQ models transport-block errors and retransmission. Real links lose
// blocks at a block-error rate (BLER) that link adaptation steers toward
// ~10%; failed blocks are retransmitted, so the goodput a scheduler
// decision yields is less than the transport block it granted. Wiring a
// HARQ model into UEs makes the simulated bitrates include this loss, and
// gives schedulers realistic buffer dynamics (failed data stays queued).
type HARQ struct {
	// TargetBLER is the block error probability when the UE transmits at
	// exactly the MCS its CQI suggests (default 0.1, the LTE/NR target).
	TargetBLER float64
	// MaxRetransmissions bounds retries before a block is dropped
	// (default 4, mirroring typical HARQ configuration).
	MaxRetransmissions int

	rng *rand.Rand

	// Counters.
	Transmissions   uint64
	Failures        uint64
	Drops           uint64
	pendingRetx     int64 // bits awaiting retransmission
	pendingAttempts int
}

// NewHARQ creates a HARQ entity with the given seed for reproducibility.
func NewHARQ(seed int64) *HARQ {
	return &HARQ{
		TargetBLER:         0.1,
		MaxRetransmissions: 4,
		rng:                rand.New(rand.NewSource(seed)),
	}
}

// bler returns the error probability for transmitting at mcs while the
// channel supports chanMCS: at or below the supported rate the target BLER
// applies, above it the error rate grows steeply (about 2x per excess MCS
// step, saturating at 1).
func (h *HARQ) bler(mcs, chanMCS int) float64 {
	p := h.TargetBLER
	if p <= 0 {
		p = 0.1
	}
	if mcs > chanMCS {
		p *= math.Pow(2, float64(mcs-chanMCS))
	}
	if p > 1 {
		p = 1
	}
	return p
}

// Transmit simulates sending a transport block of tbs bits at mcs over a
// channel currently supporting chanMCS. It returns the bits actually
// delivered this slot (0 on failure). Failed blocks are tracked as pending
// retransmissions until AckRetx clears them or the block is dropped.
func (h *HARQ) Transmit(tbs int64, mcs, chanMCS int) int64 {
	if tbs <= 0 {
		return 0
	}
	h.Transmissions++
	if h.rng.Float64() >= h.bler(mcs, chanMCS) {
		return tbs
	}
	h.Failures++
	h.pendingRetx += tbs
	h.pendingAttempts++
	if h.pendingAttempts > h.MaxRetransmissions {
		// Give up: the block is lost; higher layers would recover it.
		h.Drops++
		h.pendingRetx = 0
		h.pendingAttempts = 0
	}
	return 0
}

// AckRetx clears up to bits of pending retransmissions (they were finally
// delivered) and returns the amount cleared.
func (h *HARQ) AckRetx(bits int64) int64 {
	if bits > h.pendingRetx {
		bits = h.pendingRetx
	}
	h.pendingRetx -= bits
	if h.pendingRetx == 0 {
		h.pendingAttempts = 0
	}
	return bits
}

// BLERObserved returns the measured block error rate so far.
func (h *HARQ) BLERObserved() float64 {
	if h.Transmissions == 0 {
		return 0
	}
	return float64(h.Failures) / float64(h.Transmissions)
}
