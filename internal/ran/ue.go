package ran

import (
	"fmt"
	"time"
)

// UE is one attached user terminal, as seen by the MAC scheduler: channel
// quality, downlink buffer occupancy, and the long-term served throughput
// used by proportional-fair policies.
type UE struct {
	// ID is the scheduler-visible identifier (analogous to an RNTI).
	ID uint32
	// SliceID is the network slice (MVNO) this UE is subscribed to.
	SliceID uint32
	// CQI is the reported channel quality indicator (1..15). MCS follows
	// from it unless the channel model sets MCS directly.
	CQI int
	// MCS is the current modulation-and-coding scheme (0..28).
	MCS int
	// BufferBits is the downlink queue occupancy awaiting scheduling.
	BufferBits int64
	// AvgTputBps is the exponentially weighted average of served
	// throughput, maintained by RecordService.
	AvgTputBps float64
	// DeliveredBits counts total bits served since attach.
	DeliveredBits int64
	// DroppedBits counts traffic discarded due to buffer overflow.
	DroppedBits int64
	// Traffic fills the downlink buffer each slot. Nil means no traffic.
	Traffic TrafficSource
	// Channel evolves CQI/MCS each slot. Nil means static conditions.
	Channel ChannelModel
	// HARQ, when non-nil, applies a block-error model to every grant:
	// failed transport blocks deliver nothing and stay queued.
	HARQ *HARQ
	// MaxBufferBits caps the downlink queue; zero means 8 Mbit.
	MaxBufferBits int64
}

// DefaultMaxBufferBits is the downlink queue cap when UE.MaxBufferBits is 0.
const DefaultMaxBufferBits = 8 << 20

// NewUE creates a UE with a static channel at the given MCS.
func NewUE(id, sliceID uint32, mcs int) *UE {
	if mcs < 0 {
		mcs = 0
	}
	if mcs > MaxMCS {
		mcs = MaxMCS
	}
	return &UE{ID: id, SliceID: sliceID, MCS: mcs, CQI: mcsToApproxCQI(mcs)}
}

func mcsToApproxCQI(mcs int) int {
	for cqi := 1; cqi <= MaxCQI; cqi++ {
		if cqiToMCS[cqi] >= mcs {
			return cqi
		}
	}
	return MaxCQI
}

// String implements fmt.Stringer for diagnostics.
func (u *UE) String() string {
	return fmt.Sprintf("ue{id=%d slice=%d mcs=%d buf=%dB avg=%.0fbps}",
		u.ID, u.SliceID, u.MCS, u.BufferBits/8, u.AvgTputBps)
}

// StepSlot advances traffic and channel models by one slot.
func (u *UE) StepSlot(slot uint64, slotDur time.Duration) {
	if u.Channel != nil {
		u.Channel.Step(slot, u)
	}
	if u.Traffic != nil {
		arriving := u.Traffic.Step(slot, slotDur)
		u.EnqueueBits(arriving)
	}
}

// EnqueueBits adds downlink traffic to the UE's buffer, dropping overflow.
func (u *UE) EnqueueBits(bits int64) {
	if bits <= 0 {
		return
	}
	maxBuf := u.MaxBufferBits
	if maxBuf == 0 {
		maxBuf = DefaultMaxBufferBits
	}
	space := maxBuf - u.BufferBits
	if bits > space {
		u.DroppedBits += bits - space
		bits = space
	}
	u.BufferBits += bits
}

// PFTimeConstant is the default averaging horizon (in slots) for the
// long-term throughput EWMA. The paper deliberately uses a large constant
// in Fig. 5b to stress the PF scheduler's fairness memory.
const PFTimeConstant = 1000.0

// RecordService applies a grant outcome: servedBits were delivered this
// slot. It updates the buffer, counters, and the PF average. timeConstant
// is the EWMA horizon in slots (0 means PFTimeConstant).
func (u *UE) RecordService(servedBits int64, slotDur time.Duration, timeConstant float64) {
	if servedBits < 0 {
		servedBits = 0
	}
	if servedBits > u.BufferBits {
		servedBits = u.BufferBits
	}
	u.BufferBits -= servedBits
	u.DeliveredBits += servedBits
	if timeConstant <= 0 {
		timeConstant = PFTimeConstant
	}
	alpha := 1.0 / timeConstant
	instRate := float64(servedBits) / slotDur.Seconds()
	u.AvgTputBps = (1-alpha)*u.AvgTputBps + alpha*instRate
}

// BufferBytes returns the queue occupancy in bytes, saturating at the
// uint32 range used by the scheduling ABI.
func (u *UE) BufferBytes() uint32 {
	b := u.BufferBits / 8
	if b > 0xFFFFFFFF {
		return 0xFFFFFFFF
	}
	return uint32(b)
}
