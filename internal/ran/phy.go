// Package ran models the 5G RAN substrate WA-RAN plugs into: cell
// configuration (numerology, PRB grid), link adaptation tables (CQI → MCS →
// transport block size), per-UE state with channel models, and downlink
// traffic generation.
//
// The model is slot-clocked and deterministic: one call to the scheduler per
// slot, transport-block arithmetic derived from the 3GPP spectral-efficiency
// tables, and seeded randomness. It replaces the srsRAN + radio testbed of
// the paper while preserving the scheduler contract the paper evaluates:
// per-UE channel quality, buffer status and long-term throughput in; per-UE
// PRB grants out; achieved bitrates emerge from the same TBS arithmetic.
package ran

import (
	"fmt"
	"time"
)

// CellConfig describes the cell the gNB serves. The zero value is completed
// by WithDefaults to the paper's testbed configuration: FDD band n3,
// 10 MHz bandwidth at 15 kHz subcarrier spacing → 52 PRBs and 1 ms slots.
type CellConfig struct {
	// BandwidthHz is the channel bandwidth (default 10 MHz).
	BandwidthHz int64
	// SCSkHz is the subcarrier spacing in kHz (default 15).
	SCSkHz int
	// PRBs is the number of physical resource blocks per slot. If zero it
	// is derived from bandwidth and SCS per 3GPP TS 38.101 Table 5.3.2-1.
	PRBs int
	// SlotDuration is derived from SCS when zero (1 ms at 15 kHz).
	SlotDuration time.Duration
	// Overhead is the fraction of resource elements lost to control
	// channels and reference signals (default 0.14).
	Overhead float64
}

// WithDefaults returns the configuration with unset fields filled in.
func (c CellConfig) WithDefaults() CellConfig {
	if c.BandwidthHz == 0 {
		c.BandwidthHz = 10_000_000
	}
	if c.SCSkHz == 0 {
		c.SCSkHz = 15
	}
	if c.PRBs == 0 {
		c.PRBs = derivePRBs(c.BandwidthHz, c.SCSkHz)
	}
	if c.SlotDuration == 0 {
		// Slot duration halves for each numerology step above 15 kHz.
		c.SlotDuration = time.Millisecond * 15 / time.Duration(c.SCSkHz)
	}
	if c.Overhead == 0 {
		c.Overhead = 0.14
	}
	return c
}

// Validate rejects nonsensical configurations.
func (c CellConfig) Validate() error {
	if c.PRBs <= 0 {
		return fmt.Errorf("ran: cell must have at least 1 PRB, got %d", c.PRBs)
	}
	if c.SlotDuration <= 0 {
		return fmt.Errorf("ran: slot duration must be positive")
	}
	if c.Overhead < 0 || c.Overhead >= 1 {
		return fmt.Errorf("ran: overhead %v outside [0, 1)", c.Overhead)
	}
	return nil
}

// derivePRBs approximates 3GPP TS 38.101-1 Table 5.3.2-1 transmission
// bandwidth configurations for common FR1 cases.
func derivePRBs(bwHz int64, scsKHz int) int {
	type key struct {
		mhz int
		scs int
	}
	table := map[key]int{
		{5, 15}: 25, {10, 15}: 52, {15, 15}: 79, {20, 15}: 106,
		{25, 15}: 133, {30, 15}: 160, {40, 15}: 216, {50, 15}: 270,
		{5, 30}: 11, {10, 30}: 24, {15, 30}: 38, {20, 30}: 51,
		{40, 30}: 106, {50, 30}: 133, {100, 30}: 273,
	}
	if n, ok := table[key{int(bwHz / 1_000_000), scsKHz}]; ok {
		return n
	}
	// Fall back to the nominal formula: 12 subcarriers per PRB with ~10% guard.
	sub := int64(scsKHz) * 1000 * 12
	return int(float64(bwHz) * 0.9 / float64(sub))
}

// Link adaptation tables. Spectral efficiency per MCS index follows 3GPP
// TS 38.214 Table 5.1.3.1-1 (64QAM table), MCS 0..28.
var mcsSpectralEff = [29]float64{
	0.2344, 0.3066, 0.3770, 0.4902, 0.6016, 0.7402, 0.8770, 1.0273,
	1.1758, 1.3262, 1.3281, 1.4766, 1.6953, 1.9141, 2.1602, 2.4063,
	2.5703, 2.5664, 2.7305, 3.0293, 3.3223, 3.6094, 3.9023, 4.2129,
	4.5234, 4.8164, 5.1152, 5.3320, 5.5547,
}

// MaxMCS is the highest MCS index in the 64QAM table.
const MaxMCS = 28

// MaxCQI is the highest CQI index.
const MaxCQI = 15

// cqiToMCS maps CQI 1..15 onto a representative MCS per 3GPP TS 38.214
// Table 5.2.2.1-2 efficiency alignment.
var cqiToMCS = [16]int{0, 0, 2, 4, 6, 8, 11, 13, 15, 18, 20, 22, 24, 26, 27, 28}

// CQIToMCS maps a channel quality indicator (1..15) to an MCS index.
// Out-of-range CQIs are clamped.
func CQIToMCS(cqi int) int {
	if cqi < 1 {
		cqi = 1
	}
	if cqi > MaxCQI {
		cqi = MaxCQI
	}
	return cqiToMCS[cqi]
}

// SpectralEfficiency returns bits per resource element for an MCS index
// (clamped to the valid range).
func SpectralEfficiency(mcs int) float64 {
	if mcs < 0 {
		mcs = 0
	}
	if mcs > MaxMCS {
		mcs = MaxMCS
	}
	return mcsSpectralEff[mcs]
}

// resource elements per PRB per slot: 12 subcarriers x 14 OFDM symbols.
const resourceElementsPerPRB = 12 * 14

// BitsPerPRB returns the usable transport bits one PRB carries in one slot
// at the given MCS, after overhead.
func (c CellConfig) BitsPerPRB(mcs int) int {
	raw := SpectralEfficiency(mcs) * resourceElementsPerPRB * (1 - c.Overhead)
	return int(raw)
}

// TransportBlockBits returns the transport block size for a grant of prbs
// resource blocks at the given MCS.
func (c CellConfig) TransportBlockBits(mcs, prbs int) int {
	if prbs <= 0 {
		return 0
	}
	return c.BitsPerPRB(mcs) * prbs
}

// PeakRateBps returns the cell's peak downlink throughput at the given MCS,
// useful for sizing experiment targets.
func (c CellConfig) PeakRateBps(mcs int) float64 {
	bitsPerSlot := float64(c.TransportBlockBits(mcs, c.PRBs))
	return bitsPerSlot / c.SlotDuration.Seconds()
}
