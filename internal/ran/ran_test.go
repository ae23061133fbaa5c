package ran

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestCellDefaultsMatchPaperTestbed(t *testing.T) {
	c := CellConfig{}.WithDefaults()
	if c.PRBs != 52 {
		t.Errorf("PRBs = %d, want 52 (10 MHz @ 15 kHz)", c.PRBs)
	}
	if c.SlotDuration != time.Millisecond {
		t.Errorf("slot = %v, want 1 ms", c.SlotDuration)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestDerivePRBsTable(t *testing.T) {
	cases := []struct {
		mhz  int64
		scs  int
		want int
	}{
		{5, 15, 25}, {10, 15, 52}, {20, 15, 106}, {50, 15, 270},
		{20, 30, 51}, {100, 30, 273},
	}
	for _, tc := range cases {
		c := CellConfig{BandwidthHz: tc.mhz * 1_000_000, SCSkHz: tc.scs}.WithDefaults()
		if c.PRBs != tc.want {
			t.Errorf("%d MHz @ %d kHz: PRBs = %d, want %d", tc.mhz, tc.scs, c.PRBs, tc.want)
		}
	}
}

func TestSlotDurationScalesWithSCS(t *testing.T) {
	c := CellConfig{BandwidthHz: 20_000_000, SCSkHz: 30}.WithDefaults()
	if c.SlotDuration != 500*time.Microsecond {
		t.Errorf("30 kHz slot = %v, want 0.5 ms", c.SlotDuration)
	}
}

func TestCellValidateRejectsBadConfigs(t *testing.T) {
	bad := []CellConfig{
		{PRBs: -1, SlotDuration: time.Millisecond, Overhead: 0.1},
		{PRBs: 10, SlotDuration: 0, Overhead: 0.1},
		{PRBs: 10, SlotDuration: time.Millisecond, Overhead: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestSpectralEfficiencyMonotone(t *testing.T) {
	prev := 0.0
	for mcs := 0; mcs <= MaxMCS; mcs++ {
		eff := SpectralEfficiency(mcs)
		// The 3GPP table has one non-monotone step at the QPSK/16QAM
		// boundary (MCS 9 -> 10); allow equality-ish there.
		if eff < prev*0.99 {
			t.Errorf("efficiency(MCS %d) = %v < previous %v", mcs, eff, prev)
		}
		prev = eff
	}
	if SpectralEfficiency(-5) != SpectralEfficiency(0) {
		t.Error("negative MCS not clamped")
	}
	if SpectralEfficiency(99) != SpectralEfficiency(MaxMCS) {
		t.Error("oversized MCS not clamped")
	}
}

func TestCQIToMCSMonotone(t *testing.T) {
	prev := -1
	for cqi := 1; cqi <= MaxCQI; cqi++ {
		mcs := CQIToMCS(cqi)
		if mcs < prev {
			t.Errorf("CQIToMCS(%d) = %d < previous %d", cqi, mcs, prev)
		}
		if mcs < 0 || mcs > MaxMCS {
			t.Errorf("CQIToMCS(%d) = %d out of range", cqi, mcs)
		}
		prev = mcs
	}
	if CQIToMCS(0) != CQIToMCS(1) || CQIToMCS(99) != CQIToMCS(15) {
		t.Error("CQI clamping broken")
	}
}

func TestTransportBlockArithmetic(t *testing.T) {
	c := CellConfig{}.WithDefaults()
	if got := c.TransportBlockBits(10, 0); got != 0 {
		t.Errorf("0 PRBs => %d bits", got)
	}
	if got := c.TransportBlockBits(10, -3); got != 0 {
		t.Errorf("negative PRBs => %d bits", got)
	}
	one := c.TransportBlockBits(20, 1)
	ten := c.TransportBlockBits(20, 10)
	if ten != 10*one {
		t.Errorf("TBS not linear in PRBs: %d vs 10*%d", ten, one)
	}
	// Peak rate sanity: 52 PRB @ MCS 28 over 1 ms is tens of Mb/s.
	peak := c.PeakRateBps(28)
	if peak < 30e6 || peak > 60e6 {
		t.Errorf("peak rate = %.1f Mb/s, outside plausible 30-60", peak/1e6)
	}
}

func TestUEBufferAccounting(t *testing.T) {
	ue := NewUE(1, 1, 20)
	ue.EnqueueBits(1000)
	if ue.BufferBits != 1000 {
		t.Fatalf("buffer = %d", ue.BufferBits)
	}
	ue.EnqueueBits(-5) // ignored
	if ue.BufferBits != 1000 {
		t.Fatalf("negative enqueue changed buffer: %d", ue.BufferBits)
	}
	ue.RecordService(400, time.Millisecond, 100)
	if ue.BufferBits != 600 || ue.DeliveredBits != 400 {
		t.Fatalf("after service: buf=%d delivered=%d", ue.BufferBits, ue.DeliveredBits)
	}
	// Serving more than buffered drains exactly the buffer.
	ue.RecordService(10_000, time.Millisecond, 100)
	if ue.BufferBits != 0 || ue.DeliveredBits != 1000 {
		t.Fatalf("over-service: buf=%d delivered=%d", ue.BufferBits, ue.DeliveredBits)
	}
}

func TestUEBufferOverflowDrops(t *testing.T) {
	ue := NewUE(1, 1, 20)
	ue.MaxBufferBits = 1000
	ue.EnqueueBits(1500)
	if ue.BufferBits != 1000 || ue.DroppedBits != 500 {
		t.Fatalf("buf=%d dropped=%d", ue.BufferBits, ue.DroppedBits)
	}
}

func TestUEAvgTputEWMA(t *testing.T) {
	ue := NewUE(1, 1, 20)
	ue.EnqueueBits(1 << 30)
	ue.MaxBufferBits = 1 << 40
	// Serve 1000 bits/ms = 1 Mb/s for many slots: avg approaches 1e6.
	for i := 0; i < 20_000; i++ {
		ue.RecordService(1000, time.Millisecond, 1000)
		ue.EnqueueBits(1000)
	}
	if math.Abs(ue.AvgTputBps-1e6)/1e6 > 0.01 {
		t.Fatalf("EWMA = %v, want ~1e6", ue.AvgTputBps)
	}
	// Stop serving: avg decays toward 0.
	for i := 0; i < 20_000; i++ {
		ue.RecordService(0, time.Millisecond, 1000)
	}
	if ue.AvgTputBps > 1000 {
		t.Fatalf("EWMA did not decay: %v", ue.AvgTputBps)
	}
}

func TestNewUEClampsMCS(t *testing.T) {
	if ue := NewUE(1, 1, -3); ue.MCS != 0 {
		t.Errorf("MCS = %d", ue.MCS)
	}
	if ue := NewUE(1, 1, 99); ue.MCS != MaxMCS {
		t.Errorf("MCS = %d", ue.MCS)
	}
}

func TestCBRRateIsExactLongRun(t *testing.T) {
	src := NewCBR(1_234_567) // bits per second
	var total int64
	slots := 10_000 // 10 s
	for i := 0; i < slots; i++ {
		total += src.Step(uint64(i), time.Millisecond)
	}
	want := int64(1_234_567 * 10)
	if total < want-10 || total > want+10 {
		t.Fatalf("CBR delivered %d bits over 10 s, want ~%d", total, want)
	}
}

func TestFullBuffer(t *testing.T) {
	fb := &FullBuffer{}
	if fb.Step(0, time.Millisecond) != 1<<20 {
		t.Error("default full buffer offer")
	}
	fb2 := &FullBuffer{BitsPerSlot: 77}
	if fb2.Step(0, time.Millisecond) != 77 {
		t.Error("custom full buffer offer")
	}
}

func TestStaticChannel(t *testing.T) {
	ue := NewUE(1, 1, 10)
	ch := &StaticChannel{MCS: 24}
	ch.Step(0, ue)
	if ue.MCS != 24 {
		t.Fatalf("MCS = %d", ue.MCS)
	}
}

func TestFadingChannelOscillates(t *testing.T) {
	ue := NewUE(1, 1, 15)
	ch := NewFadingChannel(3, 13, 100*time.Millisecond, 0, time.Millisecond)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		ch.Step(uint64(i), ue)
		seen[ue.CQI] = true
		if ue.CQI < 3 || ue.CQI > 13 {
			t.Fatalf("CQI %d out of bounds", ue.CQI)
		}
	}
	if len(seen) < 5 {
		t.Fatalf("fading produced only %d distinct CQIs", len(seen))
	}
}

// Property: enqueue/serve never makes any counter negative and conserves
// bits (enqueued = buffered + delivered + dropped).
func TestQuickUEConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		ue := NewUE(1, 1, 20)
		ue.MaxBufferBits = 50_000
		var enqueued int64
		for _, op := range ops {
			amount := int64(op)
			if op%2 == 0 {
				ue.EnqueueBits(amount)
				enqueued += amount
			} else {
				ue.RecordService(amount, time.Millisecond, 100)
			}
			if ue.BufferBits < 0 || ue.DeliveredBits < 0 || ue.DroppedBits < 0 {
				return false
			}
		}
		return enqueued == ue.BufferBits+ue.DeliveredBits+ue.DroppedBits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
