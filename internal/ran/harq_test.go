package ran

import (
	"math"
	"testing"
)

func TestHARQObservedBLERMatchesTarget(t *testing.T) {
	h := NewHARQ(1)
	for i := 0; i < 50_000; i++ {
		delivered := h.Transmit(1000, 20, 20)
		if delivered != 0 && delivered != 1000 {
			t.Fatalf("delivered = %d", delivered)
		}
		h.AckRetx(delivered)
	}
	if got := h.BLERObserved(); math.Abs(got-0.1) > 0.01 {
		t.Fatalf("observed BLER = %v, want ~0.1", got)
	}
}

func TestHARQBLERGrowsAboveChannel(t *testing.T) {
	h := NewHARQ(2)
	// Transmitting 4 MCS steps above the channel: BLER 0.1*2^4 = 1.0.
	if p := h.bler(24, 20); p != 1.0 {
		t.Fatalf("bler(24, 20) = %v, want saturated 1.0", p)
	}
	if p := h.bler(21, 20); math.Abs(p-0.2) > 1e-9 {
		t.Fatalf("bler(21, 20) = %v, want 0.2", p)
	}
	if p := h.bler(15, 20); p != 0.1 {
		t.Fatalf("bler(15, 20) = %v, want target", p)
	}
}

func TestHARQDropAfterMaxRetransmissions(t *testing.T) {
	h := NewHARQ(3)
	h.TargetBLER = 1.0 // every transmission fails
	h.MaxRetransmissions = 2
	for i := 0; i < 3; i++ {
		if got := h.Transmit(500, 10, 10); got != 0 {
			t.Fatalf("delivery despite BLER 1.0: %d", got)
		}
	}
	if h.Drops != 1 {
		t.Fatalf("drops = %d, want 1 after exceeding max retx", h.Drops)
	}
	if h.pendingRetx != 0 {
		t.Fatalf("pending after drop = %d", h.pendingRetx)
	}
}

func TestHARQZeroAndNegativeTBS(t *testing.T) {
	h := NewHARQ(4)
	if h.Transmit(0, 10, 10) != 0 || h.Transmit(-5, 10, 10) != 0 {
		t.Fatal("empty blocks delivered bits")
	}
	if h.Transmissions != 0 {
		t.Fatal("empty blocks counted as transmissions")
	}
}

func TestHARQAckRetxClamps(t *testing.T) {
	h := NewHARQ(5)
	h.TargetBLER = 1.0
	h.Transmit(100, 10, 10)
	if h.pendingRetx != 100 {
		t.Fatalf("pending = %d", h.pendingRetx)
	}
	if got := h.AckRetx(500); got != 100 {
		t.Fatalf("acked %d, want clamp to 100", got)
	}
	if h.pendingRetx != 0 {
		t.Fatal("pending not cleared")
	}
}
