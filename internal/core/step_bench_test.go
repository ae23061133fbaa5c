package core

import (
	"testing"

	"waran/internal/ran"
	"waran/internal/sched"
)

// BenchmarkGNBStep is one cell-slot of GNB.Step in the benchmark's two
// shapes, so the host's cost of a slot shows without the TCP loop around it:
// ric_loop's cell (3 native round-robin slices × 8 UEs offered 6× the
// Fig. 5a rates) and cell_dense's (3 supervised pooled plugins × 32 UEs,
// registry and slot ring on).
func BenchmarkGNBStep(b *testing.B) {
	b.Run("ric_loop", func(b *testing.B) {
		g, err := NewGNB(ran.CellConfig{})
		if err != nil {
			b.Fatal(err)
		}
		id := uint32(1)
		for _, sp := range DefaultFig5aSpecs() {
			if _, err := g.Slices.AddSlice(sp.ID, sp.Name, 1e9, sched.RoundRobin{}, nil); err != nil {
				b.Fatal(err)
			}
			for k := 0; k < 8; k++ {
				ue := ran.NewUE(id, sp.ID, 16+int(id)%13)
				ue.Traffic = ran.NewCBR(6 * sp.TargetBps / 8)
				if err := g.AttachUE(ue); err != nil {
					b.Fatal(err)
				}
				id++
			}
		}
		benchStep(b, g)
	})
	b.Run("cell_dense", func(b *testing.B) {
		benchStep(b, pooledCell(b, 32, true).Cell(0))
	})
}

func benchStep(b *testing.B, g *GNB) {
	for i := 0; i < 200; i++ { // past pool creation and scratch growth
		g.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Step()
	}
}
