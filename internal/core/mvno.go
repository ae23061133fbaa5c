package core

// The Fig. 5a deployment: three MVNOs, each a slice on its own scheduler.
// It is the paper's co-existence figure and the cell shape the multi-cell
// experiments, the benchmark and this package's tests build.

// MVNOSpec configures one slice for the co-existence experiment.
type MVNOSpec struct {
	ID        uint32
	Name      string
	Scheduler string // "rr", "pf", "mt"
	TargetBps float64
	NumUEs    int
	// OfferedBpsPerUE is each UE's offered CBR load. Zero means
	// 1.4 x TargetBps / NumUEs (saturating, like the paper's iperf3 DL).
	OfferedBpsPerUE float64
	// MinMCS/MaxMCS bound the UEs' static channels (defaults 22..28).
	MinMCS, MaxMCS int
}

// DefaultFig5aSpecs mirrors the paper: MVNO 1 MT @ 3 Mb/s, MVNO 2 RR @
// 12 Mb/s, MVNO 3 PF @ 15 Mb/s.
func DefaultFig5aSpecs() []MVNOSpec {
	return []MVNOSpec{
		{ID: 1, Name: "MVNO-1", Scheduler: "mt", TargetBps: 3e6, NumUEs: 3},
		{ID: 2, Name: "MVNO-2", Scheduler: "rr", TargetBps: 12e6, NumUEs: 3},
		{ID: 3, Name: "MVNO-3", Scheduler: "pf", TargetBps: 15e6, NumUEs: 3},
	}
}
