package core_test

import (
	"reflect"
	"testing"

	"waran/internal/core"
	"waran/internal/exp"
	"waran/internal/sched"
	"waran/internal/wabi"
	"waran/internal/wasm"
)

// tierGroupStats sums the scheduler accounting across a group's pools.
func tierGroupStats(scheds []*sched.PoolScheduler) sched.SchedStats {
	var total sched.SchedStats
	for _, ps := range scheds {
		st := ps.Stats()
		total.Calls += st.Calls
		total.TierInterpCalls += st.TierInterpCalls
		total.TierClosureCalls += st.TierClosureCalls
	}
	return total
}

// TestMulticellTierDecisionsIdentical is the system-level half of the tier
// bit-identity contract: the same deterministic cell group stepped with the
// scheduler sandboxes on the reference interpreter and on the production
// closure tier must emit identical per-cell SlotResult sequences, and the
// tier counters must attribute every sandbox call to the tier that ran it.
func TestMulticellTierDecisionsIdentical(t *testing.T) {
	const cells, slots = 2, 120
	run := func(tier wasm.Tier) ([][]core.SlotResult, sched.SchedStats) {
		cg, _, err := exp.BuildMulticellGroup(cells, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Swap in pools on the requested tier before the first slot.
		var scheds []*sched.PoolScheduler
		for _, sp := range core.DefaultFig5aSpecs() {
			ps, err := cg.InstallPooledScheduler(sp.ID, sp.Scheduler, wabi.Policy{Tier: tier}, cells)
			if err != nil {
				t.Fatal(err)
			}
			scheds = append(scheds, ps)
		}
		var seq [][]core.SlotResult
		for i := 0; i < slots; i++ {
			var slot []core.SlotResult
			for _, r := range cg.StepAll() {
				slot = append(slot, r.Clone())
			}
			seq = append(seq, slot)
		}
		return seq, tierGroupStats(scheds)
	}

	base, baseStats := run(wasm.TierInterp)
	if baseStats.Calls == 0 || baseStats.TierInterpCalls != baseStats.Calls {
		t.Fatalf("interp group: %d of %d calls on interpreter", baseStats.TierInterpCalls, baseStats.Calls)
	}
	seq, st := run(wasm.TierClosure)
	if !reflect.DeepEqual(seq, base) {
		t.Fatal("closure tier: slot results diverged from interpreter run")
	}
	if st.Calls == 0 || st.TierClosureCalls != st.Calls {
		t.Fatalf("closure group: %d of %d calls on the closure tier", st.TierClosureCalls, st.Calls)
	}
}

// TestGroupClosureFromFirstCall pins the shipped default: a group built the
// way cmd/gnb builds it (InstallPooledScheduler with a zero wabi.Policy)
// serves every sandbox call on the closure tier, from the very first slot.
func TestGroupClosureFromFirstCall(t *testing.T) {
	cg, scheds, err := exp.BuildMulticellGroup(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 1; slot <= 100; slot++ {
		cg.StepAll()
		if slot != 1 && slot != 100 {
			continue
		}
		st := tierGroupStats(scheds)
		if st.Calls == 0 || st.TierClosureCalls != st.Calls || st.TierInterpCalls != 0 {
			t.Fatalf("after slot %d: %d closure + %d interp of %d calls, want all closure",
				slot, st.TierClosureCalls, st.TierInterpCalls, st.Calls)
		}
	}
}
