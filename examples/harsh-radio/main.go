// Harsh radio: the extension features working together under realistic
// radio conditions. Three tenants share a capacity-limited cell with
// fading channels and HARQ losses; admission control turns away an
// overcommitting fourth tenant; every plugin gets a fixed weighted share of
// one per-slot execution budget as its fuel (§6B); and when one tenant
// uploads a buggy scheduler mid-run, the fault-tolerance path keeps the cell
// serving: every tenant's plugin runs under a supervisor, which rejects the
// update after replaying the slots it recorded through it; a plugin that
// fails in service is served around by the slice's native fallback until the
// supervisor's breaker gives up on it.
//
//	go run ./examples/harsh-radio
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/guard"
	"waran/internal/metrics"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/slicing"
	"waran/internal/wabi"
	"waran/internal/wat"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	gnb, err := core.NewGNB(ran.CellConfig{})
	if err != nil {
		return err
	}
	// Admission control: the cell only signs SLAs it can honour.
	gnb.Slices.CapacityBps = 30e6
	gnb.Slices.OnFault = func(sliceID uint32, err error) {
		fmt.Printf("  [fault contained] slice %d: %v\n", sliceID, err)
	}

	// One execution budget for all plugins, ~30% of a 1 ms slot at the
	// interpreter's ~50 M instr/s, split by weight: each tenant's share is
	// its plugin's per-call fuel.
	const slotBudget = 100_000

	type tenant struct {
		id     uint32
		name   string
		sched  string
		target float64
		weight int64
	}
	tenants := []tenant{
		{1, "eMBB-Co", "pf", 14e6, 3},
		{2, "IoT-Net", "rr", 6e6, 1},
		{3, "Gamer-X", "mt", 9e6, 2},
	}
	var totalWeight int64
	for _, tn := range tenants {
		totalWeight += tn.weight
	}
	for _, tn := range tenants {
		ps, err := core.NewPluginScheduler(tn.sched, wabi.Policy{Fuel: slotBudget * tn.weight / totalWeight})
		if err != nil {
			return err
		}
		if _, err := gnb.Slices.AddSlice(tn.id, tn.name, tn.target, ps, nil); err != nil {
			return err
		}
		if _, err := gnb.Supervise(tn.id); err != nil {
			return err
		}
		fmt.Printf("admitted %-8s (%s plugin, %.0f Mb/s SLA, budget weight %d)\n",
			tn.name, tn.sched, tn.target/1e6, tn.weight)
	}

	// A fourth tenant would overcommit the 30 Mb/s cell: refused.
	overcommit, err := core.NewPluginScheduler("rr", wabi.Policy{})
	if err != nil {
		return err
	}
	if _, err := gnb.Slices.AddSlice(4, "TooMuch", 5e6, overcommit, nil); errors.Is(err, slicing.ErrAdmissionDenied) {
		fmt.Printf("refused  TooMuch: %v\n", err)
	} else if err == nil {
		return fmt.Errorf("admission control failed to refuse overcommit")
	}

	// UEs with fading channels and HARQ loss.
	ueID := uint32(1)
	for _, tn := range tenants {
		for k := 0; k < 3; k++ {
			ue := ran.NewUE(ueID, tn.id, 20)
			ue.Traffic = ran.NewCBR(1.3 * tn.target / 3)
			ue.Channel = ran.NewFadingChannel(6, 14, 2*time.Second,
				float64(ueID), gnb.Cell.SlotDuration)
			ue.HARQ = ran.NewHARQ(int64(ueID))
			if err := gnb.AttachUE(ue); err != nil {
				return err
			}
			ueID++
		}
	}

	meters := map[uint32]*metrics.RateMeter{}
	for _, tn := range tenants {
		meters[tn.id] = metrics.NewRateMeter(gnb.Cell.SlotDuration, time.Second)
	}

	broken, err := wat.CompileToBinary(plugins.NullDerefWAT)
	if err != nil {
		return err
	}
	const totalSlots = 12_000 // 12 s
	fmt.Printf("\nrunning %d slots with fading + HARQ...\n", totalSlots)
	for slot := 0; slot < totalSlots; slot++ {
		if slot == totalSlots/2 {
			// Gamer-X ships a broken scheduler update over E2. Its supervisor
			// replays the slots it recorded through the candidate first.
			err := gnb.Apply(&e2.ControlRequest{
				Action: e2.ActionUploadScheduler, SliceID: 3, Text: "gamer-v2-broken", Blob: broken,
			})
			verdict := "promoted"
			if err != nil {
				verdict = err.Error()
			}
			fmt.Printf("\nslot %d: Gamer-X uploads a broken scheduler: %s\n", slot, verdict)
		}
		r := gnb.Step()
		for id, ss := range r.PerSlice {
			meters[id].AddSlot(ss.Bits)
		}
	}

	fmt.Printf("\n%-8s %10s %10s %12s %12s %s\n",
		"tenant", "SLA Mb/s", "mean Mb/s", "faults", "fallbacks", "state")
	for _, tn := range tenants {
		s, _ := gnb.Slices.Slice(tn.id)
		st := s.Stats()
		ss := s.Scheduler().(*guard.Supervisor).Stats()
		state := fmt.Sprintf("%s, breaker %s, %d promoted / %d rejected",
			ss.Active, ss.Breaker.State, ss.Promotions, ss.ShadowFail)
		fmt.Printf("%-8s %10.1f %10.1f %12d %12d %s\n",
			tn.name, tn.target/1e6, meters[tn.id].MeanBpsAfter(time.Second)/1e6,
			st.TotalFaults, st.FallbackSlots, state)
	}

	var blerSum float64
	var blerN int
	for _, ue := range gnb.UEs() {
		if ue.HARQ != nil && ue.HARQ.Transmissions > 0 {
			blerSum += ue.HARQ.BLERObserved()
			blerN++
		}
	}
	if blerN > 0 {
		fmt.Printf("\nobserved BLER across UEs: %.1f%% (HARQ retransmissions kept goodput flowing)\n",
			100*blerSum/float64(blerN))
	}
	return nil
}
