// MVNO slicing: the paper's Fig. 5a scenario. Three MVNOs rent slices of
// one gNB, each bringing its own scheduling policy as a Wasm plugin:
// an eMBB operator using max-throughput, an IoT operator using round-robin,
// and a consumer operator using proportional fair, with contracted rates of
// 3, 12 and 15 Mb/s. All three co-exist and reach their targets.
//
//	go run ./examples/mvno-slicing
package main

import (
	"fmt"
	"log"
	"time"

	"waran/internal/core"
	"waran/internal/exp"
)

func main() {
	specs := []core.MVNOSpec{
		{ID: 1, Name: "eMBB-Co", Scheduler: "mt", TargetBps: 3e6, NumUEs: 3},
		{ID: 2, Name: "IoT-Net", Scheduler: "rr", TargetBps: 12e6, NumUEs: 3},
		{ID: 3, Name: "FairTel", Scheduler: "pf", TargetBps: 15e6, NumUEs: 3},
	}
	const duration = 10 * time.Second

	fmt.Printf("running %v of sliced gNB (10 MHz, 52 PRB, 1 ms slots)...\n\n", duration)
	res, err := exp.RunFig5a(specs, duration)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %-18s %12s %12s\n", "MVNO", "intra-slice sched", "target Mb/s", "achieved")
	for _, m := range res.MVNOs {
		fmt.Printf("%-10s %-18s %12.2f %12.2f\n",
			m.Spec.Name, "wasm:"+m.Spec.Scheduler, m.TargetBps/1e6, m.MeanBps/1e6)
	}

	fmt.Println("\nper-MVNO bitrate over time (Mb/s):")
	fmt.Printf("%-8s", "t (s)")
	for _, m := range res.MVNOs {
		fmt.Printf("%12s", m.Spec.Name)
	}
	fmt.Println()
	for i := range res.MVNOs[0].Series {
		fmt.Printf("%-8.1f", res.MVNOs[0].Series[i].Time.Seconds())
		for _, m := range res.MVNOs {
			fmt.Printf("%12.2f", m.Series[i].Bps/1e6)
		}
		fmt.Println()
	}
}
