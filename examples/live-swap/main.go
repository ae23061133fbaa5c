// Live swap: the paper's Fig. 5b scenario. One MVNO with three UEs at MCS
// 20/24/28 (all offered 22 Mb/s) hot-swaps its intra-slice scheduler from
// max-throughput to proportional-fair to round-robin while the gNB keeps
// running and every UE stays attached.
//
// Watch the pattern change: under MT the best-channel UE reaches its target
// and the worst is starved; right after the PF swap the starved UE is
// prioritized (large averaging time constant); under RR shares equalize.
//
//	go run ./examples/live-swap
package main

import (
	"fmt"
	"log"
	"time"

	"waran/internal/exp"
)

func main() {
	const duration = 30 * time.Second
	fmt.Printf("running %v with hot swaps at %v and %v...\n\n", duration, duration/3, 2*duration/3)

	res, err := exp.RunFig5b(duration, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("hot swaps applied: %d    UEs detached during swaps: %d\n\n", res.Swaps, res.UEsDetached)
	fmt.Printf("%-8s %-8s", "t (s)", "phase")
	for _, u := range res.UEs {
		fmt.Printf("  MCS%-2d", u.MCS)
	}
	fmt.Println("  (Mb/s)")

	phaseAt := func(t time.Duration) string {
		name := res.Phases[0].Scheduler
		for _, p := range res.Phases {
			if t > p.Start {
				name = p.Scheduler
			}
		}
		return name
	}
	for i := range res.UEs[0].Series {
		t := res.UEs[0].Series[i].Time
		fmt.Printf("%-8.1f %-8s", t.Seconds(), phaseAt(t))
		for _, u := range res.UEs {
			fmt.Printf("  %5.1f", u.Series[i].Bps/1e6)
		}
		fmt.Println()
	}
}
