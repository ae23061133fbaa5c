// Quickstart: load an MVNO scheduler written in WebAssembly, hand it one
// slot's scheduling request, and print its decision.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"waran/internal/plugins"
	"waran/internal/sched"
	"waran/internal/wabi"
)

func main() {
	// 1. Compile the proportional-fair scheduler plugin (shipped as WAT
	//    source; any toolchain producing wasm bytecode works the same way).
	mod, err := plugins.CompileScheduler("pf")
	if err != nil {
		log.Fatal(err)
	}

	// 2. Host it in a pool of one sandbox: the default 16 MiB memory cap
	//    and a 10M-instruction fuel budget per call. A call checks the
	//    instance out; one that traps is discarded, never called again.
	pool := wabi.NewPool(mod, wabi.Policy{Fuel: wabi.DefaultFuel}, wabi.Env{}, 1)
	scheduler, err := sched.NewPoolScheduler("pf", pool)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Build one slot's request: 52 PRBs to divide among three UEs with
	//    different channels, queues and history.
	req := &sched.Request{
		SliceID:   1,
		Slot:      42,
		PRBBudget: 52,
		UEs: []sched.UEInfo{
			{ID: 1, MCS: 28, BitsPerPRB: 802, BufferBytes: 20000, AvgTputBps: 18e6},
			{ID: 2, MCS: 24, BitsPerPRB: 653, BufferBytes: 20000, AvgTputBps: 9e6},
			{ID: 3, MCS: 20, BitsPerPRB: 479, BufferBytes: 20000, AvgTputBps: 1e6},
		},
	}

	// 4. The request crosses the sandbox boundary, the plugin decides, and
	//    the validated decision comes back.
	resp, err := scheduler.Schedule(req)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("plugin %q divided %d PRBs (slot %d):\n", scheduler.Name(), req.PRBBudget, req.Slot)
	for _, a := range resp.Allocs {
		fmt.Printf("  UE %d <- %2d PRBs\n", a.UEID, a.PRBs)
	}
	fmt.Printf("(PF prioritizes UE 3: lowest long-term throughput wins first)\n")
	fmt.Printf("plugin call took %v inside the sandbox\n", scheduler.Stats().LastTime)
}
