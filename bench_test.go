// Benchmark harness regenerating the paper's evaluation (§5, Fig. 5a-5d)
// plus the ablations called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Figure mapping:
//
//	Fig. 5a -> BenchmarkFig5aCoexistence   (per-slot cost of the 3-MVNO gNB)
//	Fig. 5b -> BenchmarkFig5bLiveSwap      (cost of a hot scheduler swap)
//	Fig. 5c -> BenchmarkFig5cMemory        (leaky plugin slot under a cap)
//	Fig. 5d -> BenchmarkFig5dExecTime      (plugin schedule incl. serialization;
//	                                        ns/op vs the 1 ms slot deadline)
//
// cmd/waranbench prints the same experiments as the paper's tables/series.
package waran_test

import (
	"fmt"
	"testing"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/ric"
	"waran/internal/sched"
	"waran/internal/wabi"
	"waran/internal/wasm"
	"waran/internal/wat"
)

// buildFig5aGNB assembles the 3-MVNO gNB of Fig. 5a.
func buildFig5aGNB(b *testing.B) *core.GNB {
	b.Helper()
	gnb, err := core.NewGNB(ran.CellConfig{})
	if err != nil {
		b.Fatal(err)
	}
	specs := core.DefaultFig5aSpecs()
	ueID := uint32(1)
	for _, sp := range specs {
		plugin, err := core.NewPluginScheduler(sp.Scheduler, wabi.Policy{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gnb.Slices.AddSlice(sp.ID, sp.Name, sp.TargetBps, plugin, nil); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < sp.NumUEs; k++ {
			ue := ran.NewUE(ueID, sp.ID, 22+2*k)
			ue.Traffic = ran.NewCBR(1.4 * sp.TargetBps / float64(sp.NumUEs))
			if err := gnb.AttachUE(ue); err != nil {
				b.Fatal(err)
			}
			ueID++
		}
	}
	return gnb
}

// BenchmarkFig5aCoexistence measures one full MAC slot of the Fig. 5a gNB:
// traffic + channel step, inter-slice division, three Wasm plugin
// intra-slice decisions, and grant application.
func BenchmarkFig5aCoexistence(b *testing.B) {
	gnb := buildFig5aGNB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gnb.Step()
	}
}

// BenchmarkFig5bLiveSwap measures the on-the-fly scheduler replacement the
// paper performs mid-run: compile-cached plugin instantiation plus the
// atomic hot swap, i.e. the control-plane cost of changing an MVNO policy.
func BenchmarkFig5bLiveSwap(b *testing.B) {
	gnb := buildFig5aGNB(b)
	names := []string{"pf", "rr", "mt"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plugin, err := core.NewPluginScheduler(names[i%len(names)], wabi.Policy{})
		if err != nil {
			b.Fatal(err)
		}
		if err := gnb.Slices.HotSwap(1, plugin); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5cMemory measures one slot of the leaky scheduler plugin
// running against a 16 MiB sandbox cap, the Fig. 5c configuration; the
// sandbox keeps the gNB's footprint flat no matter how long it runs.
func BenchmarkFig5cMemory(b *testing.B) {
	mod, err := wabi.CompileWAT(plugins.LeakWAT)
	if err != nil {
		b.Fatal(err)
	}
	p, err := wabi.NewPlugin(mod, wabi.Policy{MaxMemoryPages: 256}, wabi.Env{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Call("schedule", nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if p.MemoryBytes() > 256*wasm.PageSize {
		b.Fatalf("sandbox exceeded its cap: %d bytes", p.MemoryBytes())
	}
}

// BenchmarkFig5dExecTime is the paper's headline timing experiment: plugin
// execution time including host-side serialization, for each scheduler and
// UE count. Compare ns/op with the 1,000,000 ns slot deadline.
func BenchmarkFig5dExecTime(b *testing.B) {
	for _, name := range []string{"mt", "pf", "rr"} {
		for _, nUE := range []int{1, 10, 20} {
			b.Run(fmt.Sprintf("%s/%dUE", name, nUE), func(b *testing.B) {
				ps, err := core.NewPluginScheduler(name, wabi.Policy{})
				if err != nil {
					b.Fatal(err)
				}
				req := benchRequest(nUE)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					req.Slot = uint64(i)
					if _, err := ps.Schedule(req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func benchRequest(nUE int) *sched.Request {
	cell := ran.CellConfig{}.WithDefaults()
	req := &sched.Request{SliceID: 1, PRBBudget: uint32(cell.PRBs)}
	for i := 0; i < nUE; i++ {
		mcs := 20 + (i % 9)
		req.UEs = append(req.UEs, sched.UEInfo{
			ID:          uint32(i + 1),
			MCS:         int32(mcs),
			BitsPerPRB:  uint32(cell.BitsPerPRB(mcs)),
			BufferBytes: uint32(50_000 + 1000*i),
			AvgTputBps:  float64(1_000_000 * (i + 1)),
		})
	}
	return req
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5).

// BenchmarkAblationNativeVsPlugin quantifies the sandbox tax: the identical
// PF policy as native Go versus as a Wasm plugin.
func BenchmarkAblationNativeVsPlugin(b *testing.B) {
	req := benchRequest(10)
	b.Run("native", func(b *testing.B) {
		s := sched.ProportionalFair{}
		for i := 0; i < b.N; i++ {
			req.Slot = uint64(i)
			if _, err := s.Schedule(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plugin", func(b *testing.B) {
		ps, err := core.NewPluginScheduler("pf", wabi.Policy{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req.Slot = uint64(i)
			if _, err := ps.Schedule(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationABICodec compares the compact binary scheduling ABI with
// a JSON ABI on the host side (encode request + decode response), showing
// why the fixed layout is the default inside the 1 ms budget.
func BenchmarkAblationABICodec(b *testing.B) {
	req := benchRequest(20)
	resp := &sched.Response{Allocs: []sched.Allocation{{UEID: 1, PRBs: 20}, {UEID: 2, PRBs: 32}}}
	b.Run("binary", func(b *testing.B) {
		codec := sched.BinaryCodec{}
		wire := codec.EncodeResponse(resp)
		for i := 0; i < b.N; i++ {
			in := codec.EncodeRequest(req)
			if _, err := codec.DecodeResponse(wire); err != nil {
				b.Fatal(err)
			}
			_ = in
		}
	})
	b.Run("json", func(b *testing.B) {
		codec := sched.JSONCodec{}
		wire := codec.EncodeResponse(resp)
		for i := 0; i < b.N; i++ {
			in := codec.EncodeRequest(req)
			if _, err := codec.DecodeResponse(wire); err != nil {
				b.Fatal(err)
			}
			_ = in
		}
	})
}

// BenchmarkAblationInstanceReuse compares reusing one plugin instance per
// slice (default) with re-instantiating the sandbox on every call (maximum
// isolation).
func BenchmarkAblationInstanceReuse(b *testing.B) {
	req := benchRequest(10)
	for _, mode := range []struct {
		name  string
		fresh bool
	}{{"reuse", false}, {"fresh", true}} {
		b.Run(mode.name, func(b *testing.B) {
			mod, err := plugins.CompileScheduler("mt")
			if err != nil {
				b.Fatal(err)
			}
			p, err := wabi.NewPlugin(mod, wabi.Policy{FreshInstance: mode.fresh, Fuel: 10_000_000}, wabi.Env{})
			if err != nil {
				b.Fatal(err)
			}
			ps, err := sched.NewPluginScheduler("mt", p, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.Slot = uint64(i)
				if _, err := ps.Schedule(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFuelOverhead measures the cost of instruction metering,
// the mechanism that converts infinite loops into deterministic traps.
func BenchmarkAblationFuelOverhead(b *testing.B) {
	for _, mode := range []struct {
		name string
		fuel int64
	}{{"metered", 100_000_000}, {"unmetered", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			mod, err := plugins.CompileScheduler("pf")
			if err != nil {
				b.Fatal(err)
			}
			p, err := wabi.NewPlugin(mod, wabi.Policy{Fuel: mode.fuel}, wabi.Env{})
			if err != nil {
				b.Fatal(err)
			}
			ps, err := sched.NewPluginScheduler("pf", p, nil)
			if err != nil {
				b.Fatal(err)
			}
			req := benchRequest(10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.Slot = uint64(i)
				if _, err := ps.Schedule(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Runtime microbenchmarks.

// BenchmarkWasmInterpFib measures raw wasm execution throughput (default
// tier) on a call-heavy recursive workload.
func BenchmarkWasmInterpFib(b *testing.B) {
	src := `(module (func $fib (export "fib") (param $n i32) (result i32)
	  (if (result i32) (i32.lt_s (local.get $n) (i32.const 2))
	    (then (local.get $n))
	    (else (i32.add
	      (call $fib (i32.sub (local.get $n) (i32.const 1)))
	      (call $fib (i32.sub (local.get $n) (i32.const 2))))))))`
	in := instantiate(b, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Call("fib", 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWasmMemoryOps measures bounds-checked linear memory access.
func BenchmarkWasmMemoryOps(b *testing.B) {
	src := `(module (memory (export "memory") 1)
	  (func (export "churn") (param $n i32) (result i32)
	    (local $i i32) (local $s i32)
	    (block $done (loop $top
	      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
	      (i32.store (i32.and (i32.mul (local.get $i) (i32.const 13)) (i32.const 0xFFFC)) (local.get $i))
	      (local.set $s (i32.add (local.get $s)
	        (i32.load (i32.and (i32.mul (local.get $i) (i32.const 7)) (i32.const 0xFFFC)))))
	      (local.set $i (i32.add (local.get $i) (i32.const 1)))
	      (br $top)))
	    (local.get $s)))`
	in := instantiate(b, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Call("churn", 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWatCompile measures the toolchain: WAT parse + assemble +
// validate + flatten for the PF scheduler plugin.
func BenchmarkWatCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := wat.Compile(plugins.ProportionalFairWAT)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wasm.Compile(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWasmDecode measures binary decode + validate + flatten of the
// encoded PF plugin, i.e. the plugin upload path.
func BenchmarkWasmDecode(b *testing.B) {
	bin, err := wat.CompileToBinary(plugins.ProportionalFairWAT)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wabi.CompileWasm(bin); err != nil {
			b.Fatal(err)
		}
	}
}

func instantiate(b *testing.B, src string) *wasm.Instance {
	b.Helper()
	m, err := wat.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	cm, err := wasm.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	in, err := cm.Instantiate(nil, wasm.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// ---------------------------------------------------------------------------
// E2 / RIC benchmarks.

// BenchmarkE2Codecs compares the operator codec choices on a realistic
// 20-UE indication.
func BenchmarkE2Codecs(b *testing.B) {
	msg := benchIndication(20)
	for _, codec := range []e2.Codec{e2.BinaryCodec{}, e2.VarintCodec{}, e2.JSONCodec{}} {
		b.Run(codec.Name(), func(b *testing.B) {
			wire, err := codec.Encode(msg)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(wire)))
			for i := 0; i < b.N; i++ {
				w, err := codec.Encode(msg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := codec.Decode(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2SealedCodec measures the AES-GCM sealing option.
func BenchmarkE2SealedCodec(b *testing.B) {
	sealed, err := e2.NewSealedCodec(e2.BinaryCodec{}, "operator-secret")
	if err != nil {
		b.Fatal(err)
	}
	msg := benchIndication(20)
	for i := 0; i < b.N; i++ {
		w, err := sealed.Encode(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sealed.Decode(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2PluginCodec measures the communication-plugin wrapping
// overhead (the widen-8-to-12 vendor shim) on the same indication.
func BenchmarkE2PluginCodec(b *testing.B) {
	codec, err := ric.NewPluginCodecWAT("widen8to12", plugins.Widen8To12CommWAT, e2.BinaryCodec{})
	if err != nil {
		b.Fatal(err)
	}
	msg := benchIndication(20)
	for i := 0; i < b.N; i++ {
		w, err := codec.Encode(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codec.Decode(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXAppDispatch measures a full RIC indication dispatch across both
// evaluation xApps.
func BenchmarkXAppDispatch(b *testing.B) {
	r := ric.MustNew(ric.Config{})
	if _, err := r.AddXAppWAT("steer", plugins.TrafficSteerXAppWAT, wabi.Policy{}); err != nil {
		b.Fatal(err)
	}
	if _, err := r.AddXAppWAT("sla", plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
		b.Fatal(err)
	}
	ind := benchIndication(20).Indication
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.HandleIndication(ind)
	}
}

func benchIndication(nUE int) *e2.Message {
	ind := &e2.Indication{Slot: 12345, Cell: 7}
	for i := 0; i < nUE; i++ {
		ind.UEs = append(ind.UEs, e2.UEMeasurement{
			UEID: uint32(i + 1), SliceID: uint32(i%3 + 1), MCS: int32(10 + i%19),
			BufferBytes: 40000, TputBps: 4e6,
		})
	}
	for s := 1; s <= 3; s++ {
		ind.Slices = append(ind.Slices, e2.SliceMeasurement{
			SliceID: uint32(s), TargetBps: 10e6, ServedBps: 8e6, UsedPRBs: 17,
		})
	}
	return &e2.Message{Type: e2.TypeIndication, RANFunction: e2.RANFunctionKPM, Indication: ind}
}

// ---------------------------------------------------------------------------
// Extension benchmarks (features beyond the paper's prototype).

// BenchmarkBytecodeUploadPath measures the plugin upload gauntlet — the
// cost of the paper's Fig. 1 "push software into the RAN" control action.
// "coldcache" pays decode + validate + flatten + instantiate + hot swap on
// every upload (the pre-cache behaviour); "cached" resolves the bytecode
// through the content-addressed module cache, leaving only the hash lookup,
// instantiation and swap — the steady-state cost of fanning one plugin
// across a fleet of cells.
func BenchmarkBytecodeUploadPath(b *testing.B) {
	blob, err := wat.CompileToBinary(plugins.ProportionalFairWAT)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"coldcache", "cached"} {
		b.Run(mode, func(b *testing.B) {
			gnb := buildFig5aGNB(b)
			if mode == "coldcache" {
				gnb.Modules = nil
			}
			b.SetBytes(int64(len(blob)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := gnb.Apply(&e2.ControlRequest{
					Action: e2.ActionUploadScheduler, SliceID: 1, Text: "v", Blob: blob,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Multi-cell slot engine.

// buildCellGroup assembles a group of Fig. 5a-shaped cells whose slices
// share pool-backed plugin schedulers, so concurrent cells fan intra-slice
// decisions across parallel sandboxes of one compiled module. abi selects
// the plugin call path for every installed scheduler.
func buildCellGroup(b *testing.B, cells, par int, abi sched.ABIMode) *core.CellGroup {
	b.Helper()
	cg, err := core.NewCellGroup(ran.CellConfig{}, core.CellGroupConfig{Cells: cells, Parallelism: par})
	if err != nil {
		b.Fatal(err)
	}
	cg.PluginABI = abi
	specs := core.DefaultFig5aSpecs()
	for c := 0; c < cells; c++ {
		gnb := cg.Cell(c)
		ueID := uint32(1)
		for _, sp := range specs {
			if _, err := gnb.Slices.AddSlice(sp.ID, sp.Name, sp.TargetBps, sched.RoundRobin{}, nil); err != nil {
				b.Fatal(err)
			}
			for k := 0; k < sp.NumUEs; k++ {
				ue := ran.NewUE(ueID, sp.ID, 22+2*k)
				ue.Traffic = ran.NewCBR(1.4 * sp.TargetBps / float64(sp.NumUEs))
				if err := gnb.AttachUE(ue); err != nil {
					b.Fatal(err)
				}
				ueID++
			}
		}
	}
	for _, sp := range specs {
		if _, err := cg.InstallPooledScheduler(sp.ID, sp.Scheduler, wabi.Policy{}, cells); err != nil {
			b.Fatal(err)
		}
	}
	return cg
}

// BenchmarkMultiCellSlots measures one group slot (all cells stepped) for
// an 8-cell deployment at parallelism 1 vs GOMAXPROCS, against the
// single-cell baseline, for both plugin call paths. The scaling claim: at
// GOMAXPROCS >= 4 the 8-cell group steps in well under 8x the single-cell
// ns/op; the codec-vs-zerocopy split isolates the serialization share of
// the slot from the scheduling logic itself.
func BenchmarkMultiCellSlots(b *testing.B) {
	b.Run("1cell", func(b *testing.B) {
		gnb := buildFig5aGNB(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gnb.Step()
		}
	})
	for _, cfg := range []struct {
		name string
		par  int
		abi  sched.ABIMode
	}{
		{"8cell/par=1/codec", 1, sched.ABICodec},
		{"8cell/par=1/zerocopy", 1, sched.ABIZeroCopy},
		{"8cell/par=max/codec", 0, sched.ABICodec}, // par 0 = GOMAXPROCS
		{"8cell/par=max/zerocopy", 0, sched.ABIZeroCopy},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			cg := buildCellGroup(b, 8, cfg.par, cfg.abi)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cg.StepAll()
			}
			b.StopTimer()
			st := cg.WatchdogStats()
			var overruns uint64
			for _, s := range st {
				overruns += s.Overruns
			}
			b.ReportMetric(float64(overruns)/float64(b.N*8), "overruns/slot")
		})
	}
}

// BenchmarkABIPath isolates the host-side call path itself: one plugin
// scheduler forced onto the serializing codec vs the zero-copy regions, at
// realistic UE counts. "zerocopy" pays the delta diff against the shadow
// buffer; "zerocopy-cold" mutates every record each slot so nothing is
// skippable, bounding the worst case.
func BenchmarkABIPath(b *testing.B) {
	for _, mode := range []struct {
		name string
		abi  sched.ABIMode
		cold bool
	}{
		{"codec", sched.ABICodec, false},
		{"zerocopy", sched.ABIZeroCopy, false},
		{"zerocopy-cold", sched.ABIZeroCopy, true},
	} {
		for _, nUE := range []int{10, 64, 256} {
			b.Run(fmt.Sprintf("%s/%dUE", mode.name, nUE), func(b *testing.B) {
				ps, err := core.NewPluginScheduler("pf", wabi.Policy{})
				if err != nil {
					b.Fatal(err)
				}
				if err := ps.SetABIMode(mode.abi); err != nil {
					b.Fatal(err)
				}
				req := benchRequest(nUE)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					req.Slot = uint64(i)
					if mode.cold {
						for u := range req.UEs {
							req.UEs[u].BufferBytes = uint32(50_000 + i + u)
						}
					}
					if _, err := ps.Schedule(req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMultiCellHotSwap measures fanning one plugin upload across a
// 64-cell group through the shared module cache: one compile, 64 swaps.
func BenchmarkMultiCellHotSwap(b *testing.B) {
	blob, err := wat.CompileToBinary(plugins.ProportionalFairWAT)
	if err != nil {
		b.Fatal(err)
	}
	cg, err := core.NewCellGroup(ran.CellConfig{}, core.CellGroupConfig{Cells: 64, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := cg.Cell(i).Slices.AddSlice(1, "t", 10e6, sched.RoundRobin{}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cg.UploadSchedulerAll(1, "pf", blob, wabi.Policy{}, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBudgetPoolBeginSlot measures the per-slot cost of the §6B joint
// resource manager with 8 registered plugins.
func BenchmarkBudgetPoolBeginSlot(b *testing.B) {
	mod, err := plugins.CompileScheduler("mt")
	if err != nil {
		b.Fatal(err)
	}
	pool := wabi.NewBudgetPool(10_000_000)
	for i := 0; i < 8; i++ {
		p, err := wabi.NewPlugin(mod, wabi.Policy{Fuel: 1}, wabi.Env{})
		if err != nil {
			b.Fatal(err)
		}
		if err := pool.Register(fmt.Sprintf("p%d", i), p, float64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.BeginSlot()
		pool.EndSlot()
	}
}

// BenchmarkDisassemble measures the tooling path used when inspecting
// third-party plugin uploads.
func BenchmarkDisassemble(b *testing.B) {
	bin, err := wat.CompileToBinary(plugins.RoundRobinWAT)
	if err != nil {
		b.Fatal(err)
	}
	m, err := wasm.Decode(bin)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wasm.Disassemble(m)
	}
}
