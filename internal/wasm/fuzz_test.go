package wasm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"waran/internal/plugins"
	"waran/internal/wasm"
	"waran/internal/wat"
)

// TestMutatedModulesNeverPanic is the upload-path robustness check: the gNB
// accepts plugin bytecode from third parties, so random corruption of valid
// modules must produce clean errors (or valid modules), never a panic in
// decode, validation, compilation or instantiation.
func TestMutatedModulesNeverPanic(t *testing.T) {
	seed, err := wat.CompileToBinary(fullFeatureWAT)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1234))
	const trials = 4000

	for trial := 0; trial < trials; trial++ {
		mutated := append([]byte(nil), seed...)
		// 1-4 random byte mutations: flip, overwrite, truncate.
		for n := 1 + rng.Intn(4); n > 0; n-- {
			switch rng.Intn(3) {
			case 0:
				i := rng.Intn(len(mutated))
				mutated[i] ^= byte(1 << rng.Intn(8))
			case 1:
				i := rng.Intn(len(mutated))
				mutated[i] = byte(rng.Intn(256))
			case 2:
				if len(mutated) > 9 {
					mutated = mutated[:9+rng.Intn(len(mutated)-9)]
				}
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic on mutated input: %v\n%x", trial, r, mutated)
				}
			}()
			m, err := wasm.Decode(mutated)
			if err != nil {
				return
			}
			cm, err := wasm.Compile(m)
			if err != nil {
				return
			}
			// Instantiation must also stay panic-free (imports unresolved
			// is fine as an error).
			imports := wasm.Imports{"env": {"host": &wasm.HostFunc{
				Name: "host",
				Type: wasm.FuncType{Params: []wasm.ValType{wasm.ValI32}, Results: []wasm.ValType{wasm.ValI32}},
				Fn: func(ctx *wasm.CallContext, args []uint64) ([]uint64, error) {
					return []uint64{args[0]}, nil
				},
			}}}
			in, err := cm.Instantiate(imports, wasm.Config{MaxMemoryPages: 64})
			if err != nil {
				return
			}
			// Even a successfully instantiated mutant must only ever trap.
			in.SetFuel(100_000)
			for _, e := range in.Module().Exports {
				if e.Kind != wasm.ExternFunc {
					continue
				}
				ft, _ := in.FuncType(e.Name)
				args := make([]uint64, len(ft.Params))
				_, _ = in.Call(e.Name, args...)
			}
		}()
	}
}

// TestMutatedWATNeverPanics does the same for the text compiler, which
// also processes third-party input (wat2wasm, test fixtures).
func TestMutatedWATNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	base := []byte(fullFeatureWAT)
	for trial := 0; trial < 2000; trial++ {
		mutated := append([]byte(nil), base...)
		for n := 1 + rng.Intn(3); n > 0; n-- {
			switch rng.Intn(3) {
			case 0:
				mutated[rng.Intn(len(mutated))] = byte(rng.Intn(128))
			case 1:
				i := rng.Intn(len(mutated))
				mutated[i] = "()\"$;"[rng.Intn(5)]
			case 2:
				mutated = mutated[:rng.Intn(len(mutated))+1]
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic: %v\nsource: %s", trial, r, mutated)
				}
			}()
			m, err := wat.Compile(string(mutated))
			if err != nil {
				return
			}
			_, _ = wasm.Compile(m)
		}()
	}
}

// TestDecodeLimitsRejectBombs: section vectors claiming absurd lengths must
// be refused, not allocated.
func TestDecodeLimitsRejectBombs(t *testing.T) {
	// Type section claiming 2^30 entries in 6 bytes.
	bomb := []byte{0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00,
		1, 5, 0x80, 0x80, 0x80, 0x80, 0x04}
	if _, err := wasm.Decode(bomb); err == nil {
		t.Fatal("vector bomb accepted")
	}
}

// TestHugeFunctionBody exercises compiler scalability: a 40k-instruction
// straight-line function must compile and run.
func TestHugeFunctionBody(t *testing.T) {
	var b []byte
	b = append(b, []byte(`(module (func (export "big") (result i32) i32.const 0 `)...)
	for i := 0; i < 20000; i++ {
		b = append(b, []byte(fmt.Sprintf("i32.const %d i32.add ", i%7))...)
	}
	b = append(b, []byte("))")...)
	in := mustInstance(t, string(b))
	want := uint64(0)
	for i := 0; i < 20000; i++ {
		want += uint64(i % 7)
	}
	if got := call1(t, in, "big"); got != want {
		t.Fatalf("big = %d, want %d", got, want)
	}
}

// FuzzDecode is the native fuzz target over the plugin upload gauntlet:
// decode, compile, instantiate and (fuel-bounded) execute arbitrary bytes.
// Anything but a clean error or a trap is a finding, and so is any
// difference between the tiers: every export runs on the reference
// interpreter and on the closure tier, which must agree on results, trap
// class, InstrCount, fuel left and the memory bytes — so mutated programs,
// not only the shipped guests, check the closure lowering. `make check`
// runs a 10 s smoke of this; longer campaigns via
// go test -fuzz=FuzzDecode ./internal/wasm.
func FuzzDecode(f *testing.F) {
	seed, err := wat.CompileToBinary(fullFeatureWAT)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, name := range []string{"rr", "pf", "mt"} {
		src, _ := plugins.SchedulerWAT(name)
		bin, err := wat.CompileToBinary(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bin)
	}
	loop, err := wat.CompileToBinary(loopingStartWAT) // metered start runs out of fuel
	if err != nil {
		f.Fatal(err)
	}
	f.Add(loop)
	f.Add([]byte{0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00}) // empty module
	f.Add([]byte{0x00, 0x61, 0x73, 0x6D})                         // truncated magic
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := wasm.Decode(data)
		if err != nil {
			return
		}
		cm, err := wasm.Compile(m)
		if err != nil {
			return
		}
		// Every imported function is a stub that returns zeros, so modules
		// with imports (the scheduler guests among them) run too.
		imports := wasm.Imports{}
		for _, im := range m.Imports {
			if im.Kind != wasm.ExternFunc || int(im.TypeIx) >= len(m.Types) {
				continue
			}
			ft := m.Types[im.TypeIx]
			if imports[im.Module] == nil {
				imports[im.Module] = map[string]*wasm.HostFunc{}
			}
			imports[im.Module][im.Name] = &wasm.HostFunc{Name: im.Name, Type: ft,
				Fn: func(*wasm.CallContext, []uint64) ([]uint64, error) { return make([]uint64, len(ft.Results)), nil }}
		}
		var runs [2][]tierState
		for i, tier := range []wasm.Tier{wasm.TierInterp, wasm.TierClosure} {
			in, err := cm.Instantiate(imports, wasm.Config{MaxMemoryPages: 64, MeterFuel: true, Tier: tier})
			if err != nil {
				runs[i] = append(runs[i], tierState{err: err.Error()})
				continue
			}
			in.SetFuel(50_000)
			for _, e := range in.Module().Exports {
				if e.Kind != wasm.ExternFunc {
					continue
				}
				ft, _ := in.FuncType(e.Name)
				st := callState(in, e.Name, make([]uint64, len(ft.Params))...)
				st.mem = nil
				runs[i] = append(runs[i], st)
			}
			runs[i] = append(runs[i], tierState{mem: memBytes(in)})
		}
		if len(runs[0]) != len(runs[1]) {
			t.Fatalf("closure made %d calls, interpreter %d", len(runs[1]), len(runs[0]))
		}
		for j := range runs[0] {
			if d := runs[1][j].diff(runs[0][j]); d != "" {
				t.Fatalf("call %d: closure vs interpreter: %s", j, d)
			}
		}
	})
}
