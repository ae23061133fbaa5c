package wabi

import (
	"testing"

	"waran/internal/wasm"
	"waran/internal/wat"
)

// FuzzClassify fuzzes raw wasm bodies through the full plugin lifecycle and
// checks the taxonomy invariant the supervisor depends on: every failure —
// compile, instantiate, or call — maps to exactly one stable FailureClass,
// and a call failure is never left unclassified (FailNone/FailUnknown). The
// breaker's per-class ledger is only exact if this holds for arbitrary
// hostile bytecode, not just the built-in schedulers. `make check` runs a
// 10 s smoke of this; longer campaigns via
// go test -fuzz=FuzzClassify ./internal/wabi.
func FuzzClassify(f *testing.F) {
	seeds := []string{
		`(module (func (export "run") (result i32) i32.const 0))`,
		`(module (func (export "run") (result i32) unreachable))`,
		`(module (func (export "run") (result i32) (loop $l br $l) i32.const 0))`,
		`(module (func (export "run") (result i32) i32.const 7))`,
	}
	for _, s := range seeds {
		bin, err := wat.CompileToBinary(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bin)
	}
	f.Add([]byte{0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00}) // empty module
	f.Add([]byte("not wasm at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		mod, err := CompileWasm(data)
		if err != nil {
			if got := ClassOf(err); got != FailInstantiate {
				t.Fatalf("compile error classified %v, want %v: %v", got, FailInstantiate, err)
			}
			return
		}
		p, err := NewPlugin(mod, Policy{
			MaxMemoryPages: 4,
			Fuel:           20_000,
		}, Env{})
		if err != nil {
			if got := ClassOf(err); got != FailInstantiate {
				t.Fatalf("instantiate error classified %v, want %v: %v", got, FailInstantiate, err)
			}
			return
		}
		for _, e := range p.Instance().Module().Exports {
			if e.Kind != wasm.ExternFunc || !p.HasEntry(e.Name) {
				continue
			}
			_, err := p.Call(e.Name, []byte{1, 2, 3})
			if err == nil {
				if p.Poisoned() {
					t.Fatal("successful call left the instance poisoned")
				}
				continue
			}
			got := ClassOf(err)
			switch got {
			case FailTrap, FailFuel, FailGuestError:
				// A fuzzed guest may only fail in ways the supervisor meters.
			default:
				t.Fatalf("call error classified %v, want a call-failure class: %v", got, err)
			}
			if poisoned := got == FailTrap || got == FailFuel; p.Poisoned() != poisoned {
				t.Fatalf("Poisoned %v disagrees with class %v", p.Poisoned(), got)
			}
		}
	})
}
