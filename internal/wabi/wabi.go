// Package wabi is WA-RAN's plugin application binary interface: the
// host-side layer that loads untrusted WebAssembly plugins and exchanges
// byte-oriented requests and responses with them, in the role Extism plays
// in the paper's prototype.
//
// # ABI contract
//
// A plugin is a wasm module that:
//
//   - exports a linear memory named "memory";
//
//   - exports one or more entry functions with signature () -> i32, where 0
//     means success and any other value is a plugin-defined error code;
//
//   - imports its I/O primitives from module "waran":
//
//     (import "waran" "input_length" (func (result i32)))
//     (import "waran" "input_read"   (func (param i32 i32 i32) (result i32)))
//     (import "waran" "output_write" (func (param i32 i32)))
//     (import "waran" "error_set"    (func (param i32 i32)))
//     (import "waran" "log"          (func (param i32 i32)))
//
// input_read(dst, off, n) copies up to n bytes of the call input starting at
// offset off into guest memory at dst and returns the number copied.
// output_write replaces the call output with the given guest-memory range.
// error_set records a guest-readable error string surfaced in CallError.
//
// Hosts may expose additional domain host functions (gNB control, RIC
// messaging) under other module names via Env.
package wabi

import (
	"errors"
	"fmt"

	"waran/internal/wasm"
	"waran/internal/wat"
)

// DefaultMaxMemoryPages is the memory cap of a Policy that sets none.
const DefaultMaxMemoryPages = 256 // 16 MiB

// DefaultFuel is the per-call instruction budget the gNB and the RIC arm a
// scheduler or xApp with when its policy sets none: comfortable for 20 UEs,
// small enough to bound a slot overrun. A Policy's own zero Fuel still means
// no metering.
const DefaultFuel = 10_000_000

// maxInputBytes and maxOutputBytes bound every call's input and what its
// guest may emit; maxRetainedOutput caps the output buffer an instance keeps
// between calls, so one outsized answer does not pin its copy for the
// instance's life.
const (
	maxInputBytes     = 1 << 20
	maxOutputBytes    = 1 << 20
	maxRetainedOutput = 64 << 10
)

// Policy bounds the resources one plugin may consume per call and overall.
type Policy struct {
	// MaxMemoryPages caps the plugin's linear memory (64 KiB pages).
	// Zero means DefaultMaxMemoryPages.
	MaxMemoryPages uint32
	// Fuel is the per-call instruction budget. Zero disables metering.
	Fuel int64
	// Tier is the wasm execution tier of every instance this plugin creates.
	// The zero value is wasm.TierClosure, the production path;
	// wasm.TierInterp selects the reference interpreter for differential
	// tests.
	Tier wasm.Tier
}

func (p Policy) withDefaults() Policy {
	if p.MaxMemoryPages == 0 {
		p.MaxMemoryPages = DefaultMaxMemoryPages
	}
	return p
}

// Env supplies optional host extensions and observers.
type Env struct {
	// HostFuncs maps module name -> function name -> implementation, merged
	// with (and unable to override) the "waran" ABI module. A host function
	// must not block: fuel is the only bound on a call, and it cannot see
	// time spent inside the host.
	HostFuncs wasm.Imports
	// OnLog receives guest log lines, if set.
	OnLog func(msg string)
	// Profile, when non-nil, attaches the per-function fuel/wall-time
	// profiler to every instance created under this Env (pool refills
	// included). ProfileTag prefixes the
	// recorded function names ("sla:on_indication") so one collector can
	// aggregate scheduler plugins and xApps side by side.
	Profile    *wasm.Profile
	ProfileTag string
}

// Module is compiled plugin code, instantiable many times.
type Module struct {
	cm *wasm.CompiledModule
}

// CompileWasm compiles plugin bytecode (decode + validate + flatten).
// Failures are *InstantiateError: the bytecode can never become a runnable
// instance.
func CompileWasm(bin []byte) (*Module, error) {
	m, err := wasm.Decode(bin)
	if err != nil {
		return nil, &InstantiateError{Err: err}
	}
	cm, err := wasm.Compile(m)
	if err != nil {
		return nil, &InstantiateError{Err: err}
	}
	return &Module{cm: cm}, nil
}

// CompileWAT compiles plugin source in the WebAssembly text format.
func CompileWAT(src string) (*Module, error) {
	m, err := wat.Compile(src)
	if err != nil {
		return nil, &InstantiateError{Err: err}
	}
	cm, err := wasm.Compile(m)
	if err != nil {
		return nil, &InstantiateError{Err: err}
	}
	return &Module{cm: cm}, nil
}

// CallError is returned when a plugin invocation fails. It distinguishes
// sandbox faults (Trap != nil) from plugin-reported errors (Code/Message).
type CallError struct {
	Entry   string
	Trap    *wasm.Trap
	Code    int32  // non-zero entry function return
	Message string // guest-set error string
}

// Error implements the error interface.
func (e *CallError) Error() string {
	switch {
	case e.Trap != nil:
		return fmt.Sprintf("wabi: plugin %q faulted: %v", e.Entry, e.Trap)
	case e.Message != "":
		return fmt.Sprintf("wabi: plugin %q failed (code %d): %s", e.Entry, e.Code, e.Message)
	default:
		return fmt.Sprintf("wabi: plugin %q failed with code %d", e.Entry, e.Code)
	}
}

// Unwrap exposes the trap for errors.As / errors.Is.
// api-exempt: errors.As reaches the trap through it (the safety figure's trap codes).
func (e *CallError) Unwrap() error {
	if e.Trap != nil {
		return e.Trap
	}
	return nil
}

// Plugin is an instantiated plugin ready to receive calls. Not safe for
// concurrent use; callers serialize or use one Plugin per goroutine.
type Plugin struct {
	policy Policy
	env    Env
	inst   *wasm.Instance

	input    []byte
	output   []byte
	guestErr string
	// outBuf is the storage output_write copies the guest's output into,
	// reused from call to call: what Call returns is valid until the next
	// Call on this instance.
	outBuf []byte

	// ret is what the "waran" host functions return their one result in,
	// and callRes where the entry function's result lands: both are read
	// before the next call of their kind overwrites them.
	ret     [1]uint64
	callRes [1]uint64

	// zc is the negotiated zero-copy region state for the current instance,
	// nil until the first Regions call and invalidated whenever the instance
	// is replaced or discarded.
	zc *Regions

	// The last call's outcome. Unsynchronized like the rest of the Plugin:
	// one goroutine at a time.
	lastFuel int64
	poisoned bool
}

// LastFuelUsed reports the instruction budget consumed by the most recent
// call, or 0 when fuel metering is disabled.
func (p *Plugin) LastFuelUsed() int64 { return p.lastFuel }

// LastTier reports the execution tier the plugin's calls run on
// (Policy.Tier, fixed for the plugin's lifetime).
func (p *Plugin) LastTier() wasm.Tier { return p.inst.EffectiveTier() }

// Poisoned reports whether the last call aborted mid-execution — a trap
// or fuel exhaustion — leaving the linear memory in an unknown
// intermediate state. Poisoned instances must not be handed to another
// caller; Pool.Put discards them.
func (p *Plugin) Poisoned() bool { return p.poisoned }

// NewPlugin instantiates mod under the given policy and environment.
// Failures are *InstantiateError.
func NewPlugin(mod *Module, policy Policy, env Env) (*Plugin, error) {
	p := &Plugin{policy: policy.withDefaults(), env: env}
	inst, err := p.instantiate(mod)
	if err != nil {
		return nil, &InstantiateError{Err: err}
	}
	p.inst = inst
	return p, nil
}

func (p *Plugin) instantiate(mod *Module) (*wasm.Instance, error) {
	imports := wasm.Imports{"waran": p.abiModule()}
	for mod, fns := range p.env.HostFuncs {
		if mod == "waran" {
			return nil, errors.New(`wabi: Env.HostFuncs may not define module "waran"`)
		}
		imports[mod] = fns
	}
	inst, err := mod.cm.Instantiate(imports, wasm.Config{
		MaxMemoryPages: p.policy.MaxMemoryPages,
		MeterFuel:      p.policy.Fuel > 0,
		Tier:           p.policy.Tier,
	})
	if err != nil {
		return nil, fmt.Errorf("wabi: instantiate plugin: %w", err)
	}
	if inst.Memory() == nil {
		return nil, errors.New("wabi: plugin must define a linear memory")
	}
	inst.HostData = p
	if p.env.Profile != nil {
		inst.SetProfile(p.env.Profile, p.env.ProfileTag)
	}
	return inst, nil
}

// abiModule builds the "waran" import namespace bound to this Plugin.
func (p *Plugin) abiModule() map[string]*wasm.HostFunc {
	i32 := wasm.ValI32
	return map[string]*wasm.HostFunc{
		"input_length": {
			Name: "input_length",
			Type: wasm.FuncType{Results: []wasm.ValType{i32}},
			Fn: func(ctx *wasm.CallContext, args []uint64) ([]uint64, error) {
				return p.result(uint32(len(p.input))), nil
			},
		},
		"input_read": {
			Name: "input_read",
			Type: wasm.FuncType{Params: []wasm.ValType{i32, i32, i32}, Results: []wasm.ValType{i32}},
			Fn: func(ctx *wasm.CallContext, args []uint64) ([]uint64, error) {
				dst, off, n := uint32(args[0]), uint32(args[1]), uint32(args[2])
				if off >= uint32(len(p.input)) {
					return p.result(0), nil
				}
				src := p.input[off:]
				if uint32(len(src)) > n {
					src = src[:n]
				}
				if err := ctx.Memory().Write(dst, src); err != nil {
					return nil, err
				}
				return p.result(uint32(len(src))), nil
			},
		},
		"output_write": {
			Name: "output_write",
			Type: wasm.FuncType{Params: []wasm.ValType{i32, i32}},
			Fn: func(ctx *wasm.CallContext, args []uint64) ([]uint64, error) {
				ptr, n := uint32(args[0]), uint32(args[1])
				if n > maxOutputBytes {
					return nil, fmt.Errorf("wabi: output of %d bytes exceeds limit %d", n, maxOutputBytes)
				}
				b, err := ctx.Memory().AppendRead(p.outBuf[:0], ptr, n)
				if err != nil {
					return nil, err
				}
				p.outBuf, p.output = b, b
				return nil, nil
			},
		},
		"error_set": {
			Name: "error_set",
			Type: wasm.FuncType{Params: []wasm.ValType{i32, i32}},
			Fn: func(ctx *wasm.CallContext, args []uint64) ([]uint64, error) {
				b, err := ctx.Memory().Read(uint32(args[0]), uint32(args[1]))
				if err != nil {
					return nil, err
				}
				p.guestErr = string(b)
				return nil, nil
			},
		},
		"log": {
			Name: "log",
			Type: wasm.FuncType{Params: []wasm.ValType{i32, i32}},
			Fn: func(ctx *wasm.CallContext, args []uint64) ([]uint64, error) {
				if p.env.OnLog == nil {
					return nil, nil
				}
				b, err := ctx.Memory().Read(uint32(args[0]), uint32(args[1]))
				if err != nil {
					return nil, err
				}
				p.env.OnLog(string(b))
				return nil, nil
			},
		},
	}
}

// result stores a host function's i32 result in the plugin's scratch.
func (p *Plugin) result(v uint32) []uint64 {
	p.ret[0] = uint64(v)
	return p.ret[:]
}

// HasEntry reports whether the plugin exports entry with the () -> i32
// signature.
func (p *Plugin) HasEntry(entry string) bool {
	ft, ok := p.inst.FuncType(entry)
	if !ok {
		return false
	}
	return len(ft.Params) == 0 && len(ft.Results) == 1 && ft.Results[0] == wasm.ValI32
}

// Instance exposes the underlying sandbox, for diagnostics and tests.
func (p *Plugin) Instance() *wasm.Instance { return p.inst }

// MemoryBytes returns the plugin's current linear memory size in bytes —
// the quantity plotted in Fig. 5c.
func (p *Plugin) MemoryBytes() int {
	if p.inst == nil || p.inst.Memory() == nil {
		return 0
	}
	return p.inst.Memory().Len()
}

// Call invokes the exported entry function with input, returning the bytes
// the guest wrote via output_write. They are the plugin's own buffer, valid
// until the next Call on this instance: a caller that keeps them longer
// copies them. All failure modes — traps, fuel exhaustion, non-zero return
// codes — surface as *CallError; the host and the plugin's module remain
// usable.
func (p *Plugin) Call(entry string, input []byte) ([]byte, error) {
	if len(input) > maxInputBytes {
		return nil, fmt.Errorf("wabi: input of %d bytes exceeds limit %d", len(input), maxInputBytes)
	}
	p.input = input
	p.output = nil
	if cap(p.outBuf) > maxRetainedOutput {
		p.outBuf = nil
	}
	p.guestErr = ""
	p.poisoned = false
	if p.policy.Fuel > 0 {
		p.inst.SetFuel(p.policy.Fuel)
	}

	res, err := p.inst.CallInto(p.callRes[:0], entry)
	if p.policy.Fuel > 0 {
		p.lastFuel = p.policy.Fuel - p.inst.Fuel()
	}

	if err != nil {
		var trap *wasm.Trap
		if errors.As(err, &trap) {
			p.poisoned = true
			return nil, &CallError{Entry: entry, Trap: trap, Message: p.guestErr}
		}
		return nil, err
	}
	if code := int32(uint32(res[0])); code != 0 {
		return nil, &CallError{Entry: entry, Code: code, Message: p.guestErr}
	}
	return p.output, nil
}
