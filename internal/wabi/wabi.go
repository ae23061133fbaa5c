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
	"time"

	"waran/internal/wasm"
	"waran/internal/wat"
)

// Default resource policy values.
const (
	DefaultMaxMemoryPages = 256 // 16 MiB
	DefaultMaxInputBytes  = 1 << 20
	DefaultMaxOutputBytes = 1 << 20
)

// Policy bounds the resources one plugin may consume per call and overall.
type Policy struct {
	// MaxMemoryPages caps the plugin's linear memory (64 KiB pages).
	// Zero means DefaultMaxMemoryPages.
	MaxMemoryPages uint32
	// Fuel is the per-call instruction budget. Zero disables metering.
	Fuel int64
	// CallTimeout is a wall-clock bound per call, enforced inside the
	// interpreter (checked every 64 Ki instructions; requires Fuel > 0).
	// Zero disables it. Fuel is the deterministic budget; CallTimeout is
	// the belt-and-braces bound against slow host functions.
	CallTimeout time.Duration
	// MaxInputBytes bounds Call input size. Zero means the default.
	MaxInputBytes int
	// MaxOutputBytes bounds what the guest may emit. Zero means the default.
	MaxOutputBytes int
	// FreshInstance re-instantiates the module for every call, giving
	// maximum isolation between invocations at extra cost (ablation:
	// BenchmarkAblationInstanceReuse).
	FreshInstance bool
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
	if p.MaxInputBytes == 0 {
		p.MaxInputBytes = DefaultMaxInputBytes
	}
	if p.MaxOutputBytes == 0 {
		p.MaxOutputBytes = DefaultMaxOutputBytes
	}
	return p
}

// Env supplies optional host extensions and observers.
type Env struct {
	// HostFuncs maps module name -> function name -> implementation, merged
	// with (and unable to override) the "waran" ABI module.
	HostFuncs wasm.Imports
	// OnLog receives guest log lines, if set.
	OnLog func(msg string)
	// Chaos, when non-nil, injects seeded faults into every call made by
	// plugins sharing this Env — the wasm-layer counterpart of
	// e2.FaultConn, for supervisor and containment testing. Production
	// environments leave it nil.
	Chaos *Chaos
	// Profile, when non-nil, attaches the per-function fuel/wall-time
	// profiler to every instance created under this Env (including pool
	// refills, resets and fresh-instance calls). ProfileTag prefixes the
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
func (e *CallError) Unwrap() error {
	if e.Trap != nil {
		return e.Trap
	}
	return nil
}

// Plugin is an instantiated plugin ready to receive calls. Not safe for
// concurrent use; callers serialize or use one Plugin per goroutine.
type Plugin struct {
	mod    *Module
	policy Policy
	env    Env
	inst   *wasm.Instance

	input    []byte
	output   []byte
	guestErr string

	// ret is what the "waran" host functions return their one result in,
	// and callRes where the entry function's result lands: both are read
	// before the next call of their kind overwrites them.
	ret     [1]uint64
	callRes [1]uint64

	// zc is the negotiated zero-copy region state for the current instance,
	// nil until the first Regions call and invalidated whenever the instance
	// is replaced or discarded. zcNegotiations counts negotiations across
	// the Plugin's lifetime.
	zc             *Regions
	zcNegotiations uint64

	// Per-call accounting, read through Stats(). Unsynchronized like the
	// rest of the Plugin: one goroutine at a time.
	calls     uint64
	totalDur  time.Duration
	lastDur   time.Duration
	faults    uint64
	lastFuel  int64
	totalFuel int64
	lastClass FailureClass
}

// PluginStats is the flat snapshot of a Plugin's per-call accounting.
// Durations marshal as nanoseconds; fuel is in interpreter instructions
// (zero when metering is disabled).
type PluginStats struct {
	Calls         uint64        `json:"calls"`
	Faults        uint64        `json:"faults"`
	TotalDuration time.Duration `json:"total_duration_ns"`
	LastDuration  time.Duration `json:"last_duration_ns"`
	LastFuel      int64         `json:"last_fuel"`
	TotalFuel     int64         `json:"total_fuel"`
}

// Stats returns accounting accumulated across calls.
func (p *Plugin) Stats() PluginStats {
	return PluginStats{
		Calls:         p.calls,
		Faults:        p.faults,
		TotalDuration: p.totalDur,
		LastDuration:  p.lastDur,
		LastFuel:      p.lastFuel,
		TotalFuel:     p.totalFuel,
	}
}

// LastFuelUsed reports the instruction budget consumed by the most recent
// call, or 0 when fuel metering is disabled.
func (p *Plugin) LastFuelUsed() int64 { return p.lastFuel }

// LastTier reports the execution tier the plugin's calls run on
// (Policy.Tier, fixed for the plugin's lifetime).
func (p *Plugin) LastTier() wasm.Tier { return p.inst.EffectiveTier() }

// LastFailureClass reports the classification of the most recent call's
// outcome (FailNone after a successful call or before any call).
func (p *Plugin) LastFailureClass() FailureClass { return p.lastClass }

// Poisoned reports whether the last call aborted mid-execution — a trap,
// fuel exhaustion or deadline overrun — leaving the linear memory in an
// unknown intermediate state. Poisoned instances must not be handed to
// another caller; Pool.Put discards them.
func (p *Plugin) Poisoned() bool {
	switch p.lastClass {
	case FailTrap, FailFuel, FailDeadline:
		return true
	default:
		return false
	}
}

// NewPlugin instantiates mod under the given policy and environment.
// Failures are *InstantiateError.
func NewPlugin(mod *Module, policy Policy, env Env) (*Plugin, error) {
	p := &Plugin{mod: mod, policy: policy.withDefaults(), env: env}
	inst, err := p.instantiate()
	if err != nil {
		return nil, &InstantiateError{Err: err}
	}
	p.inst = inst
	return p, nil
}

func (p *Plugin) instantiate() (*wasm.Instance, error) {
	imports := wasm.Imports{"waran": p.abiModule()}
	for mod, fns := range p.env.HostFuncs {
		if mod == "waran" {
			return nil, errors.New(`wabi: Env.HostFuncs may not define module "waran"`)
		}
		imports[mod] = fns
	}
	inst, err := p.mod.cm.Instantiate(imports, wasm.Config{
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
				if int(n) > p.policy.MaxOutputBytes {
					return nil, fmt.Errorf("wabi: output of %d bytes exceeds limit %d", n, p.policy.MaxOutputBytes)
				}
				b, err := ctx.Memory().Read(ptr, n)
				if err != nil {
					return nil, err
				}
				p.output = b
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
// the guest wrote via output_write. All failure modes — traps, fuel
// exhaustion, non-zero return codes — surface as *CallError; the host and
// the plugin's module remain usable.
func (p *Plugin) Call(entry string, input []byte) ([]byte, error) {
	if len(input) > p.policy.MaxInputBytes {
		return nil, fmt.Errorf("wabi: input of %d bytes exceeds limit %d", len(input), p.policy.MaxInputBytes)
	}
	if p.policy.FreshInstance {
		inst, err := p.instantiate()
		if err != nil {
			p.lastClass = FailInstantiate
			return nil, &InstantiateError{Err: err}
		}
		p.inst = inst
		// The fresh instance's memory starts over; any region layout
		// negotiated against the old one is stale.
		p.invalidateRegions()
	}
	p.input = input
	p.output = nil
	p.guestErr = ""
	p.lastClass = FailNone

	// Chaos injection point: a forced trap or stall replaces the guest call
	// entirely; fuel theft and output corruption pass through it.
	var act chaosAction
	var stall time.Duration
	if p.env.Chaos != nil {
		act, stall = p.env.Chaos.decide()
	}
	switch act {
	case chaosForceTrap:
		p.calls++
		p.faults++
		p.lastClass = FailTrap
		// For zero-copy plugins the forced trap models a guest dying midway
		// through writing its response region: scribble garbage over it so
		// a host that (wrongly) read the region anyway could never mistake
		// the half-written table for a decision.
		p.chaosScribbleRegions()
		return nil, &CallError{Entry: entry, Trap: &wasm.Trap{Code: wasm.TrapUnreachable}}
	case chaosStallCall:
		time.Sleep(stall)
		p.calls++
		p.faults++
		p.lastClass = FailDeadline
		return nil, &CallError{Entry: entry, Trap: &wasm.Trap{Code: wasm.TrapDeadlineExceeded}}
	}

	fuel := p.policy.Fuel
	if act == chaosStealFuel {
		if fuel > stolenFuelBudget {
			fuel = stolenFuelBudget
		} else if fuel == 0 {
			// Metering is off; the theft degenerates to a forced fuel trap.
			p.calls++
			p.faults++
			p.lastClass = FailFuel
			return nil, &CallError{Entry: entry, Trap: &wasm.Trap{Code: wasm.TrapFuelExhausted}}
		}
	}
	if p.policy.Fuel > 0 {
		p.inst.SetFuel(fuel)
		if p.policy.CallTimeout > 0 {
			p.inst.SetDeadline(time.Now().Add(p.policy.CallTimeout))
		}
	}

	start := time.Now()
	res, err := p.inst.CallInto(p.callRes[:0], entry)
	p.lastDur = time.Since(start)
	p.totalDur += p.lastDur
	p.calls++
	if p.policy.Fuel > 0 {
		p.lastFuel = fuel - p.inst.Fuel()
		p.totalFuel += p.lastFuel
	}

	if err != nil {
		p.faults++
		var trap *wasm.Trap
		if errors.As(err, &trap) {
			ce := &CallError{Entry: entry, Trap: trap, Message: p.guestErr}
			p.lastClass = ce.FailureClass()
			return nil, ce
		}
		p.lastClass = FailUnknown
		return nil, err
	}
	if code := int32(uint32(res[0])); code != 0 {
		p.faults++
		p.lastClass = FailGuestError
		return nil, &CallError{Entry: entry, Code: code, Message: p.guestErr}
	}
	if act == chaosCorruptOutput {
		p.output = corruptOutput(p.output)
		p.chaosCorruptRegions()
	}
	return p.output, nil
}

// Reset discards the current instance and creates a fresh one, wiping all
// guest state. Used when quarantining plugins after faults. Any negotiated
// zero-copy region layout dies with the old instance: the fresh memory may
// lay its heap out differently, so the next zero-copy call re-negotiates.
func (p *Plugin) Reset() error {
	inst, err := p.instantiate()
	if err != nil {
		return err
	}
	p.inst = inst
	p.invalidateRegions()
	return nil
}
