package wasm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// HostFunc is a function the host exposes to sandboxed code. Errors returned
// by Fn surface to the guest as TrapHostError traps, aborting the call.
type HostFunc struct {
	Name string
	Type FuncType
	Fn   func(ctx *CallContext, args []uint64) ([]uint64, error)
}

// frameBuf holds reusable interpreter buffers for one call depth.
type frameBuf struct {
	locals []uint64
	stack  []uint64
	res    []uint64
	// env is the closure tier's per-depth environment, allocated lazily on
	// the first closure-tier call at this depth and reused afterwards.
	env *closEnv
}

// CallContext is passed to host functions and exposes the calling instance.
// It is valid for the duration of the host call only.
type CallContext struct {
	Instance *Instance
}

// Memory returns the calling instance's linear memory (nil if none).
func (c *CallContext) Memory() *Memory { return c.Instance.mem }

// Imports maps module name -> field name -> host function.
type Imports map[string]map[string]*HostFunc

// Config bounds the resources an instance may consume.
type Config struct {
	// MaxMemoryPages caps linear memory growth regardless of the module's
	// declared maximum. Zero means "module-defined only".
	MaxMemoryPages uint32
	// MaxCallDepth bounds guest recursion. Zero means the default (1000).
	MaxCallDepth int
	// MeterFuel enables instruction counting: each executed instruction
	// consumes one unit of the budget set via Instance.SetFuel.
	MeterFuel bool
	// Tier fixes the instance's execution tier for its lifetime. The zero
	// value is TierClosure, the production path; TierInterp selects the
	// reference interpreter the differential tests compare against.
	Tier Tier
}

const defaultMaxCallDepth = 1000

// CompiledModule is a validated, flattened module ready for (repeated)
// instantiation. Compilation is done once; instances are cheap.
type CompiledModule struct {
	m     *Module
	funcs []*compiledFunc // local functions only
	types []FuncType      // signature per function-space index

	// closOnce guards the closure-tier build, run by the first closure-tier
	// instantiation (see buildClosures in tier.go).
	closOnce sync.Once
}

// compileCount counts Compile invocations process-wide. The module cache's
// compile-once guarantee is asserted against it in tests.
var compileCount atomic.Uint64 // metric-exempt: compile-once assertion hook, surfaced via the module-cache instruments

// CompileCount reports how many times Compile has run in this process.
func CompileCount() uint64 { return compileCount.Load() }

// Compile validates m (if not already validated) and flattens all function
// bodies.
func Compile(m *Module) (*CompiledModule, error) {
	compileCount.Add(1)
	if !m.validated {
		if err := Validate(m); err != nil {
			return nil, err
		}
	}
	cm := &CompiledModule{m: m}
	numFuncs := m.numImportedFuncs + len(m.Funcs)
	cm.types = make([]FuncType, numFuncs)
	for i := 0; i < numFuncs; i++ {
		ft, err := m.FuncTypeAt(uint32(i))
		if err != nil {
			return nil, err
		}
		cm.types[i] = ft
	}
	cm.funcs = make([]*compiledFunc, len(m.Funcs))
	for i := range m.Funcs {
		fi := uint32(m.numImportedFuncs + i)
		cf, err := compileFunction(m, fi, cm.types[fi], &m.Codes[i])
		if err != nil {
			return nil, err
		}
		cm.funcs[i] = cf
	}
	return cm, nil
}

// Module returns the underlying decoded module.
func (cm *CompiledModule) Module() *Module { return cm.m }

// Instance is a running sandbox: one linear memory, one table, globals, and
// an execution budget. Instances are not safe for concurrent use; the
// plugin layer serializes calls per instance.
type Instance struct {
	cm        *CompiledModule
	cfg       Config
	hostFuncs []*HostFunc // parallel to imported function indices
	globals   []uint64
	globalTyp []GlobalType
	mem       *Memory
	table     []uint32 // funcIdx+1 per element; 0 = uninitialized
	tableTyp  *TableType

	fuel        int64
	fuelEnabled bool
	depth       int
	maxDepth    int

	// tier is the execution tier, fixed at instantiation.
	tier Tier

	// frameBufs reuses locals/stack buffers per call depth. Instances are
	// single-threaded, and depth uniquely identifies the live frame even
	// across host-function re-entrancy, so reuse is safe.
	frameBufs []frameBuf

	// InstrCount accumulates executed instructions when MeterFuel is set;
	// useful for deterministic cost accounting in tests and benchmarks.
	InstrCount uint64

	// HostData lets embedding layers attach per-instance state reachable
	// from host functions via CallContext.
	HostData any

	// hostCtx is the one CallContext every host call of this instance gets.
	hostCtx CallContext

	// prof, when non-nil, routes every call through the shadow-stack
	// profiler (see profile.go). Nil costs one pointer check per call.
	prof *instProf
}

// Instantiate links the compiled module against imports, initializes memory,
// table and globals, runs the start function, and returns a ready instance.
func (cm *CompiledModule) Instantiate(imports Imports, cfg Config) (*Instance, error) {
	m := cm.m
	if cfg.MaxCallDepth == 0 {
		cfg.MaxCallDepth = defaultMaxCallDepth
	}
	switch cfg.Tier {
	case TierClosure:
		cm.closOnce.Do(cm.buildClosures)
	case TierInterp:
	default:
		return nil, fmt.Errorf("wasm: unknown execution tier %v", cfg.Tier)
	}
	in := &Instance{cm: cm, cfg: cfg, maxDepth: cfg.MaxCallDepth, fuel: -1, tier: cfg.Tier}
	in.hostCtx.Instance = in
	in.fuelEnabled = cfg.MeterFuel

	// Resolve imports. Only function imports are supported: plugin modules
	// own their memory and table, which keeps the sandbox boundary crisp.
	for _, im := range m.Imports {
		switch im.Kind {
		case ExternFunc:
			mod := imports[im.Module]
			hf := mod[im.Name]
			if hf == nil {
				return nil, fmt.Errorf("wasm: unresolved import %q.%q", im.Module, im.Name)
			}
			want := m.Types[im.TypeIx]
			if !hf.Type.Equal(want) {
				return nil, fmt.Errorf("wasm: import %q.%q has type %s, host provides %s", im.Module, im.Name, want, hf.Type)
			}
			in.hostFuncs = append(in.hostFuncs, hf)
		default:
			return nil, fmt.Errorf("wasm: unsupported import kind %s for %q.%q", im.Kind, im.Module, im.Name)
		}
	}

	// Globals.
	in.globalTyp = make([]GlobalType, len(m.Globals))
	in.globals = make([]uint64, len(m.Globals))
	for i, g := range m.Globals {
		in.globalTyp[i] = g.Type
		v, err := in.evalConst(g.Init)
		if err != nil {
			return nil, err
		}
		in.globals[i] = v
	}

	// Memory.
	if len(m.Mems) > 0 {
		lim := m.Mems[0].Limits
		maxPages := uint32(MaxPages)
		if lim.HasMax {
			maxPages = lim.Max
		}
		if cfg.MaxMemoryPages > 0 && cfg.MaxMemoryPages < maxPages {
			maxPages = cfg.MaxMemoryPages
		}
		if cfg.MaxMemoryPages > 0 && lim.Min > cfg.MaxMemoryPages {
			return nil, fmt.Errorf("wasm: module requires %d pages, host caps at %d", lim.Min, cfg.MaxMemoryPages)
		}
		in.mem = NewMemory(lim.Min, maxPages)
	}

	// Table.
	if len(m.Tables) > 0 {
		tt := m.Tables[0]
		in.tableTyp = &tt
		in.table = make([]uint32, tt.Limits.Min)
	}

	// Data segments.
	for i, ds := range m.Datas {
		off, err := in.evalConst(ds.Offset)
		if err != nil {
			return nil, err
		}
		if in.mem == nil {
			return nil, fmt.Errorf("wasm: data segment %d without memory", i)
		}
		if err := in.mem.Write(uint32(off), ds.Bytes); err != nil {
			return nil, fmt.Errorf("wasm: data segment %d: %w", i, err)
		}
	}

	// Element segments.
	for i, es := range m.Elems {
		off, err := in.evalConst(es.Offset)
		if err != nil {
			return nil, err
		}
		if in.table == nil {
			return nil, fmt.Errorf("wasm: element segment %d without table", i)
		}
		if uint64(uint32(off))+uint64(len(es.Funcs)) > uint64(len(in.table)) {
			return nil, fmt.Errorf("wasm: element segment %d out of bounds", i)
		}
		for j, fx := range es.Funcs {
			in.table[uint32(off)+uint32(j)] = fx + 1
		}
	}

	// Start function. It runs before anyone can call SetFuel, so a metered
	// instance gives it its own finite budget and then returns to the
	// unlimited fuel SetFuel starts from.
	if m.Start != nil {
		if cfg.MeterFuel {
			in.fuel = StartFuel
		}
		_, err := in.call(*m.Start, nil, nil)
		in.fuel = -1
		if err != nil {
			return nil, fmt.Errorf("wasm: start function: %w", err)
		}
	}
	return in, nil
}

// StartFuel is the instruction budget a metered instance's start function
// runs on: a start function that loops traps with TrapFuelExhausted
// instead of never returning from Instantiate. A million instructions is
// ample for initialisation and runs out in milliseconds on either tier.
const StartFuel = 1_000_000

func (in *Instance) evalConst(ce ConstExpr) (uint64, error) {
	switch ce.Op {
	case OpI32Const, OpI64Const, OpF32Const, OpF64Const:
		return ce.Value, nil
	default:
		return 0, fmt.Errorf("wasm: unsupported constant expression opcode %s", OpcodeName(ce.Op))
	}
}

// Memory returns the instance's linear memory, or nil.
func (in *Instance) Memory() *Memory { return in.mem }

// Module returns the instance's module.
func (in *Instance) Module() *Module { return in.cm.m }

// SetFuel assigns the instruction budget consumed by subsequent calls when
// the instance was created with MeterFuel. Negative disables exhaustion.
func (in *Instance) SetFuel(f int64) { in.fuel = f }

// Fuel returns the remaining instruction budget.
func (in *Instance) Fuel() int64 { return in.fuel }

// Call invokes the exported function by name. Arguments and results are raw
// 64-bit values (floats bit-cast). A sandbox fault is returned as *Trap.
func (in *Instance) Call(name string, args ...uint64) ([]uint64, error) {
	return in.CallInto(nil, name, args...)
}

// CallInto is Call with the results appended to dst[:0], for callers that
// invoke per slot and keep the result storage.
func (in *Instance) CallInto(dst []uint64, name string, args ...uint64) ([]uint64, error) {
	fx, ok := in.cm.m.ExportedFunc(name)
	if !ok {
		return nil, fmt.Errorf("wasm: no exported function %q", name)
	}
	return in.call(fx, args, dst)
}

// FuncType returns the signature of the exported function.
func (in *Instance) FuncType(name string) (FuncType, bool) {
	fx, ok := in.cm.m.ExportedFunc(name)
	if !ok {
		return FuncType{}, false
	}
	return in.cm.types[fx], true
}

// call runs funcIdx and appends its results to dst[:0]: the internal result
// buffers are pooled per depth, so what the caller gets is a copy it may
// retain across later calls, in storage it chose.
func (in *Instance) call(funcIdx uint32, args, dst []uint64) (res []uint64, err error) {
	ft := in.cm.types[funcIdx]
	if len(args) != len(ft.Params) {
		return nil, fmt.Errorf("wasm: function %d takes %d arguments, got %d", funcIdx, len(ft.Params), len(args))
	}
	// A trap unwinds past the depth decrements on the call path (they run
	// only on return, with no defer); restore the depth this call entered at.
	depth := in.depth
	defer func() {
		if r := recover(); r != nil {
			in.depth = depth
			if t, ok := r.(*Trap); ok {
				t.Func = funcIdx
				err = t
				return
			}
			panic(r)
		}
	}()
	out := in.invoke(funcIdx, args)
	if len(out) == 0 {
		return nil, nil
	}
	return append(dst[:0], out...), nil
}

// invoke dispatches to a host or guest function; panics with *Trap on fault.
func (in *Instance) invoke(funcIdx uint32, args []uint64) []uint64 {
	if in.prof != nil {
		return in.invokeProfiled(funcIdx, args)
	}
	return in.dispatch(funcIdx, args)
}

// dispatch is the unprofiled call path. A trap unwinds past its depth
// decrement; Instance.call restores the depth it entered with.
func (in *Instance) dispatch(funcIdx uint32, args []uint64) []uint64 {
	if in.depth >= in.maxDepth {
		panic(newTrap(TrapCallStackExhausted))
	}
	in.depth++
	nImp := in.cm.m.numImportedFuncs
	if int(funcIdx) < nImp {
		hf := in.hostFuncs[funcIdx]
		res, err := hf.Fn(&in.hostCtx, args)
		in.depth--
		if err != nil {
			if t, ok := err.(*Trap); ok {
				panic(t)
			}
			panic(&Trap{Code: TrapHostError, Wrapped: err})
		}
		if len(res) != len(hf.Type.Results) {
			panic(&Trap{Code: TrapHostError, Wrapped: fmt.Errorf("host function %q returned %d values, want %d", hf.Name, len(res), len(hf.Type.Results))})
		}
		return res
	}

	f := in.cm.funcs[int(funcIdx)-nImp]
	var res []uint64
	if in.tier == TierInterp {
		res = in.exec(f, args)
	} else {
		res = in.execClosures(f.clos, args)
	}
	in.depth--
	return res
}
