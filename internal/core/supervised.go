package core

import (
	"fmt"
	"reflect"
	"strconv"

	"waran/internal/guard"
	"waran/internal/obs"
	"waran/internal/plugins"
	"waran/internal/sched"
	"waran/internal/wabi"
	"waran/internal/wat"
)

// This file is the gNB's one plugin-containment path. Every plugin slice is
// pooled and runs under one guard.Supervisor that every cell having the slice
// shares, so failure metering, breaker state and rollback targets are
// group-wide. Every change of a slice's plugin, a group upload or a RIC
// swap/upload through GNB.Apply, is a pooled candidate built through the
// module cache and offered to Supervisor.Swap. A lone gNB is supervised as a
// group of one.

// defaultPolicy arms a policy that sets no fuel with wabi.DefaultFuel.
func defaultPolicy(p wabi.Policy) wabi.Policy {
	if p.Fuel == 0 {
		p.Fuel = wabi.DefaultFuel
	}
	return p
}

// builtinBinary assembles one of the built-in WAT schedulers ("rr", "pf",
// "mt") to bytecode, so built-ins and uploads resolve through one cache.
func builtinBinary(name string) ([]byte, error) {
	src, ok := plugins.SchedulerWAT(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown built-in scheduler %q", name)
	}
	bin, err := wat.CompileToBinary(src)
	if err != nil {
		return nil, fmt.Errorf("core: assemble built-in scheduler %q: %w", name, err)
	}
	return bin, nil
}

// supervisorName labels a slice's supervisor in errors, stats and the flight
// journal: it outlives every scheduler it runs.
func supervisorName(sliceID uint32) string {
	return "slice-" + strconv.FormatUint(uint64(sliceID), 10)
}

// InstallPooledScheduler compiles the named built-in scheduler ("rr", "pf",
// "mt") once, through the group's content-addressed cache, into one instance
// pool of up to poolMax sandboxes under the group's PluginEnv, and installs
// it under a new guard.Supervisor (configured by Guard) shared by every cell
// that registered sliceID: N cells scheduling concurrently draw from parallel
// sandboxes of a single compiled module, and a later upload of identical
// bytes is a cache hit rather than a recompile.
func (cg *CellGroup) InstallPooledScheduler(sliceID uint32, name string, policy wabi.Policy, poolMax int) (*sched.PoolScheduler, error) {
	bin, err := builtinBinary(name)
	if err != nil {
		return nil, err
	}
	return cg.installPooled(sliceID, name, bin, policy, poolMax)
}

// installPooled is InstallPooledScheduler for any bytecode, built-in or not
// (the experiments' hostile guests).
func (cg *CellGroup) installPooled(sliceID uint32, name string, bin []byte, policy wabi.Policy, poolMax int) (*sched.PoolScheduler, error) {
	ps, err := cg.BuildPooledCandidate(name, bin, policy, poolMax)
	if err != nil {
		return nil, err
	}
	cg.mu.Lock()
	defer cg.mu.Unlock()
	if _, err := cg.supervise(sliceID, ps); err != nil {
		return nil, err
	}
	return ps, nil
}

// UploadSchedulerAll is the multi-cell hot-swap path: third-party bytecode
// is resolved through the group's cache (compiling at most once, even if the
// same bytes were uploaded before), wrapped in one shared instance pool, and
// offered to the slice's supervisor. It shadow-validates the candidate
// against recorded slot inputs and promotes it on every cell at once, keeping
// the incumbent as the rollback target while the candidate serves its
// probation — or keeps the incumbent and returns a *guard.RejectedError. The
// report says what the shadow run saw either way. A slice not yet supervised
// is put under a supervisor first (see GNB.Supervise).
func (cg *CellGroup) UploadSchedulerAll(sliceID uint32, name string, bin []byte, policy wabi.Policy, poolMax int) (*guard.ShadowReport, error) {
	sup, err := cg.supervisor(sliceID)
	if err != nil {
		return nil, err
	}
	ps, err := cg.BuildPooledCandidate(name, bin, policy, poolMax)
	if err != nil {
		return nil, err
	}
	return sup.Swap(ps)
}

// BuildPooledCandidate resolves bytecode through the group's module cache
// and wraps it in a pool of up to poolMax sandboxes under the group's
// PluginEnv and policy (no fuel means wabi.DefaultFuel), without
// installing it anywhere — the candidate half of a supervised hot-swap; a
// caller with its own candidate (the pluginfaults sleeper) offers it to
// Supervisor.Swap itself. The group's profiler tags the candidate's functions
// with name unless PluginEnv names its own tag.
func (cg *CellGroup) BuildPooledCandidate(name string, bin []byte, policy wabi.Policy, poolMax int) (*sched.PoolScheduler, error) {
	mod, err := cg.Modules.Load(bin)
	if err != nil {
		return nil, fmt.Errorf("core: rejected bytecode for %q: %w", name, err)
	}
	env := cg.PluginEnv
	if env.Profile != nil && env.ProfileTag == "" {
		env.ProfileTag = name
	}
	return sched.NewPoolScheduler(name, wabi.NewPool(mod, defaultPolicy(policy), env, poolMax))
}

// Supervise returns the supervisor slice sliceID runs under, putting the
// slice under one first if it has none: how a slice built with AddSlice
// around a plugin gets a breaker. On a group's cell it is the group's,
// configured by Guard and shared by every cell having the slice, so those
// cells must run one scheduler (a native one, or one pool); cells that each
// run a plugin of their own are refused.
func (g *GNB) Supervise(sliceID uint32) (*guard.Supervisor, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.Slices.Slice(sliceID); !ok {
		return nil, fmt.Errorf("core: unknown slice %d", sliceID)
	}
	return g.cellGroup().supervisor(sliceID)
}

// cellGroup returns the group g is a cell of; a lone gNB is a group of one,
// so that both put a slice under supervision the same way. Callers hold mu.
func (g *GNB) cellGroup() *CellGroup {
	if g.group != nil {
		return g.group
	}
	return &CellGroup{cells: []*GNB{g}, Modules: g.Modules}
}

// supervisor returns the supervisor the group's cells run sliceID under,
// first putting the scheduler they share under a new one if they have none.
func (cg *CellGroup) supervisor(sliceID uint32) (*guard.Supervisor, error) {
	cg.mu.Lock()
	defer cg.mu.Unlock()
	var cur sched.IntraSlice
	for _, g := range cg.cells {
		s, ok := g.Slices.Slice(sliceID)
		if !ok {
			continue
		}
		// Cells share a scheduler value: one pointer, or equal natives.
		if sc, t := s.Scheduler(), reflect.TypeOf(cur); cur == nil {
			cur = sc
		} else if reflect.TypeOf(sc) != t || !t.Comparable() || sc != cur {
			return nil, fmt.Errorf("core: slice %d runs a different scheduler on each cell, which one supervisor cannot share; install one pool with InstallPooledScheduler", sliceID)
		}
	}
	if cur == nil {
		return nil, fmt.Errorf("core: no cell in the group has slice %d", sliceID)
	}
	if sup, ok := cur.(*guard.Supervisor); ok {
		return sup, nil
	}
	return cg.supervise(sliceID, cur)
}

// supervise installs scheduler under a new supervisor, configured by Guard,
// journaled to the flight recorder and exposed on the registry the group
// has, on every cell that has sliceID. Callers hold mu.
func (cg *CellGroup) supervise(sliceID uint32, scheduler sched.IntraSlice) (*guard.Supervisor, error) {
	sup := guard.New(supervisorName(sliceID), scheduler, cg.Guard)
	sup.SetFlightRecorder(cg.flight)
	swapped, registered := 0, false
	for _, g := range cg.cells {
		s, ok := g.Slices.Slice(sliceID)
		if !ok {
			continue
		}
		_, was := s.Scheduler().(*guard.Supervisor)
		registered = registered || was
		if err := g.Slices.HotSwap(sliceID, sup); err != nil {
			return nil, err
		}
		swapped++
	}
	if swapped == 0 {
		return nil, fmt.Errorf("core: no cell in the group has slice %d", sliceID)
	}
	// The registry takes one series set per slice: a slice supervised before
	// keeps the one it has, which reports the supervisor it was made for.
	if cg.reg != nil && !registered {
		sup.Register(cg.reg, obs.L("slice", strconv.FormatUint(uint64(sliceID), 10)))
	}
	return sup, nil
}

// Supervisor returns the supervisor the group runs sliceID under, or nil.
func (cg *CellGroup) Supervisor(sliceID uint32) (sup *guard.Supervisor) {
	cg.eachSupervisor(func(id uint32, s *guard.Supervisor) {
		if id == sliceID {
			sup = s
		}
	})
	return sup
}

// eachSupervisor calls f once for every supervisor installed on the group's
// slices, in the slices' registration order.
func (cg *CellGroup) eachSupervisor(f func(sliceID uint32, sup *guard.Supervisor)) {
	seen := make(map[*guard.Supervisor]bool)
	for _, g := range cg.cells {
		for _, s := range g.Slices.Slices() {
			if sup, ok := s.Scheduler().(*guard.Supervisor); ok && !seen[sup] {
				seen[sup] = true
				f(s.ID, sup)
			}
		}
	}
}

// registerSupervisors exposes every installed supervisor on reg, one series
// set per supervised slice; supervisors installed later register themselves.
func (cg *CellGroup) registerSupervisors(reg *obs.Registry) {
	cg.mu.Lock()
	defer cg.mu.Unlock()
	cg.reg = reg
	cg.eachSupervisor(func(id uint32, sup *guard.Supervisor) {
		sup.Register(reg, obs.L("slice", strconv.FormatUint(uint64(id), 10)))
	})
}
