package main

import (
	"fmt"
	"math/rand"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/sched"
	"waran/internal/wabi"
	"waran/internal/wasm"
	"waran/internal/wat"
)

// This file holds the offline halves of the per-layer table: replays of
// sampled inputs through one public function at a time, outside the running
// system, so a layer's cost is known on its own.

// noopGuestWAT is the smallest plugin wabi accepts: calling it measures the
// fixed cost of crossing into a sandbox and back (wabi.empty_call_us).
const noopGuestWAT = `(module
  (memory (export "memory") 1)
  (func (export "noop") (result i32) (i32.const 0)))`

// pluginPolicy is what core gives a scheduler plugin built from the zero
// wabi.Policy (core.NewPluginScheduler, CellGroup.InstallPooledScheduler).
var pluginPolicy = wabi.Policy{MaxMemoryPages: 256, Fuel: 10_000_000}

// timeCalls times fn in batches of batch calls for about budget and returns
// microseconds per call, one sample per batch. Batching keeps the clock's own
// cost out of sub-microsecond layers.
func timeCalls(budget time.Duration, batch int, fn func()) []float64 {
	var out []float64
	for begin := time.Now(); time.Since(begin) < budget || len(out) < 5; {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		out = append(out, float64(time.Since(start))/1e3/float64(batch))
	}
	return out
}

// guestSources are the five guests every workload's set-up compiles some of:
// the three scheduler plugins and the two xApps.
func guestSources() map[string]string {
	out := map[string]string{"steer": plugins.TrafficSteerXAppWAT, "sla": plugins.SLAAssureXAppWAT}
	for _, name := range []string{"mt", "rr", "pf"} {
		out[name], _ = plugins.SchedulerWAT(name)
	}
	return out
}

// stageTimes is the cost of bringing guests from text to a running instance,
// split by pipeline stage and summed over the given guests (microseconds,
// median of reps per guest and stage).
type stageTimes struct {
	WAT, Decode, Validate, Compile, Instantiate float64
}

func measureStages(names []string, reps int) (stageTimes, error) {
	var total stageTimes
	src := guestSources()
	for _, name := range names {
		var wt, dec, val, cmp, inst []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			bin, err := wat.CompileToBinary(src[name])
			if err != nil {
				return total, fmt.Errorf("stages: assemble %s: %w", name, err)
			}
			t1 := time.Now()
			mod, err := wasm.Decode(bin)
			if err != nil {
				return total, fmt.Errorf("stages: decode %s: %w", name, err)
			}
			t2 := time.Now()
			if err := wasm.Validate(mod); err != nil {
				return total, fmt.Errorf("stages: validate %s: %w", name, err)
			}
			t3 := time.Now()
			cm, err := wasm.Compile(mod)
			if err != nil {
				return total, fmt.Errorf("stages: compile %s: %w", name, err)
			}
			t4 := time.Now()
			if _, err := cm.Instantiate(stubImports(mod), wasm.Config{MaxMemoryPages: pluginPolicy.MaxMemoryPages, MeterFuel: true}); err != nil {
				return total, fmt.Errorf("stages: instantiate %s: %w", name, err)
			}
			t5 := time.Now()
			wt = append(wt, us(t1.Sub(t0)))
			dec = append(dec, us(t2.Sub(t1)))
			val = append(val, us(t3.Sub(t2)))
			cmp = append(cmp, us(t4.Sub(t3)))
			inst = append(inst, us(t5.Sub(t4)))
		}
		total.WAT += median(wt)
		total.Decode += median(dec)
		total.Validate += median(val)
		total.Compile += median(cmp)
		total.Instantiate += median(inst)
	}
	return total, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// stubImports satisfies every function import of m with a host function of
// the right type that returns zeros: Instantiate only links them.
func stubImports(m *wasm.Module) wasm.Imports {
	out := wasm.Imports{}
	for _, im := range m.Imports {
		if im.Kind != wasm.ExternFunc {
			continue
		}
		ft := m.Types[im.TypeIx]
		if out[im.Module] == nil {
			out[im.Module] = map[string]*wasm.HostFunc{}
		}
		out[im.Module][im.Name] = &wasm.HostFunc{Name: im.Name, Type: ft,
			Fn: func(*wasm.CallContext, []uint64) ([]uint64, error) { return make([]uint64, len(ft.Results)), nil }}
	}
	return out
}

// schedReplay is what replaying sampled scheduling requests gives.
type schedReplay struct {
	CallP50Us    float64 // wabi.Plugin.Call("schedule", encoded request)
	NsPerInstr   float64 // replayed call time / fuel burned
	EncodeUs     float64 // sched.BinaryCodec.EncodeRequest
	DecodeUs     float64 // sched.BinaryCodec.DecodeResponse
	PluginP50Us  float64 // sched.PluginScheduler.Schedule, default ABI
	NativeP50Us  float64 // native scheduler of the same name
	EmptyCallUs  float64 // no-op guest
	PoolGetPutUs float64 // wabi.Pool Get+Put, instance idle
}

// replaySched runs the sampled requests of each scheduler through the plugin
// call, the ABI codec, and the plugin and native schedulers.
func replaySched(byName map[string][]*sched.Request, budget time.Duration) (schedReplay, error) {
	var out schedReplay
	var calls, enc, dec, plug, nat []float64
	var callNs, fuel float64
	share := budget / time.Duration(5*len(byName)+2)
	codec := sched.BinaryCodec{}
	for name, reqs := range byName {
		if len(reqs) == 0 {
			continue
		}
		mod, err := plugins.CompileScheduler(name)
		if err != nil {
			return out, err
		}
		pl, err := wabi.NewPlugin(mod, pluginPolicy, wabi.Env{})
		if err != nil {
			return out, err
		}
		inputs := make([][]byte, len(reqs))
		outputs := make([][]byte, len(reqs))
		for i, req := range reqs {
			inputs[i] = codec.EncodeRequest(req)
			resp, err := pl.Call(sched.EntryPoint, inputs[i])
			if err != nil {
				return out, fmt.Errorf("replay %s: %w", name, err)
			}
			outputs[i] = append([]byte(nil), resp...)
		}
		i := 0
		next := func() int { i = (i + 1) % len(reqs); return i }
		for _, v := range timeCalls(share, 1, func() {
			_, _ = pl.Call(sched.EntryPoint, inputs[next()])
			fuel += float64(pl.LastFuelUsed())
		}) {
			calls = append(calls, v)
			callNs += v * 1e3
		}
		enc = append(enc, timeCalls(share, 64, func() { codec.EncodeRequest(reqs[next()]) })...)
		dec = append(dec, timeCalls(share, 64, func() { _, _ = codec.DecodeResponse(outputs[next()]) })...)

		ps, err := core.NewPluginScheduler(name, wabi.Policy{})
		if err != nil {
			return out, err
		}
		native, _ := sched.ByName(name)
		plug = append(plug, timeCalls(share, 1, func() { _, _ = ps.Schedule(reqs[next()]) })...)
		nat = append(nat, timeCalls(share, 16, func() { _, _ = native.Schedule(reqs[next()]) })...)
	}
	out.CallP50Us = median(calls)
	if fuel > 0 {
		out.NsPerInstr = callNs / fuel
	}
	out.EncodeUs, out.DecodeUs = median(enc), median(dec)
	out.PluginP50Us, out.NativeP50Us = median(plug), median(nat)

	noop, err := wabi.CompileWAT(noopGuestWAT)
	if err != nil {
		return out, err
	}
	pl, err := wabi.NewPlugin(noop, pluginPolicy, wabi.Env{})
	if err != nil {
		return out, err
	}
	if _, err := pl.Call("noop", nil); err != nil {
		return out, err
	}
	out.EmptyCallUs = median(timeCalls(share, 64, func() { _, _ = pl.Call("noop", nil) }))
	pool := wabi.NewPool(noop, pluginPolicy, wabi.Env{}, 1)
	out.PoolGetPutUs = median(timeCalls(share, 256, func() {
		if p, err := pool.Get(); err == nil {
			pool.Put(p)
		}
	}))
	return out, nil
}

// replayUEStep times ran.UE.StepSlot on a population drawn exactly as the
// workload's was: nanoseconds per UE per slot.
func replayUEStep(seed int64, perSlice int, load float64, budget time.Duration) float64 {
	specs := drawUEs(rand.New(rand.NewSource(seed)), fig5aSlices, perSlice, load)
	ues := make([]*ran.UE, len(specs))
	for i, s := range specs {
		ues[i] = s.build()
	}
	slot := uint64(0)
	perCall := timeCalls(budget, 64, func() {
		for _, u := range ues {
			u.StepSlot(slot, time.Millisecond)
		}
		slot++
	})
	return median(perCall) * 1e3 / float64(len(ues))
}

// replayDispatch runs sampled indications through RIC.HandleIndication on a
// RIC configured like the workload's (same xApps, no associations) and
// returns the median microseconds per indication.
func replayDispatch(o ricOpts, inds []*e2.Indication, budget time.Duration) (float64, error) {
	if len(inds) == 0 {
		return 0, nil
	}
	o.tracer = nil
	r, err := newRIC(o)
	if err != nil {
		return 0, err
	}
	i := 0
	got := len(r.HandleIndication(inds[0]))
	if got != controlsPerIndication {
		return 0, fmt.Errorf("dispatch replay: %d controls for a sampled indication, want %d", got, controlsPerIndication)
	}
	samples := timeCalls(budget, 1, func() {
		r.HandleIndication(inds[i])
		i = (i + 1) % len(inds)
	})
	return median(samples), nil
}
