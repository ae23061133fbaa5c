package plugins

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"waran/internal/sched"
	"waran/internal/wabi"
	"waran/internal/wasm"
)

func newSched(t *testing.T, name string) *sched.PluginScheduler {
	t.Helper()
	mod, err := CompileScheduler(name)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	p, err := wabi.NewPlugin(mod, wabi.Policy{Fuel: 50_000_000}, wabi.Env{})
	if err != nil {
		t.Fatalf("instantiate %s: %v", name, err)
	}
	ps, err := sched.NewPluginScheduler(name, p, nil)
	if err != nil {
		t.Fatalf("wrap %s: %v", name, err)
	}
	return ps
}

func randomRequest(rng *rand.Rand, nUE int, slot uint64) *sched.Request {
	req := &sched.Request{
		SliceID:   uint32(rng.Intn(8)),
		Slot:      slot,
		PRBBudget: uint32(rng.Intn(53)),
	}
	for i := 0; i < nUE; i++ {
		mcs := int32(rng.Intn(29))
		per := uint32(0)
		if rng.Intn(10) > 0 { // occasionally zero-rate channel
			per = uint32(40 + 60*mcs)
		}
		buf := uint32(0)
		if rng.Intn(10) > 0 { // occasionally empty buffer
			buf = uint32(rng.Intn(200_000))
		}
		req.UEs = append(req.UEs, sched.UEInfo{
			ID:          uint32(100 + i),
			MCS:         mcs,
			BitsPerPRB:  per,
			BufferBytes: buf,
			AvgTputBps:  float64(rng.Intn(30_000_000)),
		})
	}
	return req
}

// edgeRequests are the requests the random draw does not reach; every
// policy serves them before TestDifferentialPluginVsNative's seeded trials.
var edgeRequests = []*sched.Request{
	// Needs 2^32 + 0xc033054 PRBs: both sides saturate at MaxUint32 instead
	// of wrapping.
	{PRBBudget: 52, UEs: []sched.UEInfo{{ID: 7, BitsPerPRB: 6, BufferBytes: 0xc902643f, AvgTputBps: 1e6}}},
	// Needs exactly 2^32, which wrapped to 0 and dropped the UE.
	{PRBBudget: 52, Slot: 1, UEs: []sched.UEInfo{
		{ID: 1, BitsPerPRB: 1, BufferBytes: 1 << 29, AvgTputBps: 1e6},
		{ID: 2, BitsPerPRB: 1000, BufferBytes: 2500, AvgTputBps: 1e6},
	}},
	// The largest need that fits.
	{PRBBudget: 52, UEs: []sched.UEInfo{{ID: 8, BitsPerPRB: 8, BufferBytes: math.MaxUint32, AvgTputBps: 1e6}}},
}

// TestDifferentialPluginVsNative is the keystone equivalence check: for any
// request, the Wasm plugin and the native Go policy must produce the exact
// same allocation list.
func TestDifferentialPluginVsNative(t *testing.T) {
	cases := []struct {
		name   string
		native sched.IntraSlice
	}{
		{"rr", sched.RoundRobin{}},
		{"pf", sched.ProportionalFair{}},
		{"mt", sched.MaxThroughput{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plugin := newSched(t, tc.name)
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 300; trial++ {
				nUE := rng.Intn(24)
				req := randomRequest(rng, nUE, uint64(trial))
				if trial < len(edgeRequests) {
					req = edgeRequests[trial]
				}
				want, err := tc.native.Schedule(req)
				if err != nil {
					t.Fatalf("native: %v", err)
				}
				got, err := plugin.Schedule(req)
				if err != nil {
					t.Fatalf("trial %d: plugin: %v", trial, err)
				}
				if !allocsEqual(got.Allocs, want.Allocs) {
					t.Fatalf("trial %d (%d UEs, budget %d):\nplugin: %v\nnative: %v\nreq: %+v",
						trial, nUE, req.PRBBudget, got.Allocs, want.Allocs, req)
				}
			}
		})
	}
}

func allocsEqual(a, b []sched.Allocation) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func TestFaultPluginsTrapButHostSurvives(t *testing.T) {
	traps := map[string]wasm.TrapCode{
		"null-deref":     wasm.TrapOutOfBoundsMemory,
		"oob-access":     wasm.TrapOutOfBoundsMemory,
		"double-free":    wasm.TrapUnreachable,
		"stack-overflow": wasm.TrapCallStackExhausted,
		"infinite-loop":  wasm.TrapFuelExhausted,
	}
	for name, wantCode := range traps {
		t.Run(name, func(t *testing.T) {
			src, err := FaultWAT(name)
			if err != nil {
				t.Fatal(err)
			}
			mod, err := wabi.CompileWAT(src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			p, err := wabi.NewPlugin(mod, wabi.Policy{Fuel: 1_000_000}, wabi.Env{})
			if err != nil {
				t.Fatalf("instantiate: %v", err)
			}
			_, err = p.Call("schedule", nil)
			var ce *wabi.CallError
			if !errors.As(err, &ce) || ce.Trap == nil {
				t.Fatalf("want trap CallError, got %v", err)
			}
			if ce.Trap.Code != wantCode {
				t.Fatalf("trap code = %v, want %v", ce.Trap.Code, wantCode)
			}
			// Host survives: the plugin can be called again and still traps
			// (rather than wedging the runtime).
			if _, err := p.Call("schedule", nil); err == nil {
				t.Fatal("second call unexpectedly succeeded")
			}
		})
	}
}

func TestLeakPluginIsCapped(t *testing.T) {
	mod, err := wabi.CompileWAT(LeakWAT)
	if err != nil {
		t.Fatal(err)
	}
	const capPages = 16
	p, err := wabi.NewPlugin(mod, wabi.Policy{MaxMemoryPages: capPages}, wabi.Env{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := p.Call("schedule", nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := p.MemoryBytes(); got > capPages*65536 {
		t.Fatalf("memory grew to %d bytes, beyond the %d-page cap", got, capPages)
	}
}

func TestGuestErrorPlugin(t *testing.T) {
	mod, err := wabi.CompileWAT(GuestErrorWAT)
	if err != nil {
		t.Fatal(err)
	}
	p, err := wabi.NewPlugin(mod, wabi.Policy{}, wabi.Env{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Call("schedule", nil)
	var ce *wabi.CallError
	if !errors.As(err, &ce) {
		t.Fatalf("want CallError, got %v", err)
	}
	if ce.Code != 7 || ce.Message != "policy database unavailable" {
		t.Fatalf("got code=%d msg=%q", ce.Code, ce.Message)
	}
}

func TestBadOutputRejectedByDecoder(t *testing.T) {
	mod, err := wabi.CompileWAT(BadOutputWAT)
	if err != nil {
		t.Fatal(err)
	}
	p, err := wabi.NewPlugin(mod, wabi.Policy{}, wabi.Env{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sched.NewPluginScheduler("bad", p, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := &sched.Request{PRBBudget: 10, UEs: []sched.UEInfo{{ID: 1, BitsPerPRB: 100, BufferBytes: 100}}}
	if _, err := ps.Schedule(req); err == nil {
		t.Fatal("malformed output unexpectedly accepted")
	}
}

func TestOverBudgetRejectedByValidation(t *testing.T) {
	mod, err := wabi.CompileWAT(OverBudgetWAT)
	if err != nil {
		t.Fatal(err)
	}
	p, err := wabi.NewPlugin(mod, wabi.Policy{}, wabi.Env{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sched.NewPluginScheduler("greedy", p, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := &sched.Request{PRBBudget: 10, UEs: []sched.UEInfo{{ID: 1, BitsPerPRB: 100, BufferBytes: 100}}}
	_, err = ps.Schedule(req)
	if !errors.Is(err, sched.ErrInvalidResponse) {
		t.Fatalf("want ErrInvalidResponse, got %v", err)
	}
}
