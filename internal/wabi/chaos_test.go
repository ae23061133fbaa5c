package wabi

import (
	"errors"
	"testing"
)

func chaosPlugin(t *testing.T, cfg ChaosConfig, policy Policy) (*Plugin, *Chaos) {
	t.Helper()
	ch := NewChaos(cfg)
	return mustPlugin(t, echoWAT, policy, Env{Chaos: ch}), ch
}

func TestChaosForcedTrap(t *testing.T) {
	p, ch := chaosPlugin(t, ChaosConfig{TrapProb: 1}, Policy{})
	for i := 0; i < 5; i++ {
		_, err := p.Call("run", []byte("x"))
		if got := ClassOf(err); got != FailTrap {
			t.Fatalf("call %d: class = %v, want %v (err=%v)", i, got, FailTrap, err)
		}
		if !p.Poisoned() {
			t.Fatal("forced trap did not poison the instance")
		}
	}
	s := ch.Stats()
	if s.Traps != 5 || s.Total() != 5 || s.Calls != 5 {
		t.Fatalf("stats = %+v", s)
	}
	if st := p.Stats(); st.Calls != 5 || st.Faults != 5 {
		t.Fatalf("plugin stats = %+v", st)
	}
}

func TestChaosFuelTheftWithMetering(t *testing.T) {
	p, ch := chaosPlugin(t, ChaosConfig{FuelTheftProb: 1}, Policy{Fuel: 10_000_000})
	_, err := p.Call("run", []byte("payload"))
	if got := ClassOf(err); got != FailFuel {
		t.Fatalf("class = %v, want %v (err=%v)", got, FailFuel, err)
	}
	if !p.Poisoned() {
		t.Fatal("fuel theft did not poison the instance")
	}
	if ch.Stats().FuelThefts != 1 {
		t.Fatalf("stats = %+v", ch.Stats())
	}
}

func TestChaosFuelTheftWithoutMetering(t *testing.T) {
	p, _ := chaosPlugin(t, ChaosConfig{FuelTheftProb: 1}, Policy{})
	_, err := p.Call("run", nil)
	if got := ClassOf(err); got != FailFuel {
		t.Fatalf("class = %v, want %v (err=%v)", got, FailFuel, err)
	}
}

func TestChaosCorruptOutput(t *testing.T) {
	p, ch := chaosPlugin(t, ChaosConfig{CorruptProb: 1}, Policy{})
	out, err := p.Call("run", []byte("abcd"))
	if err != nil {
		t.Fatalf("corruption must not error at the wabi layer: %v", err)
	}
	if string(out) != "abc" {
		t.Fatalf("out = %q, want truncated %q", out, "abc")
	}
	// Empty output is replaced with a non-empty garbage blob so the decode
	// layer above still has something malformed to choke on.
	out, err = p.Call("run", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("empty output not corrupted")
	}
	if ch.Stats().Corruptions != 2 {
		t.Fatalf("stats = %+v", ch.Stats())
	}
}

func TestChaosActivateAfter(t *testing.T) {
	p, _ := chaosPlugin(t, ChaosConfig{TrapProb: 1, ActivateAfter: 3}, Policy{})
	for i := 0; i < 3; i++ {
		if _, err := p.Call("run", []byte("ok")); err != nil {
			t.Fatalf("sleeper fired during grace call %d: %v", i, err)
		}
	}
	_, err := p.Call("run", []byte("ok"))
	if got := ClassOf(err); got != FailTrap {
		t.Fatalf("post-activation class = %v, want %v", got, FailTrap)
	}
}

func TestChaosDeterministicSchedule(t *testing.T) {
	run := func() []FailureClass {
		p, _ := chaosPlugin(t, ChaosConfig{Seed: 42, TrapProb: 0.3, CorruptProb: 0.3}, Policy{})
		var classes []FailureClass
		for i := 0; i < 64; i++ {
			_, err := p.Call("run", []byte("z"))
			classes = append(classes, ClassOf(err))
		}
		return classes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at call %d: %v vs %v", i, a[i], b[i])
		}
	}
	var faults int
	for _, c := range a {
		if c != FailNone {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Fatalf("degenerate schedule: %d/%d faults", faults, len(a))
	}
}

// TestChaosThroughPool checks the harness composes with Pool: a shared Env
// rolls one schedule across all instances, and poisoned ones are discarded.
func TestChaosThroughPool(t *testing.T) {
	mod, err := CompileWAT(echoWAT)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChaos(ChaosConfig{Seed: 7, TrapProb: 0.5})
	pool := NewPool(mod, Policy{}, Env{Chaos: ch}, 2)
	var traps, oks int
	for i := 0; i < 100; i++ {
		_, err := pool.Call("run", []byte("m"))
		switch ClassOf(err) {
		case FailNone:
			oks++
		case FailTrap:
			traps++
		default:
			t.Fatalf("call %d: unexpected error %v", i, err)
		}
	}
	if got := ch.Stats().Calls; got != 100 {
		t.Fatalf("chaos saw %d calls, want 100", got)
	}
	if uint64(traps) != ch.Stats().Traps {
		t.Fatalf("observed %d traps, chaos injected %d", traps, ch.Stats().Traps)
	}
	if traps == 0 || oks == 0 {
		t.Fatalf("degenerate run: traps=%d oks=%d", traps, oks)
	}
	if st := pool.Stats(); st.Discards != uint64(traps) {
		t.Fatalf("discards = %d, want %d (every trapped instance discarded)", st.Discards, traps)
	}
}

func TestChaosZeroConfigInjectsNothing(t *testing.T) {
	p, ch := chaosPlugin(t, ChaosConfig{}, Policy{})
	for i := 0; i < 20; i++ {
		if _, err := p.Call("run", []byte("q")); err != nil {
			t.Fatal(err)
		}
	}
	if ch.Stats().Total() != 0 {
		t.Fatalf("zero config injected faults: %+v", ch.Stats())
	}
}

func TestChaosErrorsAreCallErrors(t *testing.T) {
	p, _ := chaosPlugin(t, ChaosConfig{TrapProb: 1}, Policy{})
	_, err := p.Call("run", nil)
	var ce *CallError
	if !errors.As(err, &ce) || ce.Trap == nil {
		t.Fatalf("injected fault is not a trap-carrying CallError: %v", err)
	}
}
