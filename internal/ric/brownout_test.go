package ric

import (
	"slices"
	"testing"
	"time"

	"waran/internal/e2"
)

// The brownout rule runs here on a synthetic clock: times are t0 plus a
// few milliseconds, and this file reads no clock (TestAssocCoreIsSansIO
// checks it).

// syntheticOverload is a RIC guard whose deadlines count from t0.
func syntheticOverload(cfg OverloadConfig) *overload {
	o := newOverload(cfg.withDefaults(), nil, nil)
	o.bo.epoch = t0
	return o
}

// TestBrownoutStormThenCalm drives one dispatcher's fold through a storm:
// a standing queue escalates to degraded, waits past the stale bound
// escalate to critical, and once sojourns fall under target the level steps
// down and reaches normal within two intervals. A storm is forgotten: a long
// calm afterwards reads normal however long the storm was.
func TestBrownoutStormThenCalm(t *testing.T) {
	o := syntheticOverload(OverloadConfig{})
	var w sojournWindow
	now := t0
	// dequeue folds one indication that waited sojourn, as dispatchLoop
	// does, 1 ms after the last.
	dequeue := func(sojourn time.Duration) BrownoutLevel {
		now = now.Add(time.Millisecond)
		o.bo.request(w.fold(now, sojourn, o.cfg.StaleAfter), now)
		return o.Level(now)
	}
	phase := func(n int, sojourn time.Duration) (worst BrownoutLevel) {
		for i := 0; i < n; i++ {
			worst = max(worst, dequeue(sojourn))
		}
		return worst
	}
	if got := phase(1000, time.Millisecond); got != BrownoutNormal {
		t.Fatalf("1 ms sojourns reached %v, want normal throughout", got)
	}
	if got := phase(250, 3*sojournTarget); got != BrownoutDegraded {
		t.Fatalf("a standing 30 ms queue reached %v, want degraded", got)
	}
	if got := phase(250, 2*DefaultStaleAfter); got != BrownoutCritical {
		t.Fatalf("sojourns past the stale bound reached %v, want critical", got)
	}
	calm := now
	left := []BrownoutLevel{o.Level(now)}
	for now.Sub(calm) < 2*sojournInterval {
		if lvl := dequeue(time.Millisecond); left[len(left)-1] != lvl {
			left = append(left, lvl)
		}
	}
	if want := []BrownoutLevel{BrownoutCritical, BrownoutDegraded, BrownoutNormal}; !slices.Equal(left, want) {
		t.Fatalf("levels after calm = %v, want %v: one step per interval, normal within two", left, want)
	}
	if got := phase(200_000, time.Millisecond); got != BrownoutNormal {
		t.Fatalf("a long calm after the storm reached %v, want normal", got)
	}
	if got := o.transitions.Value(); got != 4 {
		t.Fatalf("transitions = %d, want 4 (up to degraded, up to critical, two steps down)", got)
	}
}

// TestBrownoutStateMachine drives the RIC-wide level through requests:
// escalation is immediate, a degraded request never shortens a critical
// one, de-escalation steps one level per calm interval, and only the first
// reader of a new level records the transition.
func TestBrownoutStateMachine(t *testing.T) {
	o := syntheticOverload(OverloadConfig{})
	at := func(d time.Duration) time.Time { return t0.Add(d * time.Millisecond) }

	o.bo.request(BrownoutDegraded, at(1))
	if got := o.Level(at(1)); got != BrownoutDegraded {
		t.Fatalf("level after a degraded request = %v, want degraded", got)
	}
	o.bo.request(BrownoutCritical, at(2))
	o.bo.request(BrownoutDegraded, at(3)) // must not cut critical short
	for _, d := range []time.Duration{2, 50, 101} {
		if got := o.Level(at(d)); got != BrownoutCritical {
			t.Fatalf("level at +%dms = %v, want critical", d, got)
		}
	}
	// One calm interval: one step down, not a jump to normal.
	if got := o.Level(at(102)); got != BrownoutDegraded {
		t.Fatalf("level one interval after critical = %v, want degraded (single step)", got)
	}
	if got := o.Level(at(202)); got != BrownoutNormal {
		t.Fatalf("level two intervals after critical = %v, want normal", got)
	}
	if got := o.transitions.Value(); got != 4 {
		t.Fatalf("transitions = %d, want 4", got)
	}
	// A steady level is read-only: more reads record nothing.
	for d := time.Duration(203); d < 300; d++ {
		o.Level(at(d))
	}
	if got := o.transitions.Value(); got != 4 {
		t.Fatalf("steady reads recorded transitions: %d, want 4", got)
	}
}

// TestBrownoutLatencyTrigger pins what an interval asks for: its least
// sojourn against the 10 ms target and the stale bound. One short wait in
// an interval means the queue drained, so the interval asks for nothing;
// with the stale bound disabled an interval asks for degraded at most.
func TestBrownoutLatencyTrigger(t *testing.T) {
	stale := 50 * time.Millisecond
	cases := []struct {
		name     string
		sojourns []time.Duration
		stale    time.Duration
		want     BrownoutLevel
	}{
		{"under target", []time.Duration{ms(9), ms(9)}, stale, BrownoutNormal},
		{"standing queue", []time.Duration{ms(11), ms(40)}, stale, BrownoutDegraded},
		{"past stale", []time.Duration{ms(60), ms(70)}, stale, BrownoutCritical},
		{"drained once", []time.Duration{ms(70), ms(1), ms(70)}, stale, BrownoutNormal},
		{"stale disabled", []time.Duration{ms(600)}, -1, BrownoutDegraded},
	}
	for _, c := range cases {
		var w sojournWindow
		w.fold(t0, 0, c.stale) // the zero window closes at once, asking nothing
		now := t0
		for _, s := range c.sojourns {
			now = now.Add(time.Millisecond)
			if ask := w.fold(now, s, c.stale); ask != BrownoutNormal {
				t.Fatalf("%s: the interval closed early, asking %v", c.name, ask)
			}
		}
		if got := w.fold(t0.Add(sojournInterval), c.sojourns[0], c.stale); got != c.want {
			t.Fatalf("%s: interval asked %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBrownoutOverflowAsksCritical: an overflow eviction asks for critical
// at the enqueue time of the indication that overflowed, however short the
// waits were, since drop-oldest caps them.
func TestBrownoutOverflowAsksCritical(t *testing.T) {
	r := MustNew(Config{Overload: &OverloadConfig{QueueDepth: 1}})
	r.ov.bo.epoch = t0
	q := newAssocQueue(1)
	enq := t0.Add(ms(5))
	for s := uint64(0); s < 2; s++ {
		r.enqueueIndication(q, queuedInd{ind: &e2.Indication{Slot: s, Cell: 1}, enq: enq})
	}
	if got := r.ov.Level(enq); got != BrownoutCritical {
		t.Fatalf("level after an overflow = %v, want critical", got)
	}
	if got := r.ov.Level(enq.Add(2 * sojournInterval)); got != BrownoutNormal {
		t.Fatalf("level two intervals after the overflow = %v, want normal", got)
	}
}
