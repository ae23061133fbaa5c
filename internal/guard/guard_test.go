package guard_test

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"waran/internal/guard"
	"waran/internal/sched"
	"waran/internal/wabi"
	"waran/internal/wasm"
)

// vclock is a manually advanced clock so breaker timing is deterministic.
type vclock struct {
	mu sync.Mutex
	t  time.Time
}

func newVclock() *vclock { return &vclock{t: time.Unix(0, 0)} }

func (c *vclock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *vclock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// errTrap builds the classed error a trapped plugin call produces.
func errTrap() error {
	return &wabi.CallError{Entry: "schedule", Trap: &wasm.Trap{Code: wasm.TrapUnreachable}}
}

func errFuel() error {
	return &wabi.CallError{Entry: "schedule", Trap: &wasm.Trap{Code: wasm.TrapFuelExhausted}}
}

// fakeSched is a scriptable IntraSlice: script decides per call (1-based)
// whether it fails and how, and fuel is the cost every decision declares —
// the shadow gate's currency, so a test never compares two wall-clock times.
type fakeSched struct {
	name   string
	fuel   int64
	script func(call int, req *sched.Request) error

	mu    sync.Mutex
	calls int
}

func (f *fakeSched) Name() string { return f.name }

func (f *fakeSched) Schedule(req *sched.Request) (*sched.Response, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	if f.script != nil {
		if err := f.script(n, req); err != nil {
			return nil, err
		}
	}
	return &sched.Response{FuelUsed: f.fuel}, nil
}

func (f *fakeSched) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func alwaysFail(err error) func(int, *sched.Request) error {
	return func(int, *sched.Request) error { return err }
}

func testReq(slot uint64) *sched.Request {
	return &sched.Request{SliceID: 1, Slot: slot, PRBBudget: 10, UEs: []sched.UEInfo{
		{ID: 1, MCS: 10, BitsPerPRB: 100, BufferBytes: 1000},
		{ID: 2, MCS: 12, BitsPerPRB: 120, BufferBytes: 1000},
	}}
}

func breakerCfg(clock *vclock) guard.BreakerConfig {
	return guard.BreakerConfig{
		Window:     8,
		MinSamples: 4,
		Backoff:    10 * time.Millisecond,
		MaxBackoff: 80 * time.Millisecond,
		Now:        clock.Now,
	}
}

func TestBreakerOpensAtFailureRate(t *testing.T) {
	clock := newVclock()
	br := guard.NewBreaker(breakerCfg(clock))
	// Three failures among four samples: rate 0.75 ≥ 0.5 at MinSamples.
	br.Record(wabi.FailNone)
	br.Record(wabi.FailTrap)
	br.Record(wabi.FailTrap)
	if br.State() != guard.Closed {
		t.Fatalf("opened before MinSamples: %v", br.State())
	}
	br.Record(wabi.FailTrap)
	if br.State() != guard.Open {
		t.Fatalf("state = %v, want open", br.State())
	}
	if br.Allow() {
		t.Fatal("open breaker admitted a call before backoff")
	}
	st := br.Stats()
	if st.Opens != 1 || st.FailuresByClass["trap"] != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	clock := newVclock()
	br := guard.NewBreaker(breakerCfg(clock))
	for i := 0; i < 4; i++ {
		br.Record(wabi.FailFuel)
	}
	if br.State() != guard.Open {
		t.Fatal("not open")
	}
	clock.Advance(10 * time.Millisecond)
	if !br.Allow() {
		t.Fatal("probe not admitted after backoff")
	}
	if br.State() != guard.HalfOpen {
		t.Fatalf("state = %v, want half-open", br.State())
	}
	br.Record(wabi.FailNone)
	for probe := 2; probe <= 3; probe++ {
		if br.State() != guard.HalfOpen || !br.Allow() {
			t.Fatalf("probe %d not admitted half-open (state %v)", probe, br.State())
		}
		br.Record(wabi.FailNone)
	}
	// Three probe successes close the breaker.
	if br.State() != guard.Closed {
		t.Fatalf("state = %v, want closed after %d probe successes", br.State(), 3)
	}
	if !br.Allow() {
		t.Fatal("closed breaker rejected a call")
	}
}

// TestBreakerProbeFailureDoublesBackoff is the satellite edge case: each
// failed half-open probe re-opens with a doubled backoff, capped.
func TestBreakerProbeFailureDoublesBackoff(t *testing.T) {
	clock := newVclock()
	br := guard.NewBreaker(breakerCfg(clock)) // 10ms initial, 80ms cap
	for i := 0; i < 4; i++ {
		br.Record(wabi.FailTrap)
	}
	wantBackoffs := []time.Duration{
		10 * time.Millisecond, // first open
		20 * time.Millisecond, // after 1st failed probe
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
	}
	for i, backoff := range wantBackoffs[:len(wantBackoffs)-1] {
		// Just before the backoff elapses: still rejected.
		clock.Advance(backoff - time.Millisecond)
		if br.Allow() {
			t.Fatalf("round %d: admitted %v before backoff %v", i, backoff-time.Millisecond, backoff)
		}
		clock.Advance(time.Millisecond)
		if !br.Allow() {
			t.Fatalf("round %d: probe rejected after backoff %v", i, backoff)
		}
		br.Record(wabi.FailTrap) // probe fails → reopen, doubled
		next := wantBackoffs[i+1]
		if got := time.Duration(br.Stats().BackoffMs * float64(time.Millisecond)); got != next {
			t.Fatalf("round %d: backoff = %v, want %v", i, got, next)
		}
	}
	st := br.Stats()
	if st.Reopens != 4 || st.ProbeFails != 4 {
		t.Fatalf("reopens=%d probeFails=%d, want 4/4", st.Reopens, st.ProbeFails)
	}
}

func TestBreakerSingleProbeInFlight(t *testing.T) {
	clock := newVclock()
	br := guard.NewBreaker(breakerCfg(clock))
	for i := 0; i < 4; i++ {
		br.Record(wabi.FailTrap)
	}
	clock.Advance(10 * time.Millisecond)
	if !br.Allow() {
		t.Fatal("first probe rejected")
	}
	// Probe in flight: parallel cells must not pile onto a sick plugin.
	if br.Allow() || br.Allow() {
		t.Fatal("second probe admitted while first is in flight")
	}
	br.Record(wabi.FailNone)
	if !br.Allow() {
		t.Fatal("next probe rejected after first resolved")
	}
}

func TestSupervisorFallsBackAndContains(t *testing.T) {
	clock := newVclock()
	hostile := &fakeSched{name: "hostile", script: alwaysFail(errTrap())}
	sup := guard.New("s1", hostile, guard.Config{Breaker: breakerCfg(clock)})

	var traps, refused int
	for slot := uint64(0); slot < 100; slot++ {
		_, err := sup.Schedule(testReq(slot))
		switch {
		case errors.Is(err, sched.ErrRefused):
			refused++
		case wabi.ClassOf(err) == wabi.FailTrap:
			traps++
		default:
			t.Fatalf("slot %d: err = %v, want the plugin's trap or a refusal", slot, err)
		}
	}
	st := sup.Stats()
	if st.Breaker.State != "open" {
		t.Fatalf("breaker = %s, want open", st.Breaker.State)
	}
	// Containment: after the window filled (MinSamples=4 failures) the
	// breaker opened and the hostile plugin stopped being called; every
	// later slot was refused, for the slice's fallback to serve.
	if hostile.Calls() != 4 || traps != 4 || refused != 96 {
		t.Fatalf("plugin called %d times, %d traps / %d refusals returned, want 4, 4/96",
			hostile.Calls(), traps, refused)
	}
	if st.Calls != 100 || st.Successes != 0 {
		t.Fatalf("calls/successes = %d/%d, want 100/0", st.Calls, st.Successes)
	}
	if st.Breaker.FailuresByClass["trap"] != 4 {
		t.Fatalf("trap count = %d, want 4", st.Breaker.FailuresByClass["trap"])
	}
}

func TestSupervisorRecoversThroughProbes(t *testing.T) {
	clock := newVclock()
	// Fails its first 4 calls, then recovers for good.
	flaky := &fakeSched{name: "flaky", script: func(call int, _ *sched.Request) error {
		if call <= 4 {
			return errFuel()
		}
		return nil
	}}
	sup := guard.New("s1", flaky, guard.Config{Breaker: breakerCfg(clock)})
	for slot := uint64(0); slot < 10; slot++ {
		if _, err := sup.Schedule(testReq(slot)); err == nil {
			t.Fatalf("slot %d: a failing or refused call returned no error", slot)
		}
	}
	if sup.Breaker().State() != guard.Open {
		t.Fatal("breaker did not open")
	}
	clock.Advance(10 * time.Millisecond)
	// Three successful probes close the breaker.
	for slot := uint64(10); slot < 13; slot++ {
		if _, err := sup.Schedule(testReq(slot)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sup.Breaker().State(); got != guard.Closed {
		t.Fatalf("breaker = %v after probes, want closed", got)
	}
	before := flaky.Calls()
	if _, err := sup.Schedule(testReq(99)); err != nil {
		t.Fatal(err)
	}
	if flaky.Calls() != before+1 {
		t.Fatal("re-admitted plugin not serving calls")
	}
}

// TestSupervisorSharedAcrossCellsNoDoubleCount is the satellite edge case:
// parallel cells sharing one supervisor record each plugin failure exactly
// once — the breaker's class counters equal the plugin's own call count.
func TestSupervisorSharedAcrossCellsNoDoubleCount(t *testing.T) {
	clock := newVclock()
	hostile := &fakeSched{name: "hostile", script: alwaysFail(errTrap())}
	cfg := breakerCfg(clock)
	cfg.Window = 1024
	cfg.MinSamples = 1024 // never opens: every call reaches the plugin
	sup := guard.New("s1", hostile, guard.Config{Breaker: cfg})

	const cells, slots = 4, 50
	var wg sync.WaitGroup
	for c := 0; c < cells; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for s := 0; s < slots; s++ {
				if _, err := sup.Schedule(testReq(uint64(c*slots + s))); wabi.ClassOf(err) != wabi.FailTrap {
					t.Errorf("cell %d: err = %v, want the plugin's trap", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	traps := sup.Breaker().FailureCount(wabi.FailTrap)
	if got := uint64(hostile.Calls()); traps != got {
		t.Fatalf("breaker counted %d traps, plugin failed %d times (double counting)", traps, got)
	}
	if traps != cells*slots {
		t.Fatalf("traps = %d, want %d", traps, cells*slots)
	}
}

func TestSwapRejectsBadCandidate(t *testing.T) {
	clock := newVclock()
	good := &fakeSched{name: "good"}
	sup := guard.New("s1", good, guard.Config{Breaker: breakerCfg(clock)})
	for slot := uint64(0); slot < 16; slot++ {
		if _, err := sup.Schedule(testReq(slot)); err != nil {
			t.Fatal(err)
		}
	}
	bad := &fakeSched{name: "bad", script: alwaysFail(errTrap())}
	rep, err := sup.Swap(bad)
	var rej *guard.RejectedError
	if !errors.As(err, &rej) || rej.Report != rep {
		t.Fatalf("hostile candidate: err = %v, want a *RejectedError carrying the report", err)
	}
	// The first replay traps, and one failure is the verdict.
	if rep.Promoted || rep.Runs != 1 || !strings.Contains(rep.Reason, "trap") || bad.Calls() != 1 {
		t.Fatalf("report = %+v after %d candidate calls", rep, bad.Calls())
	}
	if sup.Active() != sched.IntraSlice(good) {
		t.Fatal("incumbent displaced by failed shadow run")
	}
	if st := sup.Stats(); st.ShadowFail != 1 || st.Promotions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSwapPromotesAndRollsBackDuringProbation(t *testing.T) {
	clock := newVclock()
	good := &fakeSched{name: "good", fuel: 100}
	cfg := guard.Config{Breaker: breakerCfg(clock)}
	sup := guard.New("s1", good, cfg)
	for slot := uint64(0); slot < 8; slot++ {
		if _, err := sup.Schedule(testReq(slot)); err != nil {
			t.Fatal(err)
		}
	}
	// Sleeper: behaves through shadow validation (8 recorded replays), turns
	// hostile afterwards. It costs what the incumbent costs, so the default
	// 3× fuel gate passes it.
	sleeper := &fakeSched{name: "sleeper", fuel: 100, script: func(call int, _ *sched.Request) error {
		if call > 10 {
			return errTrap()
		}
		return nil
	}}
	rep, err := sup.Swap(sleeper)
	if err != nil || !rep.Promoted {
		t.Fatalf("promotion failed: %v / %+v", err, rep)
	}
	if sup.Active() != sched.IntraSlice(sleeper) {
		t.Fatal("candidate not active after promotion")
	}

	// Serve slots until the sleeper trips the breaker inside probation; its
	// traps reach the caller, whose fallback serves those slots.
	for slot := uint64(100); slot < 130; slot++ {
		_, _ = sup.Schedule(testReq(slot))
		if sup.Stats().Rollbacks > 0 {
			break
		}
	}
	st := sup.Stats()
	if st.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", st.Rollbacks)
	}
	if sup.Active() != sched.IntraSlice(good) {
		t.Fatalf("active = %s, want rollback to last-known-good", sup.Active().Name())
	}
	// The rollback resets the breaker, so the restored scheduler serves.
	before := good.Calls()
	if _, err := sup.Schedule(testReq(999)); err != nil {
		t.Fatal(err)
	}
	if good.Calls() != before+1 {
		t.Fatal("restored scheduler not serving after rollback")
	}
}

// TestShadowGateRejectsSlowCandidate pins the slowdown gate under its
// default 3× bound: a candidate spending 4× the incumbent's fuel per
// decision stays out and the report says why, one spending 2× is promoted.
func TestShadowGateRejectsSlowCandidate(t *testing.T) {
	for _, tc := range []struct {
		fuel    int64
		promote bool
	}{{400, false}, {200, true}} {
		incumbent := &fakeSched{name: "incumbent", fuel: 100}
		sup := guard.New("s1", incumbent, guard.Config{Breaker: breakerCfg(newVclock())})
		for slot := uint64(0); slot < 8; slot++ {
			if _, err := sup.Schedule(testReq(slot)); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := sup.Swap(&fakeSched{name: "candidate", fuel: tc.fuel})
		if rep.IncumbentAvgFuel != 100 || rep.CandidateAvgFuel != float64(tc.fuel) || rep.Runs != 8 {
			t.Fatalf("%d fuel: report = %+v", tc.fuel, rep)
		}
		if tc.promote {
			if err != nil || !rep.Promoted || sup.Active().Name() != "candidate" {
				t.Fatalf("2× fuel candidate not promoted: %v / %+v", err, rep)
			}
			continue
		}
		var rej *guard.RejectedError
		if !errors.As(err, &rej) || rep.Promoted || !strings.Contains(rep.Reason, "fuel") {
			t.Fatalf("4× fuel candidate: err = %v, report = %+v; want a rejection naming fuel", err, rep)
		}
		if sup.Active() != sched.IntraSlice(incumbent) {
			t.Fatal("slow candidate displaced the incumbent")
		}
	}
}

// TestSwapDuringOpenBreakerTargetsCandidate is the satellite edge case: a
// hot-swap while the incumbent is quarantined promotes the candidate and
// must NOT retain the quarantined incumbent as a rollback target.
func TestSwapDuringOpenBreakerTargetsCandidate(t *testing.T) {
	clock := newVclock()
	hostile := &fakeSched{name: "hostile", script: alwaysFail(errTrap())}
	cfg := guard.Config{Breaker: breakerCfg(clock)}
	sup := guard.New("s1", hostile, cfg)
	for slot := uint64(0); slot < 20; slot++ {
		_, _ = sup.Schedule(testReq(slot))
	}
	if sup.Breaker().State() != guard.Open {
		t.Fatal("breaker did not open")
	}

	// Candidate that later turns hostile too: the post-promotion trip must
	// leave the slice on its fallback, not roll back to the quarantined
	// incumbent.
	sleeper := &fakeSched{name: "sleeper", script: func(call int, _ *sched.Request) error {
		if call > 25 {
			return errTrap()
		}
		return nil
	}}
	rep, err := sup.Swap(sleeper)
	if err != nil || !rep.Promoted {
		t.Fatalf("swap during open breaker failed: %v / %+v", err, rep)
	}
	if sup.Active() != sched.IntraSlice(sleeper) {
		t.Fatal("candidate not active")
	}
	hostileCalls := hostile.Calls()

	for slot := uint64(100); slot < 160; slot++ {
		_, _ = sup.Schedule(testReq(slot))
	}
	if sup.Stats().Rollbacks != 0 {
		t.Fatal("rolled back to a quarantined incumbent")
	}
	if sup.Active() != sched.IntraSlice(sleeper) {
		t.Fatalf("active = %s, want candidate (fallback-degraded)", sup.Active().Name())
	}
	if hostile.Calls() != hostileCalls {
		t.Fatal("quarantined incumbent was called after replacement")
	}
}

func TestSwapEnforcesLatencyBudget(t *testing.T) {
	clock := newVclock()
	good := &fakeSched{name: "good"}
	cfg := guard.Config{Breaker: breakerCfg(clock), ShadowLatencyBudget: time.Millisecond}
	sup := guard.New("s1", good, cfg)
	for slot := uint64(0); slot < 4; slot++ {
		if _, err := sup.Schedule(testReq(slot)); err != nil {
			t.Fatal(err)
		}
	}
	slow := &fakeSched{name: "slow", script: func(int, *sched.Request) error {
		time.Sleep(3 * time.Millisecond)
		return nil
	}}
	if _, err := sup.Swap(slow); err == nil {
		t.Fatal("candidate blowing the shadow latency budget promoted")
	}
	if sup.Active() != sched.IntraSlice(good) {
		t.Fatal("incumbent displaced")
	}
}

// TestShadowLatencyGateIgnoresOneSlowReplay: the first shadow replay is the
// candidate's warm-up (it pays a new sandbox's first call) and is not timed,
// and one timed replay over budget (a preemption on a loaded host) is not a
// majority, so a candidate slow on only one call is promoted under the same
// budget TestSwapEnforcesLatencyBudget rejects with.
func TestShadowLatencyGateIgnoresOneSlowReplay(t *testing.T) {
	for _, slowCall := range []int{1, 3} {
		clock := newVclock()
		cfg := guard.Config{Breaker: breakerCfg(clock), ShadowLatencyBudget: time.Millisecond}
		sup := guard.New("s1", &fakeSched{name: "good"}, cfg)
		for slot := uint64(0); slot < 4; slot++ {
			if _, err := sup.Schedule(testReq(slot)); err != nil {
				t.Fatal(err)
			}
		}
		cold := &fakeSched{name: "cold", script: func(call int, _ *sched.Request) error {
			if call == slowCall {
				time.Sleep(3 * time.Millisecond)
			}
			return nil
		}}
		if rep, err := sup.Swap(cold); err != nil || rep.Runs != 4 {
			t.Fatalf("candidate slow only on call %d: %+v, %v; want promoted after 4 replays", slowCall, rep, err)
		}
	}
}

// TestSupervisedScheduleIntoAllocatesNothing pins the supervised slot's
// allocation budget: once the replay ring is warm, a decision through
// sched.ScheduleInto and a supervisor costs what it costs without one.
func TestSupervisedScheduleIntoAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	sup := guard.New("s1", sched.RoundRobin{}, guard.Config{Breaker: breakerCfg(newVclock())})
	req := testReq(0)
	var resp sched.Response
	step := func() {
		req.Slot++
		if _, err := sched.ScheduleInto(sup, req, &resp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // past the ring's first lap
		step()
	}
	if got := testing.AllocsPerRun(200, step); got != 0 {
		t.Fatalf("%.1f allocs per supervised ScheduleInto, want 0", got)
	}
	if st := sup.Stats(); st.Successes != st.Calls || sup.Name() != "rr" {
		t.Fatalf("stats = %+v, name %q", st, sup.Name())
	}
}

// TestSwapWhileCellsSchedule swaps and rolls back while several cells
// schedule through the supervisor: the active scheduler, the replay ring and
// the breaker are shared state. Meaningful under -race.
func TestSwapWhileCellsSchedule(t *testing.T) {
	cfg := breakerCfg(newVclock())
	cfg.MinSamples = 1024 // the sleepers' traps never open the breaker
	sup := guard.New("s1", sched.RoundRobin{}, guard.Config{Breaker: cfg})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for slot := uint64(c); ; slot += 4 {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = sup.Schedule(testReq(slot))
			}
		}(c)
	}
	for sup.Stats().Calls < 8 { // the cells are running and the ring is full
		runtime.Gosched()
	}
	for i := 0; i < 20; i++ {
		_, _ = sup.Swap(&fakeSched{name: "candidate", script: func(call int, _ *sched.Request) error {
			if call%3 == 0 {
				return errTrap()
			}
			return nil
		}})
		_, _ = sup.Swap(sched.RoundRobin{})
	}
	close(stop)
	wg.Wait()
	if st := sup.Stats(); st.Promotions+st.ShadowFail != 40 {
		t.Fatalf("stats = %+v, want 40 swap verdicts", st)
	}
}
