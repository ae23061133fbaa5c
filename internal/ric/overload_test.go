package ric

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"waran/internal/e2"
	"waran/internal/guard"
	"waran/internal/plugins"
	"waran/internal/wabi"
)

// connPair returns the two ends of a loopback E2 connection.
func connPair(t *testing.T) (server, client *e2.Conn) {
	t.Helper()
	lis, err := e2.Listen("127.0.0.1:0", e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := lis.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		server = c
	}()
	client, err = e2.Dial(lis.Addr().String(), e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	t.Cleanup(func() {
		client.Close()
		if server != nil {
			server.Close()
		}
	})
	return server, client
}

// TestZeroConfigIsGuarded pins that there is one RIC: the zero Config
// carries the ledger, a breaker per xApp and TypeBusy refusals, and its
// subscription asks for KPM and advertises nothing.
func TestZeroConfigIsGuarded(t *testing.T) {
	r := MustNew(Config{})
	if got := *r.Config().Overload; got.QueueDepth != DefaultQueueDepth || got.AdmitBurst != DefaultAdmitBurst {
		t.Fatalf("zero Config resolves Overload to %+v, want the defaults", got)
	}
	if _, ok := r.OverloadStats(); !ok {
		t.Fatal("zero-Config RIC reports no overload ledger")
	}
	x, err := r.AddXAppWAT("sla", plugins.SLAAssureXAppWAT, wabi.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if x.Breaker() == nil {
		t.Fatal("zero-Config xApp has no breaker")
	}

	stop := make(chan struct{})
	defer close(stop)
	server, client := connPair(t)
	go r.ServeConn(server, stop)
	sub, err := client.Recv()
	if err != nil || sub.Type != e2.TypeSubscriptionRequest {
		t.Fatalf("first frame = %v, %v; want a subscription request", sub, err)
	}
	if sub.RANFunction != e2.RANFunctionKPM {
		t.Fatalf("subscription RAN function %#x, want KPM (%#x) alone", sub.RANFunction, e2.RANFunctionKPM)
	}

	// The budget spent: the refusal is TypeBusy with a retry-after.
	if cap(r.sem) != DefaultMaxAssociations {
		t.Fatalf("zero Config budget %d, want %d", cap(r.sem), DefaultMaxAssociations)
	}
	for len(r.sem) < cap(r.sem) {
		r.sem <- struct{}{}
	}
	server2, client2 := connPair(t)
	if err := r.ServeConn(server2, stop); err == nil {
		t.Fatal("ServeConn accepted an association with the budget spent")
	}
	m, err := client2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != e2.TypeBusy || m.Busy.RetryAfter() <= 0 {
		t.Fatalf("refusal frame = %s %+v, want busy with a retry-after", m.Type, m.Busy)
	}
}

// TestZeroConfigNoWallClockDeadline pins the default dispatch bound: fuel,
// not wall clock. A guest that spins forever exhausts Policy.Fuel and faults
// as FailFuel; nothing a descheduled host thread could trip stops it first.
func TestZeroConfigNoWallClockDeadline(t *testing.T) {
	r := MustNew(Config{})
	x, err := r.AddXAppWAT("spin", stallXAppWAT, wabi.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if ctrls := r.HandleIndication(&e2.Indication{Cell: 1}); len(ctrls) != 0 {
		t.Fatalf("spinning xApp produced %d controls", len(ctrls))
	}
	if st := x.Stats(); st.Faults != 1 {
		t.Fatalf("spinning xApp stats %+v, want one fault", st)
	}
	if got := x.Breaker().FailureCount(wabi.FailFuel); got != 1 {
		t.Fatalf("spinning xApp's breaker counted %d fuel faults, want 1", got)
	}
}

func TestOverloadConfigValidate(t *testing.T) {
	bad := []OverloadConfig{
		{AdmitBurst: -1},
		{QueueDepth: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted %+v", i, c)
		}
	}
	if err := (OverloadConfig{}).Validate(); err != nil {
		t.Fatalf("zero OverloadConfig rejected: %v", err)
	}
	d := OverloadConfig{}.withDefaults()
	if d.AdmitRate != DefaultAdmitRate || d.QueueDepth != DefaultQueueDepth {
		t.Fatalf("withDefaults = %+v", d)
	}
}

// TestAdmitAssocTokenBucket pins the admission gate: burst admits, then
// refusal with a retry-after no smaller than the configured hint, then
// refill at AdmitRate.
func TestAdmitAssocTokenBucket(t *testing.T) {
	cfg := OverloadConfig{AdmitRate: 2, AdmitBurst: 2, RetryAfter: 100 * time.Millisecond}.withDefaults()
	o := newOverload(cfg, nil, nil)
	now := time.Now()
	for i := 0; i < 2; i++ {
		if ok, _ := o.admitAssoc(now); !ok {
			t.Fatalf("admission %d refused within burst", i)
		}
	}
	ok, wait := o.admitAssoc(now)
	if ok {
		t.Fatal("third admission accepted with an empty bucket")
	}
	if wait < 100*time.Millisecond {
		t.Fatalf("retry-after %v below the configured floor", wait)
	}
	// At 2 tokens/s, 600 ms refills more than one whole token.
	if ok, _ := o.admitAssoc(now.Add(600 * time.Millisecond)); !ok {
		t.Fatal("admission refused after refill")
	}
	// A disabled gate admits everything.
	od := newOverload(OverloadConfig{AdmitRate: -1}.withDefaults(), nil, nil)
	for i := 0; i < 1000; i++ {
		if ok, _ := od.admitAssoc(now); !ok {
			t.Fatal("disabled admission gate refused")
		}
	}
}

// TestBusyAdmissionRefusal verifies the wire path: an association past the
// admission budget gets TypeBusy with a retry-after hint and Agent.Start
// surfaces it as *e2.BusyError.
func TestBusyAdmissionRefusal(t *testing.T) {
	r := MustNew(Config{Overload: &OverloadConfig{AdmitRate: 0.001, AdmitBurst: 1}})
	lis, err := e2.Listen("127.0.0.1:0", e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	stop := make(chan struct{})
	defer close(stop)
	go r.Serve(lis, stop)

	dial := func() *Agent {
		c, err := e2.Dial(lis.Addr().String(), e2.BinaryCodec{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		a, err := NewAgent(c, &fakeRAN{}, AgentConfig{Cell: 1})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if _, err := dial().Start(); err != nil {
		t.Fatalf("first association refused: %v", err)
	}
	_, err = dial().Start()
	busy, ok := err.(*e2.BusyError)
	if !ok {
		t.Fatalf("second association got %v, want *e2.BusyError", err)
	}
	if busy.RetryAfter <= 0 {
		t.Fatalf("busy refusal carries no retry-after hint: %+v", busy)
	}
	st, _ := r.OverloadStats()
	if st.BusyAdmission != 1 {
		t.Fatalf("BusyAdmission = %d, want 1", st.BusyAdmission)
	}
}

// TestShedLedgerConservation exercises every exit of the indication queue —
// delivery, overflow eviction, late refusal, teardown drain — and asserts
// the strict conservation invariant offered == delivered + shed + refused.
func TestShedLedgerConservation(t *testing.T) {
	r := MustNew(Config{Overload: &OverloadConfig{QueueDepth: 2}})
	server, _ := connPair(t)
	q := newAssocQueue(r.cfg.Overload.QueueDepth)
	mk := func(slot uint64) queuedInd {
		return queuedInd{ind: &e2.Indication{Slot: slot, Cell: 1}, enq: time.Now()}
	}
	// No dispatcher yet: depth 2 holds two, eight more evict the oldest.
	for s := uint64(0); s < 10; s++ {
		r.enqueueIndication(q, mk(s))
	}
	st, _ := r.OverloadStats()
	if st.Offered != 10 || st.ShedOverflow != 8 {
		t.Fatalf("after overflow: offered=%d shedOverflow=%d, want 10/8", st.Offered, st.ShedOverflow)
	}
	// Start the dispatcher: the two survivors are delivered.
	go r.dispatchLoop(server, q)
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, _ = r.OverloadStats()
		if st.Delivered == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dispatcher never delivered the queued survivors: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(q.quit)
	<-q.done
	// An indication offered after teardown is refused, not lost.
	r.enqueueIndication(q, mk(99))
	st, _ = r.OverloadStats()
	if st.RefusedLate != 1 {
		t.Fatalf("RefusedLate = %d, want 1", st.RefusedLate)
	}
	if !st.LedgerConserved() {
		t.Fatalf("ledger violated: %+v", st)
	}

	// Teardown drain: residue left in a dying queue lands in the ledger.
	r2 := MustNew(Config{Overload: &OverloadConfig{QueueDepth: 8}})
	server2, _ := connPair(t)
	q2 := newAssocQueue(8)
	for s := uint64(0); s < 3; s++ {
		r2.enqueueIndication(q2, mk(s))
	}
	close(q2.quit)
	r2.dispatchLoop(server2, q2) // returns after the drain
	st2, _ := r2.OverloadStats()
	if st2.Offered != 3 || st2.Delivered+st2.ShedTeardown != 3 {
		t.Fatalf("teardown ledger violated: %+v", st2)
	}
}

// TestBrownoutWidensShedsAndPauses walks one association through a forced
// brownout: the dispatcher re-subscribes at a widened period, sheds the
// stale indication, and sends a busy pause to the agent.
func TestBrownoutWidensShedsAndPauses(t *testing.T) {
	r := MustNew(Config{ReportPeriodMs: 100, Overload: &OverloadConfig{
		StaleAfter: time.Nanosecond, // every queued indication is stale once browned out
		BusyPause:  50 * time.Millisecond,
	}})
	server, client := connPair(t)
	stop := make(chan struct{})
	defer close(stop)
	done := make(chan error, 1)
	go func() { done <- r.ServeConn(server, stop) }()

	sub, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	err = client.Send(&e2.Message{
		Type: e2.TypeSubscriptionResponse, RequestID: sub.RequestID, RANFunction: sub.RANFunction,
		SubscriptionResp: &e2.SubscriptionResponse{Accepted: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.ov.bo.criticalUntil.Store(math.MaxInt64) // critical for the whole test
	err = client.Send(&e2.Message{
		Type: e2.TypeIndication, RANFunction: e2.RANFunctionKPM,
		Indication: &e2.Indication{Slot: 1, Cell: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	var widened, paused bool
	deadline := time.Now().Add(2 * time.Second)
	for !(widened && paused) {
		_ = client.SetReadDeadline(deadline)
		m, err := client.Recv()
		if err != nil {
			t.Fatalf("widened=%v paused=%v: %v", widened, paused, err)
		}
		switch m.Type {
		case e2.TypeSubscriptionRequest:
			if m.Subscription.ReportPeriodMs != 100*brownoutWiden {
				t.Fatalf("browned-out re-subscription period = %d, want %d",
					m.Subscription.ReportPeriodMs, 100*brownoutWiden)
			}
			widened = true
		case e2.TypeBusy:
			if m.Busy.RetryAfter() != 50*time.Millisecond {
				t.Fatalf("busy pause hint = %v, want 50ms", m.Busy.RetryAfter())
			}
			paused = true
		}
	}
	// The dispatcher writes the brownout frames first and sheds the
	// indication next: having read both frames orders nothing against the
	// shed, so wait for it.
	st, _ := r.OverloadStats()
	for st.ShedStale == 0 && st.Delivered == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st, _ = r.OverloadStats()
	}
	if st.ShedStale != 1 || st.Delivered != 0 {
		t.Fatalf("stale shed not applied: %+v", st)
	}
	if st.BusyBackpressure == 0 {
		t.Fatalf("no busy backpressure frame counted: %+v", st)
	}
	if !st.LedgerConserved() {
		t.Fatalf("ledger violated: %+v", st)
	}
}

// TestLedgerSettledBeforeControlsLeave pins when an indication counts as
// delivered: once the xApps have run, before the first control is written.
// An agent (and the bench oracle) reads the ledger the moment it has applied
// the last control of a run. The pipe is unbuffered, so while the test holds
// the first of two controls the dispatcher is still blocked writing the
// second, and the ledger must already balance.
func TestLedgerSettledBeforeControlsLeave(t *testing.T) {
	r := MustNew(Config{})
	for _, name := range []string{"a", "b"} {
		if _, err := r.AddXAppWAT(name, plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
			t.Fatal(err)
		}
	}
	sc, cc := net.Pipe()
	server, client := e2.NewConn(sc, e2.BinaryCodec{}), e2.NewConn(cc, e2.BinaryCodec{})
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- r.ServeConn(server, stop) }()
	defer func() {
		close(stop)
		client.Close()
		<-done
	}()

	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	sub, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	err = client.Send(&e2.Message{
		Type: e2.TypeSubscriptionResponse, RequestID: sub.RequestID, RANFunction: sub.RANFunction,
		SubscriptionResp: &e2.SubscriptionResponse{Accepted: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Served rate at half the target: each SLA xApp answers with a control.
	err = client.Send(&e2.Message{
		Type: e2.TypeIndication, RANFunction: e2.RANFunctionKPM,
		Indication: mkInd(1, 1, 0, 5e6),
	})
	if err != nil {
		t.Fatal(err)
	}
	for {
		m, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == e2.TypeControlRequest {
			break
		}
	}
	if st, _ := r.OverloadStats(); st.Offered != 1 || st.Delivered != 1 {
		t.Fatalf("first control in hand, ledger not settled: %+v", st)
	}
}

// TestCriticalBrownoutRefusesSubscriptions verifies the front door shuts at
// critical level: a new association is refused with TypeBusy before any
// budget or bucket is consulted.
func TestCriticalBrownoutRefusesSubscriptions(t *testing.T) {
	r := MustNew(Config{Overload: &OverloadConfig{}})
	r.ov.bo.criticalUntil.Store(math.MaxInt64) // critical for the whole test
	server, client := connPair(t)
	stop := make(chan struct{})
	defer close(stop)
	if err := r.ServeConn(server, stop); err == nil {
		t.Fatal("ServeConn accepted an association at critical brownout")
	}
	m, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != e2.TypeBusy {
		t.Fatalf("refused association got %s, want busy", m.Type)
	}
	st, _ := r.OverloadStats()
	if st.RefusedSubscriptions != 1 {
		t.Fatalf("RefusedSubscriptions = %d, want 1", st.RefusedSubscriptions)
	}
}

// stallXAppWAT never returns: every call ends when its fuel runs out, as
// wabi.FailFuel.
const stallXAppWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (func (export "on_indication") (result i32)
    (loop $spin (br $spin))
    (i32.const 0))
)`

// TestSlowXAppIsolation pins the isolation contract: a stalled xApp is cut
// off when its fuel runs out, trips its breaker open after MinSamples, and
// is then skipped without being invoked — while a healthy xApp keeps
// producing controls in every round.
func TestSlowXAppIsolation(t *testing.T) {
	r := MustNew(Config{Overload: &OverloadConfig{
		Breaker: guard.BreakerConfig{Window: 8, MinSamples: 2, Backoff: time.Hour},
	}})
	if _, err := r.AddXAppWAT("stall", stallXAppWAT, wabi.Policy{Fuel: 100_000}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddXAppWAT("steer", plugins.TrafficSteerXAppWAT, wabi.Policy{}); err != nil {
		t.Fatal(err)
	}
	// MCS at the floor: the steering xApp emits a handover every round.
	ind := &e2.Indication{Cell: 1, UEs: []e2.UEMeasurement{{UEID: 7, SliceID: 1, MCS: 2}}}

	for i := 0; i < 5; i++ {
		if ctrls := r.HandleIndication(ind); len(ctrls) == 0 {
			t.Fatalf("round %d: healthy xApp produced no control behind the stalled one", i)
		}
	}
	stall, _ := r.XApp("stall")
	st := stall.Stats()
	if got := stall.Breaker().FailureCount(wabi.FailFuel); got == 0 || got != st.Faults {
		t.Fatalf("stalled xApp's breaker counted %d fuel faults of %d, want all", got, st.Faults)
	}
	if st.BreakerState != "open" {
		t.Fatalf("stalled xApp breaker state = %q, want open (stats %+v)", st.BreakerState, st)
	}
	if st.Skipped == 0 {
		t.Fatalf("stalled xApp was never skipped: %+v", st)
	}
	// With the breaker open the stalled xApp costs nothing: it is not
	// invoked again.
	if ctrls := r.HandleIndication(ind); len(ctrls) == 0 {
		t.Fatal("healthy xApp stopped producing after breaker opened")
	}
	if n := stall.Stats().Invocations; n != st.Invocations {
		t.Fatalf("open breaker still invoked the stalled xApp: %d invocations, was %d", n, st.Invocations)
	}
}

// TestAgentPausesOnBusyFrame verifies mid-association backpressure: a busy
// frame pauses KPM generation at the source for its retry-after, sheds are
// counted, and reporting resumes when the pause expires.
func TestAgentPausesOnBusyFrame(t *testing.T) {
	ricEnd, agent, _ := agentPair(t)
	err := ricEnd.Send(&e2.Message{
		Type: e2.TypeSubscriptionRequest, RequestID: 1,
		RANFunction:  e2.RANFunctionKPM,
		Subscription: &e2.SubscriptionRequest{ReportPeriodMs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := ricEnd.Recv(); err != nil { // the subscription ack
		t.Fatal(err)
	}

	if err := ricEnd.Send(e2.NewBusyMessage(80*time.Millisecond, "test pause")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !agent.Paused() {
		if time.Now().After(deadline) {
			t.Fatal("agent never entered the busy pause")
		}
		time.Sleep(time.Millisecond)
	}
	// Due slots during the pause are shed at the source.
	for slot := uint64(1); slot <= 2; slot++ {
		if err := agent.Tick(slot); err != nil {
			t.Fatal(err)
		}
	}
	bf, ps, _ := agent.OverloadCounters()
	if bf != 1 || ps != 2 {
		t.Fatalf("busyFrames=%d pausedSheds=%d, want 1/2", bf, ps)
	}
	// After the pause expires, reporting resumes.
	time.Sleep(100 * time.Millisecond)
	if err := agent.Tick(3); err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		_ = ricEnd.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		m, err := ricEnd.Recv()
		if err != nil {
			break
		}
		if m.Type == e2.TypeIndication {
			got++
		}
	}
	if got != 1 {
		t.Fatalf("received %d indications, want exactly 1 (paused ticks must not leak frames)", got)
	}
}

// TestAgentSessionHonorsBusyRetryAfter verifies the supervisor stretches its
// redial to the RIC's retry-after hint instead of hammering the (much
// shorter) backoff schedule.
func TestAgentSessionHonorsBusyRetryAfter(t *testing.T) {
	lis, err := e2.Listen("127.0.0.1:0", e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	var mu sync.Mutex
	var accepts []time.Time
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			accepts = append(accepts, time.Now())
			mu.Unlock()
			_ = c.Send(e2.NewBusyMessage(200*time.Millisecond, "ric: admission"))
			c.Close()
		}
	}()

	am := &AssocMetrics{}
	sess, err := NewAgentSession(AgentSessionConfig{
		Dial:    func() (*e2.Conn, error) { return e2.Dial(lis.Addr().String(), e2.BinaryCodec{}) },
		RAN:     &fakeRAN{},
		Agent:   AgentConfig{Cell: 1},
		Backoff: Backoff{Initial: time.Millisecond, Max: 2 * time.Millisecond},
		Metrics: am,
		Seed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess.Start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(accepts)
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("supervisor never retried enough")
		}
		time.Sleep(5 * time.Millisecond)
	}
	sess.Stop()
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < 3; i++ {
		gap := accepts[i].Sub(accepts[i-1])
		// The hint is 200 ms, jittered into [100ms, 300ms); the plain backoff
		// would retry within ~2 ms. Anything under half the hint means the
		// hint was ignored.
		if gap < 100*time.Millisecond {
			t.Fatalf("redial gap %d = %v, want >= 100ms (retry-after hint ignored)", i, gap)
		}
	}
	if am.BusyRefusals.Value() < 2 {
		t.Fatalf("BusyRefusals = %d, want >= 2", am.BusyRefusals.Value())
	}
}

// TestBackoffDelay pins the reconnect schedule: every delay is drawn from
// [0, ceiling), and the ceiling doubles per attempt up to Max.
func TestBackoffDelay(t *testing.T) {
	b := Backoff{Initial: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	s := newRetrySchedule(b, 1)
	for attempt, ceiling := range []time.Duration{10, 20, 40, 80, 80, 80} {
		ceiling *= time.Millisecond
		if got := s.ceiling(); got != ceiling {
			t.Fatalf("attempt %d: ceiling = %v, want %v", attempt, got, ceiling)
		}
		for i := 0; i < 50; i++ {
			s.attempt = attempt
			if d := s.next(nil); d < 0 || d >= ceiling {
				t.Fatalf("attempt %d: delay %v, want in [0, %v)", attempt, d, ceiling)
			}
		}
	}
	// The zero value is 50 ms initial and a 5 s cap.
	z := newRetrySchedule(Backoff{}, 1)
	if got := z.ceiling(); got != 50*time.Millisecond {
		t.Fatalf("default initial ceiling = %v, want 50ms", got)
	}
	z.attempt = 30
	if got := z.ceiling(); got != 5*time.Second {
		t.Fatalf("default capped ceiling = %v, want 5s", got)
	}
}

// TestFullJitterDesync pins the full-jitter schedule and the zero-seed
// desynchronization fix: zero-seeded sessions must not share a retry
// schedule (the alignment bug that turned 1024 reconnects into one wave).
func TestFullJitterDesync(t *testing.T) {
	b := Backoff{Initial: 100 * time.Millisecond, Max: time.Second}
	s := newRetrySchedule(b, 1)
	for i := 0; i < 200; i++ {
		s.attempt = 3 // ceiling 800ms
		if d := s.next(nil); d < 0 || d >= 800*time.Millisecond {
			t.Fatalf("attempt 3: delay %v, want in [0, 800ms)", d)
		}
	}
	// The ceiling caps at Max.
	s.attempt = 10
	if got := s.ceiling(); got != time.Second {
		t.Fatalf("attempt 10: ceiling = %v, want 1s cap", got)
	}

	// Zero-seed regression: every derived seed is unique...
	seen := map[int64]bool{}
	for i := 0; i < 64; i++ {
		s := deriveSeed(0)
		if seen[s] {
			t.Fatal("deriveSeed(0) repeated a seed")
		}
		seen[s] = true
	}
	// ...and two zero-seeded sessions draw different schedules.
	s1, s2 := newRetrySchedule(b, deriveSeed(0)), newRetrySchedule(b, deriveSeed(0))
	same := true
	for i := 0; i < 4; i++ {
		if s1.next(nil) != s2.next(nil) {
			same = false
		}
	}
	if same {
		t.Fatal("zero-seeded sessions share a retry schedule: the alignment bug is back")
	}
	// Explicit seeds stay deterministic for experiments.
	if deriveSeed(7) != 7 {
		t.Fatal("deriveSeed must pass explicit seeds through")
	}
}

// TestRenegotiationRaceFlushExactlyOnce races mid-window re-subscriptions
// against Flush and asserts every buffered indication is delivered exactly
// once, in a batch frame: never duplicated, never silently lost.
func TestRenegotiationRaceFlushExactlyOnce(t *testing.T) {
	ricEnd, agent, _ := agentPair(t, AgentConfig{Cell: 1, Batch: BatchConfig{Window: 8, FlushInterval: time.Hour}})
	err := ricEnd.Send(&e2.Message{
		Type: e2.TypeSubscriptionRequest, RequestID: 1, RANFunction: e2.RANFunctionKPM,
		Subscription: &e2.SubscriptionRequest{ReportPeriodMs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	if m, err := ricEnd.Recv(); err != nil || m.Type != e2.TypeSubscriptionResponse {
		t.Fatalf("handshake ack: %v/%v", m, err)
	}

	const perIter = 3
	slot := uint64(0)
	for iter := 0; iter < 25; iter++ {
		// Buffer three due-slot indications.
		for k := 0; k < perIter; k++ {
			slot++
			if err := agent.Tick(slot); err != nil {
				t.Fatal(err)
			}
		}
		// Race a re-subscription against the flush.
		var wg sync.WaitGroup
		wg.Add(1)
		go func(reqID uint32) {
			defer wg.Done()
			_ = ricEnd.Send(&e2.Message{
				Type: e2.TypeSubscriptionRequest, RequestID: reqID, RANFunction: e2.RANFunctionKPM,
				Subscription: &e2.SubscriptionRequest{ReportPeriodMs: 1},
			})
		}(uint32(iter + 2))
		if err := agent.Flush(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()

		// Drain until the re-subscription ack and exactly perIter
		// indications arrived; any duplicate would surface either here or as
		// a stray frame in a later iteration's count.
		got, acked := 0, false
		deadline := time.Now().Add(2 * time.Second)
		for got < perIter || !acked {
			_ = ricEnd.SetReadDeadline(deadline)
			m, err := ricEnd.Recv()
			if err != nil {
				t.Fatalf("iter %d: got %d/%d acked=%v: %v", iter, got, perIter, acked, err)
			}
			switch m.Type {
			case e2.TypeIndication:
				t.Fatalf("iter %d: a batching agent sent a lone indication", iter)
			case e2.TypeIndicationBatch:
				got += len(m.Batch.Indications)
			case e2.TypeSubscriptionResponse:
				acked = true
			}
		}
		if got != perIter {
			t.Fatalf("iter %d: %d indications delivered, want exactly %d", iter, got, perIter)
		}
	}
	agent.batchMu.Lock()
	residue := agent.pending
	agent.batchMu.Unlock()
	if residue != nil {
		t.Fatalf("window residue %d after final flush", len(residue.inds))
	}
	// Nothing extra in flight: a duplicated window would land here.
	_ = ricEnd.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if m, err := ricEnd.Recv(); err == nil && (m.Type == e2.TypeIndication || m.Type == e2.TypeIndicationBatch) {
		t.Fatalf("stray %s after all windows accounted", m.Type)
	}
}
