package ric

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/wabi"
)

// fakeRAN is a minimal RANControl for agent-level tests.
type fakeRAN struct {
	mu      sync.Mutex
	applied []e2.ControlRequest
}

func (f *fakeRAN) Snapshot(cell uint32) *e2.Indication {
	return &e2.Indication{
		Cell: cell,
		Slices: []e2.SliceMeasurement{
			{SliceID: 1, TargetBps: 10e6, ServedBps: 1e6},
			{SliceID: 2, TargetBps: 10e6, ServedBps: 1e6},
		},
	}
}

func (f *fakeRAN) Apply(c *e2.ControlRequest) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.applied = append(f.applied, *c)
	return nil
}

// agentPair connects a fake RIC end (returned raw) to an Agent; an
// optional config overrides the default (cell 1, no liveness bound).
func agentPair(t *testing.T, cfg ...AgentConfig) (ricEnd *e2.Conn, agent *Agent, ran *fakeRAN) {
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
		ricEnd = c
	}()
	client, err := e2.Dial(lis.Addr().String(), e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	t.Cleanup(func() {
		client.Close()
		if ricEnd != nil {
			ricEnd.Close()
		}
	})
	ran = &fakeRAN{}
	ac := AgentConfig{Cell: 1}
	if len(cfg) > 0 {
		ac = cfg[0]
	}
	agent, err = NewAgent(client, ran, ac)
	if err != nil {
		t.Fatal(err)
	}
	return ricEnd, agent, ran
}

func subscribe(t *testing.T, ricEnd *e2.Conn, reqID uint32, periodMs uint32, slices []uint32) {
	t.Helper()
	err := ricEnd.Send(&e2.Message{
		Type:         e2.TypeSubscriptionRequest,
		RequestID:    reqID,
		RANFunction:  e2.RANFunctionKPM,
		Subscription: &e2.SubscriptionRequest{ReportPeriodMs: periodMs, SliceIDs: slices},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func expectAck(t *testing.T, ricEnd *e2.Conn, reqID uint32) {
	t.Helper()
	m, err := ricEnd.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != e2.TypeSubscriptionResponse || m.RequestID != reqID || !m.SubscriptionResp.Accepted {
		t.Fatalf("got %v/%d (%+v), want accepted subscription-response %d", m.Type, m.RequestID, m.SubscriptionResp, reqID)
	}
}

// TestServeConnStopReturnsPromptly is the regression test for the stop
// hang: a ServeConn blocked in Recv on a silent peer must return promptly
// when stop closes, not wait for the next frame.
func TestServeConnStopReturnsPromptly(t *testing.T) {
	lis, err := e2.Listen("127.0.0.1:0", e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan *e2.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		accepted <- c
	}()
	client, err := e2.Dial(lis.Addr().String(), e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- MustNew(Config{}).ServeConn(server, stop) }()
	// Consume the subscription so ServeConn is provably blocked in Recv,
	// then go silent.
	if _, err := client.Recv(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeConn returned %v after stop, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ServeConn hung after stop was closed")
	}
}

// TestRICHeartbeatLivenessDeclaresDead verifies the RIC-side watchdog: a
// peer that subscribes and then goes silent is declared dead after the
// missed-heartbeat limit and ServeConn returns e2.ErrAssociationDead.
func TestRICHeartbeatLivenessDeclaresDead(t *testing.T) {
	lis, err := e2.Listen("127.0.0.1:0", e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan *e2.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		accepted <- c
	}()
	client, err := e2.Dial(lis.Addr().String(), e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted

	assoc := &AssocMetrics{}
	r := MustNew(Config{HeartbeatInterval: 2 * time.Millisecond, Assoc: assoc})
	stop := make(chan struct{})
	defer close(stop)
	done := make(chan error, 1)
	go func() { done <- r.ServeConn(server, stop) }()
	// Read the subscription, never answer, never echo heartbeats.
	if _, err := client.Recv(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, e2.ErrAssociationDead) {
			t.Fatalf("ServeConn returned %v, want ErrAssociationDead", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("silent peer was never declared dead")
	}
	if got := assoc.MissedHeartbeats.Value(); got < DefaultMissedHeartbeatLimit {
		t.Fatalf("MissedHeartbeats = %d, want >= %d", got, DefaultMissedHeartbeatLimit)
	}
	if got := assoc.DeadAssociations.Value(); got != 1 {
		t.Fatalf("DeadAssociations = %d, want 1", got)
	}
}

// TestAgentResubscribe verifies a mid-association subscription request
// updates the cadence and slice filter and is re-acked, instead of being
// silently dropped.
func TestAgentResubscribe(t *testing.T) {
	ricEnd, agent, _ := agentPair(t)
	subscribe(t, ricEnd, 1, 10, nil)
	if _, err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	expectAck(t, ricEnd, 1)
	if got := agent.Period(); got != 10 {
		t.Fatalf("period = %d, want 10", got)
	}

	// Re-subscribe with a new cadence and a slice filter.
	subscribe(t, ricEnd, 2, 25, []uint32{2})
	expectAck(t, ricEnd, 2)
	if got := agent.Period(); got != 25 {
		t.Fatalf("period after re-subscribe = %d, want 25", got)
	}
	if got := agent.Resubscribes(); got != 1 {
		t.Fatalf("resubscribes = %d, want 1", got)
	}

	// The new filter is applied: the next indication carries only slice 2.
	if err := agent.Tick(25); err != nil {
		t.Fatal(err)
	}
	m, err := ricEnd.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != e2.TypeIndication {
		t.Fatalf("got %v, want indication", m.Type)
	}
	if len(m.Indication.Slices) != 1 || m.Indication.Slices[0].SliceID != 2 {
		t.Fatalf("filtered indication slices = %+v, want only slice 2", m.Indication.Slices)
	}
}

// TestAgentRepliesErrorToUnknownType verifies out-of-place messages get a
// TypeError reply instead of a silent drop.
func TestAgentRepliesErrorToUnknownType(t *testing.T) {
	ricEnd, agent, _ := agentPair(t)
	subscribe(t, ricEnd, 1, 10, nil)
	if _, err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	expectAck(t, ricEnd, 1)

	// An indication makes no sense inbound at the agent.
	err := ricEnd.Send(&e2.Message{
		Type: e2.TypeIndication, RequestID: 77, RANFunction: e2.RANFunctionKPM,
		Indication: &e2.Indication{Slot: 1, Cell: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ricEnd.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != e2.TypeError || m.RequestID != 77 {
		t.Fatalf("got %v/%d, want error reply to request 77", m.Type, m.RequestID)
	}
	if !strings.Contains(m.Error.Reason, "unexpected") {
		t.Fatalf("error reason %q does not explain the unexpected type", m.Error.Reason)
	}
}

// TestAgentLivenessDeclaresDead verifies the agent-side watchdog tears the
// association down when the RIC goes silent.
func TestAgentLivenessDeclaresDead(t *testing.T) {
	ricEnd, agent, _ := agentPair(t, AgentConfig{Cell: 1, LivenessTimeout: 10 * time.Millisecond})
	subscribe(t, ricEnd, 1, 10, nil)
	done, err := agent.Start()
	if err != nil {
		t.Fatal(err)
	}
	expectAck(t, ricEnd, 1)
	// Go silent: no heartbeats, nothing.
	select {
	case err := <-done:
		if !errors.Is(err, e2.ErrAssociationDead) {
			t.Fatalf("recv loop returned %v, want ErrAssociationDead", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("agent never declared the silent RIC dead")
	}
}

// TestPluginCodecConcurrent hammers one PluginCodec from concurrent
// encoders and decoders — the e2.Conn contract allows concurrent Send and
// a simultaneous Recv, so the single-threaded plugin underneath must be
// serialized. Run with -race.
func TestPluginCodecConcurrent(t *testing.T) {
	codec, err := NewPluginCodecWAT("pass", plugins.PassthroughCommWAT, e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	msg := &e2.Message{
		Type: e2.TypeIndication, RequestID: 5, RANFunction: e2.RANFunctionKPM,
		Indication: &e2.Indication{
			Slot: 9, Cell: 3,
			Slices: []e2.SliceMeasurement{{SliceID: 1, TargetBps: 10e6, ServedBps: 9e6}},
		},
	}
	wire, err := codec.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if g%2 == 0 {
					if _, err := codec.Encode(msg); err != nil {
						t.Error(err)
						return
					}
				} else {
					got, err := codec.Decode(wire)
					if err != nil {
						t.Error(err)
						return
					}
					if got.Indication == nil || got.Indication.Slot != 9 {
						t.Errorf("concurrent decode corrupted message: %+v", got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBackoffDelay pins the backoff schedule: exponential growth, a hard
// cap, and bounded jitter.
func TestBackoffDelay(t *testing.T) {
	b := Backoff{Initial: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2, Jitter: -1}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.Delay(i, nil); got != w*time.Millisecond {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	j := Backoff{Initial: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2, Jitter: 0.2}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		got := j.Delay(1, rng)
		if got < 16*time.Millisecond || got > 24*time.Millisecond {
			t.Fatalf("jittered Delay(1) = %v, want within ±20%% of 20ms", got)
		}
	}
}

// TestAgentSessionDegradesWithoutRIC verifies the slot loop never stalls
// when no RIC is reachable: Tick returns immediately while the supervisor
// keeps retrying in the background.
func TestAgentSessionDegradesWithoutRIC(t *testing.T) {
	sess, err := NewAgentSession(AgentSessionConfig{
		Dial:    func() (*e2.Conn, error) { return nil, errors.New("no ric anywhere") },
		RAN:     &fakeRAN{},
		Agent:   AgentConfig{Cell: 1},
		Backoff: Backoff{Initial: time.Millisecond, Max: 4 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess.Start()
	defer sess.Stop()
	start := time.Now()
	for slot := uint64(0); slot < 10000; slot++ {
		sess.Tick(slot)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("10000 degraded ticks took %v: the slot loop is stalling on the dead RIC", elapsed)
	}
	if sess.Connected() {
		t.Fatal("session claims to be connected to a nonexistent RIC")
	}
}

// TestE2EFaultyAssociationRecovers drives a real gNB and RIC through a
// fault storm — a half-open association, a forced reset, and a lossy
// connection — and asserts the association is re-established with backoff,
// re-subscribed, and delivering control actions again on the surviving
// connection, while the gNB's slot loop never stalls.
func TestE2EFaultyAssociationRecovers(t *testing.T) {
	gnb, err := core.NewGNB(ran.CellConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := core.NewPluginScheduler("rr", wabi.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	// Over-ambitious target so the SLA xApp emits controls every report.
	slice, err := gnb.Slices.AddSlice(1, "tenant", 100e6, rr, nil)
	if err != nil {
		t.Fatal(err)
	}
	ue := ran.NewUE(1, 1, 20)
	ue.Traffic = ran.NewCBR(3e6)
	if err := gnb.AttachUE(ue); err != nil {
		t.Fatal(err)
	}

	// Liveness is wall clock, so a scheduling stall longer than the silence
	// bound kills an association before its fault fires (under -race on one P
	// a 3 ms heartbeat lost nearly every association that way). Each fault
	// therefore triggers within the first handful of writes — the handshake
	// and the first report or two — and the heartbeat leaves 30 ms of silence
	// before either side gives up.
	res, err := RunE2Faults(E2FaultsConfig{
		Slots:     2000,
		Heartbeat: 10 * time.Millisecond,
		Pacing:    100 * time.Microsecond,
		Seed:      7,
		Faults: []e2.FaultConfig{
			{BlackholeAfterWrites: 7}, // half-open: only liveness catches it
			{ResetAfterWrites: 9},     // abrupt reset mid-association
			{DropProb: 0.5},           // lossy: desyncs the RIC's framing
		},
	}, gnb, func(uint64) { gnb.Step() })
	if err != nil {
		t.Fatal(err)
	}

	if res.Associations < 4 {
		t.Fatalf("associations = %d, want >= 4 (three faulty conns plus a clean survivor)", res.Associations)
	}
	if res.Assoc.Reconnects < 3 {
		t.Fatalf("reconnects = %d, want >= 3", res.Assoc.Reconnects)
	}
	if res.Assoc.MissedHeartbeats < DefaultMissedHeartbeatLimit {
		t.Fatalf("missed heartbeats = %d, want >= %d (the half-open conn is only catchable by liveness)",
			res.Assoc.MissedHeartbeats, DefaultMissedHeartbeatLimit)
	}
	if res.Assoc.DeadAssociations < 1 {
		t.Fatalf("dead associations = %d, want >= 1", res.Assoc.DeadAssociations)
	}
	if res.Assoc.DegradedMs <= 0 {
		t.Fatal("no degraded time recorded across three teardowns")
	}
	if res.FaultBlackholes < 1 || res.FaultResets < 1 || res.FaultDrops < 1 {
		t.Fatalf("fault mix not exercised: %+v", res)
	}
	if res.FinalAssocControlsOK == 0 {
		t.Fatal("no control was applied on the surviving association: recovery unproven")
	}
	if res.Resubscribes != 0 {
		// Re-subscription here happens via fresh associations; explicit
		// mid-association re-subscribe is covered by TestAgentResubscribe.
		t.Logf("mid-association resubscribes: %d", res.Resubscribes)
	}
	// The SLA xApp's guidance landed after recovery: the under-target
	// slice runs boosted.
	if w := slice.Weight(); w != 2.0 {
		t.Fatalf("slice weight = %v, want 2.0 (xApp control applied post-recovery)", w)
	}
}
