package ric

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waran/internal/e2"
	"waran/internal/plugins"
)

// fakeRAN is a minimal RANControl for agent-level tests.
type fakeRAN struct {
	mu      sync.Mutex
	applied []e2.ControlRequest
}

func (f *fakeRAN) Snapshot(cell uint32) *e2.Indication {
	return &e2.Indication{
		Cell: cell,
		UEs: []e2.UEMeasurement{
			{UEID: 1, SliceID: 1, MCS: 10},
			{UEID: 2, SliceID: 2, MCS: 10},
			{UEID: 3, SliceID: 2, MCS: 10},
		},
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
	if got := assoc.MissedHeartbeats.Value(); got < heartbeatMisses {
		t.Fatalf("MissedHeartbeats = %d, want >= %d", got, heartbeatMisses)
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
	if ues := m.Indication.UEs; len(ues) != 2 || ues[0].UEID != 2 || ues[1].UEID != 3 {
		t.Fatalf("filtered indication UEs = %+v, want UEs 2 and 3 of slice 2", ues)
	}
}

// TestFilterIndicationAllocs pins a slice-filtered report's cost on the
// agent: the indication and its two row lists, each sized once, with no
// per-report set and no regrowth however many UEs the cell reports.
func TestFilterIndicationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ind := &e2.Indication{Cell: 1, Slices: []e2.SliceMeasurement{{SliceID: 1}, {SliceID: 2}, {SliceID: 3}}}
	for i := uint32(0); i < 32; i++ {
		ind.UEs = append(ind.UEs, e2.UEMeasurement{UEID: i, SliceID: i%3 + 1})
	}
	filter := []uint32{2, 3}
	if got := testing.AllocsPerRun(100, func() { filterIndication(ind, filter) }); got > 3 {
		t.Fatalf("%.1f allocs per filtered report, want <= 3", got)
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
	codec, err := NewPluginCodecWAT("widen", plugins.Widen8To12CommWAT, e2.BinaryCodec{})
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

// TestAgentSessionCountsLostWindows: a batch window that dies with its
// write is dropped whole, and each lost indication is counted exactly once —
// whether the write failed in Tick, in teardown's Flush, or the session was
// degraded. The first two associations reset on their third write (the
// handshake reply, one window, then a lost one), so what the RIC's ledger
// was offered plus what the session counts dropped is every due slot
// ticked.
func TestAgentSessionCountsLostWindows(t *testing.T) {
	const ticks = 96
	r, addr := servedRIC(t, Config{ReportPeriodMs: 1})
	var dials atomic.Int32
	sess, err := NewAgentSession(AgentSessionConfig{
		Dial: func() (*e2.Conn, error) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			if dials.Add(1) <= 2 {
				return e2.NewConn(e2.NewFaultConn(raw, e2.FaultConfig{ResetAfterWrites: 3}), e2.BinaryCodec{}), nil
			}
			return e2.NewConn(raw, e2.BinaryCodec{}), nil
		},
		RAN:     &fakeRAN{},
		Agent:   AgentConfig{Cell: 1, Batch: BatchConfig{Window: 4, FlushInterval: time.Hour}},
		Backoff: Backoff{Initial: time.Millisecond, Max: 2 * time.Millisecond},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess.Start()
	deadline := time.Now().Add(5 * time.Second)
	for !sess.Connected() {
		if time.Now().After(deadline) {
			t.Fatal("session never associated")
		}
		time.Sleep(time.Millisecond)
	}
	for slot := uint64(0); slot < ticks; slot++ {
		sess.Tick(slot) // period 1: every slot is due
		time.Sleep(200 * time.Microsecond)
	}
	sess.Stop()
	for r.Stats().LiveAssociations != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the RIC still serves an association after Stop")
		}
		time.Sleep(time.Millisecond)
	}

	ov, _ := r.OverloadStats()
	dropped := sess.cfg.Metrics.Stats().DroppedIndications
	if dials.Load() < 3 || dropped == 0 {
		t.Fatalf("%d dials, %d dropped: the injected resets never cost a window", dials.Load(), dropped)
	}
	if dropped != ticks-ov.Offered {
		t.Fatalf("dropped %d, want %d ticked - %d offered = %d", dropped, ticks, ov.Offered, ticks-ov.Offered)
	}
}
