package ric

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"waran/internal/e2"
	"waran/internal/obs/trace"
)

// The association core is driven here by a synthetic clock: every event is
// stamped at t0 plus a fixed offset, so these tests read no wall clock and
// start no goroutine (TestAssocCoreIsSansIO checks this file too).

var t0 = time.Unix(1_000_000, 0)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// assocStep is one event at t0+at and the actions it must produce.
type assocStep struct {
	at   time.Duration
	ev   assocEvent
	want []string
}

func connect() assocEvent { return assocEvent{kind: evConnect} }
func frame(m *e2.Message) assocEvent {
	return assocEvent{kind: evFrame, msg: m}
}
func tick(frames uint64) assocEvent { return assocEvent{kind: evTimer, frames: frames} }
func recvErr(err error) assocEvent  { return assocEvent{kind: evError, err: err} }

func subReq(reqID, periodMs uint32, fn uint32, slices ...uint32) *e2.Message {
	return &e2.Message{Type: e2.TypeSubscriptionRequest, RequestID: reqID, RANFunction: fn,
		Subscription: &e2.SubscriptionRequest{ReportPeriodMs: periodMs, SliceIDs: slices}}
}

// describe renders actions with times relative to t0.
func describe(acts []action) []string {
	out := []string{}
	for _, a := range acts {
		var s string
		switch a.kind {
		case actSend:
			s = "send " + a.msg.Type.String()
			switch {
			case a.msg.SubscriptionResp != nil:
				s += fmt.Sprintf(" %q", a.msg.SubscriptionResp.Reason)
			case a.msg.Subscription != nil:
				s += fmt.Sprintf(" %dms fn=%#x", a.msg.Subscription.ReportPeriodMs, a.msg.RANFunction)
			case a.msg.Error != nil:
				s += fmt.Sprintf(" #%d %q", a.msg.RequestID, a.msg.Error.Reason)
			}
		case actArm:
			s = fmt.Sprintf("arm +%v", a.at.Sub(t0))
		case actMiss:
			s = "miss"
		case actSubscribed:
			u := a.sub
			s = fmt.Sprintf("subscribed period=%d slices=%v resub=%v", u.periodSlots, u.sliceIDs, u.resub)
		case actPause:
			s = fmt.Sprintf("pause until +%v", a.at.Sub(t0))
		case actClose:
			s = fmt.Sprintf("close: %v", a.err)
		case actEnd:
			s = fmt.Sprintf("end: %v", a.err)
		}
		out = append(out, s)
	}
	return out
}

// runCore feeds steps to a fresh core and checks every action list; it
// returns the error of the last action.
func runCore(t *testing.T, p assocParams, steps []assocStep) error {
	t.Helper()
	c := &assocCore{p: p}
	var last error
	for i, st := range steps {
		acts := c.Step(t0.Add(st.at), st.ev, nil)
		if got := describe(acts); !reflect.DeepEqual(got, append([]string{}, st.want...)) {
			t.Fatalf("step %d (+%v):\n got  %q\n want %q", i, st.at, got, st.want)
		}
		if n := len(acts); n > 0 {
			last = acts[n-1].err
		}
	}
	return last
}

const dead = "e2: association dead: missed heartbeats"

var ricP = assocParams{ric: true, period: ms(10), limit: 3, reportPeriodMs: 10}

func TestAssocParamsFromConfig(t *testing.T) {
	if got := ricParams(Config{HeartbeatInterval: ms(10), ReportPeriodMs: 10}.withDefaults()); got != ricP {
		t.Fatalf("ricParams = %+v, want %+v", got, ricP)
	}
	want := assocParams{period: ms(5), limit: 4}
	if got := agentParams(AgentConfig{LivenessTimeout: ms(20)}); got != want {
		t.Fatalf("agentParams = %+v, want %+v", got, want)
	}
	if got := agentParams(AgentConfig{}); got != (assocParams{}) {
		t.Fatalf("agentParams without liveness = %+v, want no timer", got)
	}
}

// TestAssocRICProbesAndDeclaresDead: the RIC probes every interval, a
// frame in an interval clears the miss count, and heartbeatMisses
// intervals in a row without one end the association.
func TestAssocRICProbesAndDeclaresDead(t *testing.T) {
	probe := []string{"send heartbeat"}
	err := runCore(t, ricP, []assocStep{
		{0, connect(), []string{"send subscription-request 10ms fn=0x2", "arm +10ms"}},
		{ms(4), frame(&e2.Message{Type: e2.TypeSubscriptionResponse,
			SubscriptionResp: &e2.SubscriptionResponse{Accepted: true}}), nil},
		{ms(10), tick(1), append(probe, "arm +20ms")},
		{ms(5), tick(1), []string{"arm +20ms"}}, // early: re-armed, not checked
		{ms(20), tick(1), append([]string{"miss"}, append(probe, "arm +30ms")...)},
		{ms(30), tick(2), append(probe, "arm +40ms")}, // the echo cleared the miss
		{ms(40), tick(2), append([]string{"miss"}, append(probe, "arm +50ms")...)},
		{ms(50), tick(2), append([]string{"miss"}, append(probe, "arm +60ms")...)},
		{ms(60), tick(2), []string{"miss", "close: " + dead}},
		{ms(61), tick(2), nil}, // ended: the timer is inert
		{ms(61), recvErr(net.ErrClosed), []string{"end: " + dead}},
	})
	if !errors.Is(err, e2.ErrAssociationDead) {
		t.Fatalf("end error %v, want e2.ErrAssociationDead", err)
	}
}

// TestAssocRICHandshake: the subscription asks for KPM and nothing else,
// an acceptance only counts as a frame, and a refusal, a peer error, stop
// and EOF each end the association.
func TestAssocRICHandshake(t *testing.T) {
	plain := assocParams{ric: true, reportPeriodMs: 100}
	runCore(t, plain, []assocStep{
		{0, connect(), []string{"send subscription-request 100ms fn=0x2"}}, // no heartbeat: no timer
		{0, frame(&e2.Message{Type: e2.TypeSubscriptionResponse, RANFunction: e2.RANFunctionKPM,
			SubscriptionResp: &e2.SubscriptionResponse{Accepted: true}}), nil},
		{0, frame(&e2.Message{Type: e2.TypeHeartbeat}), nil},
		{0, frame(&e2.Message{Type: e2.TypeBusy, Busy: &e2.BusyBody{RetryAfterMs: 5}}), nil},
		{0, assocEvent{kind: evStop}, []string{"close: <nil>"}},
		{0, recvErr(net.ErrClosed), []string{"end: <nil>"}},
	})
	runCore(t, plain, []assocStep{
		{0, connect(), []string{"send subscription-request 100ms fn=0x2"}},
		{0, frame(&e2.Message{Type: e2.TypeSubscriptionResponse,
			SubscriptionResp: &e2.SubscriptionResponse{Reason: "no slices"}}),
			[]string{"end: ric: subscription refused: no slices"}},
	})
	runCore(t, ricP, []assocStep{
		{0, connect(), []string{"send subscription-request 10ms fn=0x2", "arm +10ms"}},
		{0, frame(&e2.Message{Type: e2.TypeError, Error: &e2.ErrorBody{Reason: "bad"}}),
			[]string{"end: ric: peer error: bad"}},
	})
	runCore(t, ricP, []assocStep{
		{0, connect(), []string{"send subscription-request 10ms fn=0x2", "arm +10ms"}},
		{0, recvErr(io.EOF), []string{"end: <nil>"}},
	})
}

var agentP = agentParams(AgentConfig{LivenessTimeout: ms(20)})

// TestAssocAgentDeclaresDead: after its subscription the agent checks
// every LivenessTimeout/4, echoes probes, and ends the association after
// four checks in a row that saw no frame.
func TestAssocAgentDeclaresDead(t *testing.T) {
	err := runCore(t, agentP, []assocStep{
		{0, connect(), []string{"arm +40ms"}},
		{ms(1), frame(subReq(1, 10, e2.RANFunctionKPM)), []string{
			"subscribed period=10 slices=[] resub=false",
			`send subscription-response ""`, "arm +6ms"}},
		{ms(6), tick(1), []string{"arm +11ms"}},
		{ms(8), frame(&e2.Message{Type: e2.TypeHeartbeat}), []string{"send heartbeat"}},
		{ms(11), tick(2), []string{"arm +16ms"}},
		{ms(16), tick(2), []string{"miss", "arm +21ms"}},
		{ms(21), tick(2), []string{"miss", "arm +26ms"}},
		{ms(26), tick(2), []string{"miss", "arm +31ms"}},
		{ms(31), tick(2), []string{"miss", "close: " + dead}},
		{ms(32), recvErr(net.ErrClosed), []string{"end: " + dead}},
	})
	if !errors.Is(err, e2.ErrAssociationDead) {
		t.Fatalf("end error %v, want e2.ErrAssociationDead", err)
	}
}

// TestAssocAgentSubscriptionWait: a RIC that has not subscribed within two
// liveness timeouts ends the association, and Start reports why.
func TestAssocAgentSubscriptionWait(t *testing.T) {
	const why = "close: ric: agent: waiting for subscription: no subscription request within the wait bound"
	err := runCore(t, agentP, []assocStep{
		{0, connect(), []string{"arm +40ms"}},
		{ms(39), tick(0), []string{"arm +40ms"}},
		{ms(40), tick(0), []string{why}},
		{ms(40), recvErr(net.ErrClosed), []string{"end" + why[len("close"):]}},
	})
	if !errors.Is(err, errNoSubscription) {
		t.Fatalf("end error %v, want errNoSubscription", err)
	}
	// Without a liveness bound the wait is unbounded, and a conn that dies
	// first still fails the handshake.
	runCore(t, agentParams(AgentConfig{}), []assocStep{
		{0, connect(), nil},
		{ms(5), recvErr(io.EOF), []string{"end: ric: agent: waiting for subscription: EOF"}},
	})
}

// TestAssocAgentRefusesFirstFrame: a first frame that is not a subscription
// is answered with an error and fails the handshake; a busy refusal becomes
// an *e2.BusyError carrying the hint.
func TestAssocAgentRefusesFirstFrame(t *testing.T) {
	runCore(t, agentP, []assocStep{
		{0, connect(), []string{"arm +40ms"}},
		{ms(1), frame(&e2.Message{Type: e2.TypeHeartbeat}), []string{
			`send error #0 "expected subscription-request"`,
			"end: ric: agent: unexpected first message heartbeat"}},
	})
	err := runCore(t, agentP, []assocStep{
		{0, connect(), []string{"arm +40ms"}},
		{ms(1), frame(e2.NewBusyMessage(ms(200), "ric: admission")),
			[]string{"end: e2: peer busy (retry after 200ms): ric: admission"}},
	})
	var busy *e2.BusyError
	if !errors.As(err, &busy) || busy.RetryAfter != ms(200) {
		t.Fatalf("end error %v, want *e2.BusyError with a 200ms hint", err)
	}
}

// TestAssocAgentResubscribes: a mid-association subscription replaces the
// cadence and slice filter and is re-acked without touching the timer;
// busy frames pause reporting, and anything else out of place is answered
// with an error. A traced, batching agent answers exactly as a plain one:
// there is nothing to negotiate.
func TestAssocAgentResubscribes(t *testing.T) {
	for _, cfg := range []AgentConfig{{}, {Tracer: trace.NewTracer(8), Batch: BatchConfig{Window: 8}}} {
		runCore(t, agentParams(cfg), []assocStep{
			{0, connect(), nil},
			{0, frame(subReq(1, 0, e2.RANFunctionKPM)), []string{
				"subscribed period=100 slices=[] resub=false", `send subscription-response ""`}},
			{ms(50), frame(subReq(2, 25, e2.RANFunctionKPM, 2)), []string{
				"subscribed period=25 slices=[2] resub=true", `send subscription-response ""`}},
			{ms(60), frame(e2.NewBusyMessage(ms(80), "brownout")), []string{"pause until +140ms"}},
			{ms(61), frame(&e2.Message{Type: e2.TypeIndication, RequestID: 77}),
				[]string{`send error #77 "agent: unexpected indication"`}},
			{ms(62), recvErr(io.ErrUnexpectedEOF), []string{"end: unexpected EOF"}},
		})
	}
}

// TestAssocBackoffSchedule: the ceiling doubles per attempt up to Max, each
// delay is drawn below it, a busy hint is jittered into [hint/2, 1.5·hint)
// and replaces a shorter delay, and reset starts over.
func TestAssocBackoffSchedule(t *testing.T) {
	s := newRetrySchedule(Backoff{Initial: ms(1), Max: ms(6)}, 9)
	for attempt, ceiling := range []time.Duration{ms(1), ms(2), ms(4), ms(6), ms(6)} {
		if s.attempt != attempt || s.ceiling() != ceiling {
			t.Fatalf("attempt %d: ceiling %v, want %v", s.attempt, s.ceiling(), ceiling)
		}
		if d := s.next(errors.New("refused")); d < 0 || d >= ceiling {
			t.Fatalf("attempt %d: delay %v, want in [0, %v)", attempt, d, ceiling)
		}
	}
	s.reset()
	if s.ceiling() != ms(1) {
		t.Fatalf("ceiling after reset = %v, want 1ms", s.ceiling())
	}
	lo, hi := ms(1000), time.Duration(0)
	for i := 0; i < 500; i++ {
		s.reset()
		d := s.next(fmt.Errorf("handshake: %w", &e2.BusyError{RetryAfter: ms(200)}))
		lo, hi = min(lo, d), max(hi, d)
	}
	if lo < ms(100) || hi >= ms(300) || hi-lo < ms(150) {
		t.Fatalf("busy-hinted delays span [%v, %v], want spread across [100ms, 300ms)", lo, hi)
	}
	if d := s.next(&e2.BusyError{}); d >= s.b.Max {
		t.Fatalf("a zero hint waited %v, want the plain delay", d)
	}
}

// TestAssocCoreIsSansIO keeps the association core and the brownout rule
// free of I/O: their files and tests start no goroutine, read no clock and
// never name e2.Conn, so every lifecycle and brownout rule can be driven by
// a synthetic clock.
func TestAssocCoreIsSansIO(t *testing.T) {
	clock := map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true,
		"NewTimer": true, "NewTicker": true, "After": true, "AfterFunc": true, "Tick": true}
	for _, name := range []string{"assoc.go", "assoc_test.go", "brownout.go", "brownout_test.go"} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement", fset.Position(n.Pos()))
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok {
					if pkg.Name == "time" && clock[n.Sel.Name] || pkg.Name == "e2" && n.Sel.Name == "Conn" {
						t.Errorf("%s: %s.%s", fset.Position(n.Pos()), pkg.Name, n.Sel.Name)
					}
				}
			}
			return true
		})
	}
}
