package ric

import (
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"waran/internal/e2"
	"waran/internal/plugins"
	"waran/internal/wabi"
)

// writeTap is a net.Conn that hands a copy of every Write to writes, so a
// test can count the writes an endpoint makes and the frames each carries.
type writeTap struct {
	net.Conn
	writes chan []byte
}

func newWriteTap(c net.Conn) *writeTap { return &writeTap{Conn: c, writes: make(chan []byte, 64)} }

func (w *writeTap) Write(b []byte) (int, error) {
	n, err := w.Conn.Write(b)
	w.writes <- append([]byte(nil), b...)
	return n, err
}

// next returns the tapped endpoint's next write.
func (w *writeTap) next(t *testing.T, what string) []byte {
	t.Helper()
	select {
	case b := <-w.writes:
		return b
	case <-time.After(5 * time.Second):
		t.Fatalf("no write for %s", what)
		return nil
	}
}

// frameTypes decodes the length-prefixed frames of one write.
func frameTypes(t *testing.T, b []byte) []e2.MessageType {
	t.Helper()
	var types []e2.MessageType
	for len(b) > 0 {
		n := int(binary.BigEndian.Uint32(b))
		m, err := e2.BinaryCodec{}.Decode(b[4 : 4+n])
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, m.Type)
		b = b[4+n:]
	}
	return types
}

// threeSliceRAN reports three slices far below target, so the SLA xApp
// answers every indication with three weight controls.
type threeSliceRAN struct{ fakeRAN }

func (*threeSliceRAN) Snapshot(cell uint32) *e2.Indication {
	ind := &e2.Indication{Cell: cell}
	for id := uint32(1); id <= 3; id++ {
		ind.Slices = append(ind.Slices, e2.SliceMeasurement{SliceID: id, TargetBps: 10e6, ServedBps: 1e6})
	}
	return ind
}

// TestIndicationRoundTripWrites pins the write rule end to end over a
// synchronous pipe: an indication that draws three parameter controls costs
// the agent one write and the RIC one, and the agent answers none of them —
// its next write is the next indication, which carries their effect.
func TestIndicationRoundTripWrites(t *testing.T) {
	r := MustNew(Config{ReportPeriodMs: 1})
	if _, err := r.AddXAppWAT("sla", plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
		t.Fatal(err)
	}
	agentEnd, ricEnd := net.Pipe()
	agentTap, ricTap := newWriteTap(agentEnd), newWriteTap(ricEnd)
	stop := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- r.ServeConn(e2.NewConn(ricTap, e2.BinaryCodec{}), stop) }()
	t.Cleanup(func() { close(stop); <-served; agentEnd.Close() })

	ran := &threeSliceRAN{}
	agent, err := NewAgent(e2.NewConn(agentTap, e2.BinaryCodec{}), ran, AgentConfig{Cell: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	if got := frameTypes(t, ricTap.next(t, "the subscription")); len(got) != 1 || got[0] != e2.TypeSubscriptionRequest {
		t.Fatalf("RIC's first write carries %v, want one subscription request", got)
	}
	if got := frameTypes(t, agentTap.next(t, "the subscription ack")); len(got) != 1 || got[0] != e2.TypeSubscriptionResponse {
		t.Fatalf("agent's first write carries %v, want one subscription response", got)
	}

	if err := agent.Tick(0); err != nil {
		t.Fatal(err)
	}
	if got := frameTypes(t, agentTap.next(t, "the indication")); len(got) != 1 || got[0] != e2.TypeIndication {
		t.Fatalf("agent's indication write carries %v, want one indication", got)
	}
	controls := frameTypes(t, ricTap.next(t, "the controls"))
	if len(controls) != 3 {
		t.Fatalf("RIC's control write carries %v, want all 3 controls", controls)
	}
	for _, ty := range controls {
		if ty != e2.TypeControlRequest {
			t.Fatalf("RIC's control write carries %v", controls)
		}
	}
	waitApplied(t, agent, 3)
	if err := agent.Tick(1); err != nil {
		t.Fatal(err)
	}
	if got := frameTypes(t, agentTap.next(t, "the next indication")); len(got) != 1 || got[0] != e2.TypeIndication {
		t.Fatalf("agent's write after three applied controls carries %v, want the next indication alone", got)
	}
	if got := frameTypes(t, ricTap.next(t, "the next controls")); len(got) != 3 {
		t.Fatalf("RIC's second control write carries %v, want 3 controls", got)
	}
	// The agent has read the second three controls, so it would have
	// written any reply to the first three by now.
	waitApplied(t, agent, 6)
	select {
	case b := <-agentTap.writes:
		t.Fatalf("agent wrote %v beyond its two indications", frameTypes(t, b))
	default:
	}
	if _, _, fail := agent.Counters(); fail != 0 {
		t.Fatalf("%d controls failed", fail)
	}
}

// waitApplied waits until agent has applied n controls.
func waitApplied(t *testing.T, agent *Agent, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, ok, fail := agent.Counters()
		if ok+fail >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("agent handled %d controls, want %d", ok+fail, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// pipedAgent starts an agent on ran behind a synchronous pipe and
// subscribes it; the returned raw end writes bytes of the test's choosing,
// ric reads what the agent sends.
func pipedAgent(t *testing.T, ran RANControl) (raw net.Conn, ric *e2.Conn) {
	t.Helper()
	agentEnd, raw := net.Pipe()
	t.Cleanup(func() { raw.Close(); agentEnd.Close() })
	agent, err := NewAgent(e2.NewConn(agentEnd, e2.BinaryCodec{}), ran, AgentConfig{Cell: 1})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan error, 1)
	go func() {
		_, err := agent.Start()
		started <- err
	}()
	ric = e2.NewConn(raw, e2.BinaryCodec{})
	// A withheld reply fails the test here instead of hanging it.
	if err := raw.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	sub := &e2.Message{Type: e2.TypeSubscriptionRequest, RequestID: 1, RANFunction: e2.RANFunctionKPM,
		Subscription: &e2.SubscriptionRequest{ReportPeriodMs: 1000}}
	if err := ric.Send(sub); err != nil {
		t.Fatal(err)
	}
	if m := recvType(t, ric); m.Type != e2.TypeSubscriptionResponse {
		t.Fatalf("got %s, want the subscription response", m.Type)
	}
	if err := <-started; err != nil {
		t.Fatal(err)
	}
	return raw, ric
}

func recvType(t *testing.T, c *e2.Conn) *e2.Message {
	t.Helper()
	m, err := c.Recv()
	if err != nil {
		t.Fatalf("waiting for the agent's reply: %v", err)
	}
	return m
}

// swapTo is a scheduler swap, a control the agent always answers.
var swapTo = e2.ControlRequest{Action: e2.ActionSwapScheduler, SliceID: 1, Text: "pf"}

// controlFrame encodes control c, numbered reqID, as its wire frame.
func controlFrame(t *testing.T, reqID uint32, c e2.ControlRequest) []byte {
	t.Helper()
	sink := &frameSink{}
	m := &e2.Message{Type: e2.TypeControlRequest, RequestID: reqID, RANFunction: e2.RANFunctionRC, Control: &c}
	if err := e2.NewConn(sink, e2.BinaryCodec{}).Send(m); err != nil {
		t.Fatal(err)
	}
	return sink.b
}

// frameSink is a net.Conn that keeps what is written to it.
type frameSink struct {
	net.Conn
	b []byte
}

func (s *frameSink) Write(b []byte) (int, error) {
	s.b = append(s.b, b...)
	return len(b), nil
}

// TestLoneControlIsAcked: a control followed by silence is answered — the
// agent does not hold its ack for a frame that is not coming.
func TestLoneControlIsAcked(t *testing.T) {
	ran := &fakeRAN{}
	raw, ric := pipedAgent(t, ran)
	if _, err := raw.Write(controlFrame(t, 7, swapTo)); err != nil {
		t.Fatal(err)
	}
	m := recvType(t, ric)
	if m.Type != e2.TypeControlAck || m.RequestID != 7 || !m.ControlAck.Accepted {
		t.Fatalf("got %s #%d %+v, want the accepted ack of control 7", m.Type, m.RequestID, m.ControlAck)
	}
	ran.mu.Lock()
	defer ran.mu.Unlock()
	if len(ran.applied) != 1 {
		t.Fatalf("applied %d controls, want 1", len(ran.applied))
	}
}

// TestAckNotHeldBehindHalfFrame: a control whose successor has only half
// arrived is answered at once, not when the rest of the successor lands.
func TestAckNotHeldBehindHalfFrame(t *testing.T) {
	raw, ric := pipedAgent(t, &fakeRAN{})
	first, second := controlFrame(t, 7, swapTo), controlFrame(t, 8, swapTo)
	half := len(second) / 2
	// One write, so the agent's reader holds both parts at once.
	if _, err := raw.Write(append(append([]byte(nil), first...), second[:half]...)); err != nil {
		t.Fatal(err)
	}
	if m := recvType(t, ric); m.Type != e2.TypeControlAck || m.RequestID != 7 {
		t.Fatalf("got %s #%d, want the ack of control 7", m.Type, m.RequestID)
	}
	if _, err := raw.Write(second[half:]); err != nil {
		t.Fatal(err)
	}
	if m := recvType(t, ric); m.Type != e2.TypeControlAck || m.RequestID != 8 {
		t.Fatalf("got %s #%d, want the ack of control 8", m.Type, m.RequestID)
	}
}

// refusingRAN refuses every control, as a gNB refuses one for a slice it
// does not have.
type refusingRAN struct{ fakeRAN }

func (*refusingRAN) Apply(c *e2.ControlRequest) error {
	return fmt.Errorf("slice %d unknown", c.SliceID)
}

// TestRefusedParameterControlIsNacked: a parameter control that applied
// goes unanswered, but one the RAN refuses is answered with the reason, and
// only it.
func TestRefusedParameterControlIsNacked(t *testing.T) {
	raw, ric := pipedAgent(t, &refusingRAN{})
	weight := e2.ControlRequest{Action: e2.ActionSetSliceWeight, SliceID: 9, Value: 2}
	if _, err := raw.Write(controlFrame(t, 7, weight)); err != nil {
		t.Fatal(err)
	}
	m := recvType(t, ric)
	if m.Type != e2.TypeControlAck || m.RequestID != 7 || m.ControlAck.Accepted {
		t.Fatalf("got %s #%d %+v, want the refusal of control 7", m.Type, m.RequestID, m.ControlAck)
	}
	if want := "slice 9 unknown"; m.ControlAck.Reason != want {
		t.Fatalf("refusal reason %q, want %q", m.ControlAck.Reason, want)
	}
}

// TestAppliedParameterControlIsNotAcked: of a weight control and a swap
// that both applied, only the swap is answered.
func TestAppliedParameterControlIsNotAcked(t *testing.T) {
	raw, ric := pipedAgent(t, &fakeRAN{})
	weight := e2.ControlRequest{Action: e2.ActionSetSliceWeight, SliceID: 1, Value: 2}
	frames := append(controlFrame(t, 7, weight), controlFrame(t, 8, swapTo)...)
	if _, err := raw.Write(frames); err != nil {
		t.Fatal(err)
	}
	if m := recvType(t, ric); m.Type != e2.TypeControlAck || m.RequestID != 8 || !m.ControlAck.Accepted {
		t.Fatalf("got %s #%d, want the ack of the swap (control 8) alone", m.Type, m.RequestID)
	}
}
