package ric

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/wabi"
)

// newWidenCodec builds a fresh plugin-wrapped codec instance (each endpoint
// needs its own sandbox).
func newWidenCodec(t *testing.T) e2.Codec {
	t.Helper()
	c, err := NewPluginCodecWAT("widen8to12", plugins.Widen8To12CommWAT, e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEndToEndRICControlsGNB runs the full §4B pipeline over loopback TCP:
// gNB agent streams KPM indications through a vendor-adaptation
// communication plugin; the RIC's Wasm xApps decide handovers and SLA
// boosts; control actions flow back and are applied to the live gNB.
func TestEndToEndRICControlsGNB(t *testing.T) {
	gnb, err := core.NewGNB(ran.CellConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Slice 1 under-target (tiny weight), slice 2 fine.
	mt, err := core.NewPluginScheduler("mt", wabi.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := core.NewPluginScheduler("rr", wabi.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := gnb.Slices.AddSlice(1, "under", 20e6, mt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gnb.Slices.AddSlice(2, "fine", 5e6, rr, nil); err != nil {
		t.Fatal(err)
	}

	// UE 1: healthy. UE 2: at the MCS floor -> traffic steering target.
	ue1 := ran.NewUE(1, 1, 26)
	ue1.Traffic = ran.NewCBR(8e6)
	ue2 := ran.NewUE(2, 2, 2)
	ue2.Traffic = ran.NewCBR(1e6)
	for _, u := range []*ran.UE{ue1, ue2} {
		if err := gnb.AttachUE(u); err != nil {
			t.Fatal(err)
		}
	}

	// RIC with both xApps, listening on loopback.
	r := MustNew(Config{ReportPeriodMs: 20})
	if _, err := r.AddXAppWAT("steer", plugins.TrafficSteerXAppWAT, wabi.Policy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddXAppWAT("sla", plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
		t.Fatal(err)
	}

	lis, err := e2.Listen("127.0.0.1:0", newWidenCodec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	ricErr := make(chan error, 1)
	stop := make(chan struct{})
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			ricErr <- err
			return
		}
		ricErr <- r.ServeConn(conn, stop)
	}()

	conn, err := e2.Dial(lis.Addr().String(), newWidenCodec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	agent, err := NewAgent(conn, gnb, AgentConfig{Cell: 7})
	if err != nil {
		t.Fatal(err)
	}
	agentDone, err := agent.Start()
	if err != nil {
		t.Fatal(err)
	}

	// Drive the MAC loop; the agent reports every 20 slots.
	deadline := time.After(5 * time.Second)
	for slot := 0; ; slot++ {
		gnb.Step()
		if err := agent.Tick(uint64(slot)); err != nil {
			t.Fatalf("tick: %v", err)
		}
		// Success condition: UE 2 handed over (detached) AND slice 1's
		// weight boosted by the SLA xApp.
		_, ue2Present := gnb.UE(2)
		if !ue2Present && s1.Weight() == 2.0 {
			break
		}
		select {
		case <-deadline:
			ind, ok, fail := agent.Counters()
			t.Fatalf("controls not applied in time: ue2Present=%v weight=%v (ind=%d ok=%d fail=%d)",
				ue2Present, s1.Weight(), ind, ok, fail)
		default:
		}
		// Pace slightly so the network round trips interleave.
		if slot%50 == 0 {
			time.Sleep(time.Millisecond)
		}
	}

	close(stop)
	conn.Close()
	<-agentDone
	ind, controls := r.Counters()
	if ind == 0 || controls == 0 {
		t.Fatalf("RIC processed %d indications, emitted %d controls", ind, controls)
	}
}

// TestInterXAppMessaging exercises the ric host functions: the ping xApp
// posts a counter to the pong xApp's mailbox on every indication.
func TestInterXAppMessaging(t *testing.T) {
	r := MustNew(Config{})
	if _, err := r.AddXAppWAT("ping", plugins.PingXAppWAT, wabi.Policy{}); err != nil {
		t.Fatal(err)
	}
	pong, err := r.AddXAppWAT("pong", plugins.PongXAppWAT, wabi.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	ind := &e2.Indication{Slot: 1, Cell: 1}
	for i := 0; i < 3; i++ {
		if got := r.HandleIndication(ind); len(got) != 0 {
			t.Fatalf("unexpected controls: %v", got)
		}
	}
	// ping ran 3 times; pong drained mailbox on invocations 2 and 3, so the
	// last counter it saw is from ping's 3rd run.
	pl, err := pong.Pool().Get()
	if err != nil {
		t.Fatal(err)
	}
	last, err := pl.Instance().Memory().ReadUint32(64) // where xapp_recv left the last message
	pong.Pool().Put(pl)
	if err != nil {
		t.Fatal(err)
	}
	if last != 3 {
		t.Fatalf("pong last_counter = %d, want 3", last)
	}
}

// TestPluginCodecRoundTrip checks the widen shim transforms frames
// reversibly and that the vendor wire format really is 12-bit-widened.
func TestPluginCodecRoundTrip(t *testing.T) {
	codec := newWidenCodec(t)
	msg := &e2.Message{
		Type:        e2.TypeControlRequest,
		RequestID:   9,
		RANFunction: e2.RANFunctionRC,
		Control: &e2.ControlRequest{
			Action: e2.ActionSetSliceTarget, SliceID: 3, Value: 12e6, Text: "x",
		},
	}
	wire, err := codec.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := (e2.BinaryCodec{}).Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != 2*len(plain) {
		t.Fatalf("wire frame %d bytes, want widened %d", len(wire), 2*len(plain))
	}
	// Verify the 12-bit widening of the first byte.
	if got, want := uint16(wire[0])|uint16(wire[1])<<8, uint16(plain[0])<<4; got != want {
		t.Fatalf("first field = %#x, want %#x", got, want)
	}
	back, err := codec.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Control == nil || back.Control.SliceID != 3 || back.Control.Value != 12e6 {
		t.Fatalf("round trip mismatch: %+v", back.Control)
	}
}

// TestServeWatcherExitsWithServe: when Accept fails for a reason other than
// stop (here the listener is closed out from under Serve), Serve returns and
// the goroutine that waits to close the listener on stop exits with it.
func TestServeWatcherExitsWithServe(t *testing.T) {
	watchers := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "ric.(*RIC).Serve.func1(")
	}
	before := watchers()
	lis, err := e2.Listen("127.0.0.1:0", e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	done := make(chan error, 1)
	go func() { done <- MustNew(Config{}).Serve(lis, stop) }()
	lis.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Serve returned nil on a closed listener with stop open")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after its listener closed")
	}
	deadline := time.Now().Add(2 * time.Second)
	for watchers() > before {
		if time.Now().After(deadline) {
			t.Fatalf("Serve returned but its stop watcher is still parked (%d watchers, %d before)", watchers(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// MustNew is New for static configurations known valid at compile time
// (the tests); it panics on a validation error.
func MustNew(cfg Config) *RIC {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}
