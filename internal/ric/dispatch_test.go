package ric

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"

	"waran/internal/e2"
	"waran/internal/plugins"
	"waran/internal/wabi"
)

// discardConn is a net.Conn whose writes succeed and go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

// loopIndication is a ric_loop report: three slices of eight UEs, every
// slice far below its target (the sla xApp boosts all three), every UE
// above the steer xApp's MCS floor (nobody is handed over).
func loopIndication() *e2.Indication {
	ind := &e2.Indication{Slot: 10, Cell: 1}
	for s := uint32(1); s <= 3; s++ {
		for k := uint32(0); k < 8; k++ {
			ind.UEs = append(ind.UEs, e2.UEMeasurement{UEID: s*100 + k, SliceID: s, MCS: 20, BufferBytes: 9000, TputBps: 4e6})
		}
		ind.Slices = append(ind.Slices, e2.SliceMeasurement{SliceID: s, TargetBps: 1e9, ServedBps: 3e7})
	}
	return ind
}

// dispatchAllocs is what one indication costs the dispatcher with the sla
// and steer xApps, up to its controls leaving in one write: the KPM store's
// stamp. The xApps' outputs stay in their instances' buffers and decode
// straight onto the dispatcher's reused control list.
const dispatchAllocs = 1

// TestDispatchAllocsPinned runs indications through an association
// dispatcher's step and pins what a warmed-up one allocates.
func TestDispatchAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	r := MustNew(Config{})
	for _, x := range []struct{ name, src string }{
		{"steer", plugins.TrafficSteerXAppWAT}, {"sla", plugins.SLAAssureXAppWAT},
	} {
		if _, err := r.AddXAppWAT(x.name, x.src, wabi.Policy{}); err != nil {
			t.Fatal(err)
		}
	}
	conn := e2.NewConn(discardConn{}, e2.BinaryCodec{})
	ind := loopIndication()
	var sc dispatchScratch
	reqID := uint32(100)
	step := func() {
		reqID = r.dispatch(conn, queuedInd{ind: ind, enq: time.Now()}, reqID, &sc)
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if sent := conn.Stats().Sent; sent != 64*3 {
		t.Fatalf("64 indications sent %d controls, want the sla xApp's 3 each", sent)
	}
	if got := testing.AllocsPerRun(200, step); got > dispatchAllocs {
		t.Fatalf("%.1f allocs per indication, want <= %d", got, dispatchAllocs)
	}
}

// TestHandleIndicationReturnsOwnList: a direct caller's list is its own,
// not storage a later dispatch reuses.
func TestHandleIndicationReturnsOwnList(t *testing.T) {
	r := MustNew(Config{})
	if _, err := r.AddXAppWAT("sla", plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
		t.Fatal(err)
	}
	first := r.HandleIndication(loopIndication())
	if len(first) == 0 {
		t.Fatal("the sla xApp returned no controls")
	}
	kept := append([]e2.ControlRequest(nil), first...)
	ind := loopIndication()
	ind.Slices = ind.Slices[:1]
	ind.Slices[0].SliceID = 9
	r.HandleIndication(ind)
	if !reflect.DeepEqual(first, kept) {
		t.Fatalf("the list changed under a later dispatch: %+v, was %+v", first, kept)
	}
}

// TestPluginCodecDecodeKeepsNothingOfInput is the e2.Codec no-retain
// contract through the interop shim: a message decoded from a frame that
// is overwritten afterwards re-encodes exactly as one decoded from a
// pristine copy.
func TestPluginCodecDecodeKeepsNothingOfInput(t *testing.T) {
	codec := newWidenCodec(t)
	msgs := []*e2.Message{
		{Type: e2.TypeIndication, RANFunction: e2.RANFunctionKPM, Indication: loopIndication()},
		{Type: e2.TypeControlRequest, RequestID: 9, RANFunction: e2.RANFunctionRC,
			Control: &e2.ControlRequest{Action: e2.ActionSetSliceTarget, SliceID: 3, Value: 12e6, Text: "x", Blob: []byte{1, 2, 3}}},
		{Type: e2.TypeControlAck, RequestID: 9, RANFunction: e2.RANFunctionRC,
			ControlAck: &e2.ControlAck{Reason: "slice 3 unknown"}},
	}
	for _, msg := range msgs {
		wire, err := codec.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		buf := bytes.Clone(wire)
		m, err := codec.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xAA
		}
		ref, err := codec.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		got, err := codec.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := codec.Encode(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v frame: the decoded message changed when its input was overwritten", msg.Type)
		}
	}
}
