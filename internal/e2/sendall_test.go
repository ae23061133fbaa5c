package e2

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// writeLog is a net.Conn that keeps each Write as its own chunk, so a test
// can tell one write carrying three frames from three writes.
type writeLog struct {
	nullConn
	writes [][]byte
}

func (w *writeLog) Write(b []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), b...))
	return len(b), nil
}

// mixedMessages is one of every reply and request shape a multi-frame send
// carries in practice: an indication, three controls, their acks (one
// refused, with a reason), a heartbeat echo and an error report.
func mixedMessages() []*Message {
	ms := []*Message{sendBenchMessage()}
	for i := uint32(0); i < 3; i++ {
		ms = append(ms, &Message{
			Type: TypeControlRequest, RequestID: 101 + i, RANFunction: RANFunctionRC,
			Control: &ControlRequest{Action: ActionSetSliceWeight, SliceID: 1 + i, Value: 2},
		})
	}
	for i := uint32(0); i < 3; i++ {
		ack := &ControlAck{Accepted: i != 1}
		if i == 1 {
			ack.Reason = "slice 2 unknown"
		}
		ms = append(ms, &Message{Type: TypeControlAck, RequestID: 101 + i, RANFunction: RANFunctionRC, ControlAck: ack})
	}
	return append(ms,
		&Message{Type: TypeHeartbeat},
		&Message{Type: TypeError, RequestID: 7, Error: &ErrorBody{Reason: "agent: unexpected busy"}},
	)
}

// TestSendAllIsSendOneAtATime pins the wire identity of the one-write send
// path: SendAll puts exactly the bytes of the same messages sent one at a
// time on the wire, in one Write, and counts the same frames and bytes. It
// covers both encode paths — JSONCodec has no AppendEncoder.
func TestSendAllIsSendOneAtATime(t *testing.T) {
	if _, ok := Codec(JSONCodec{}).(AppendEncoder); ok {
		t.Fatal("JSONCodec gained AppendEncode: pick another codec for the fallback path")
	}
	for _, codec := range []Codec{BinaryCodec{}, VarintCodec{}, JSONCodec{}} {
		ms := mixedMessages()
		oneLog, allLog := &writeLog{}, &writeLog{}
		one, all := NewConn(oneLog, codec), NewConn(allLog, codec)
		for _, m := range ms {
			if err := one.Send(m); err != nil {
				t.Fatalf("%s: Send: %v", codec.Name(), err)
			}
		}
		if err := all.SendAll(ms...); err != nil {
			t.Fatalf("%s: SendAll: %v", codec.Name(), err)
		}
		if len(oneLog.writes) != len(ms) || len(allLog.writes) != 1 {
			t.Fatalf("%s: %d writes one at a time and %d for SendAll, want %d and 1",
				codec.Name(), len(oneLog.writes), len(allLog.writes), len(ms))
		}
		if want := bytes.Join(oneLog.writes, nil); !bytes.Equal(allLog.writes[0], want) {
			t.Fatalf("%s: SendAll wrote %d bytes that differ from the %d bytes of one-at-a-time sends",
				codec.Name(), len(allLog.writes[0]), len(want))
		}
		if got, want := all.Stats(), one.Stats(); got != want || got.Sent != uint64(len(ms)) {
			t.Fatalf("%s: SendAll stats %+v, one at a time %+v (want Sent %d)", codec.Name(), got, want, len(ms))
		}
	}
}

// TestSendAllEncodeErrorWritesNothing pins the all-or-nothing rule: a
// message that fails to encode part-way through a list fails the whole
// send before anything reaches the wire or the counters, and the
// association's buffer is still good for the next send.
func TestSendAllEncodeErrorWritesNothing(t *testing.T) {
	for _, codec := range []Codec{BinaryCodec{}, VarintCodec{}, JSONCodec{}} {
		log := &writeLog{}
		conn := NewConn(log, codec)
		good := sendBenchMessage()
		bad := &Message{Type: TypeControlRequest, RequestID: 2} // no body: Validate refuses it
		if err := conn.SendAll(good, good, bad, good); err == nil {
			t.Fatalf("%s: SendAll with an unencodable message succeeded", codec.Name())
		}
		if len(log.writes) != 0 || conn.Stats() != (ConnStats{}) {
			t.Fatalf("%s: failed SendAll wrote %d chunks, stats %+v; want nothing", codec.Name(), len(log.writes), conn.Stats())
		}
		if err := conn.Send(good); err != nil {
			t.Fatalf("%s: Send after a failed SendAll: %v", codec.Name(), err)
		}
		ref := &writeLog{}
		if err := NewConn(ref, codec).Send(good); err != nil {
			t.Fatal(err)
		}
		if len(log.writes) != 1 || !bytes.Equal(log.writes[0], ref.writes[0]) {
			t.Fatalf("%s: the send after a failed SendAll wrote other bytes than a fresh association's", codec.Name())
		}
	}
}

// TestSendAllAllocsPinned extends TestSendAllocsPinned to the multi-frame
// path: once the buffer has grown, a list of frames costs no allocation
// either.
func TestSendAllAllocsPinned(t *testing.T) {
	conn := NewConn(nullConn{}, BinaryCodec{})
	ms := mixedMessages()
	for i := 0; i < 4; i++ {
		if err := conn.SendAll(ms...); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := conn.SendAll(ms...); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SendAll allocates %.1f objects per list, want 0", allocs)
	}
}

// TestFrameBuffered pins the readiness test the agent's reply flush relies
// on: true only once every byte of the next frame has been read off the
// network, and it never blocks.
func TestFrameBuffered(t *testing.T) {
	frames := &writeLog{}
	if err := NewConn(frames, BinaryCodec{}).SendAll(sendBenchMessage(), &Message{Type: TypeHeartbeat}); err != nil {
		t.Fatal(err)
	}
	wire := frames.writes[0]
	first := 4 + int(binary.BigEndian.Uint32(wire))
	for _, tc := range []struct {
		name string
		have int // bytes of wire the peer has sent
		want bool
	}{
		{"nothing", 0, false},
		{"part of the header", 2, false},
		{"header only", 4, false},
		{"all but one byte", first - 1, false},
		{"exactly one frame", first, true},
		{"one frame and half the next", first + 3, true},
	} {
		conn := NewConn(&replayConn{data: wire[:tc.have]}, BinaryCodec{})
		if tc.have > 0 {
			// Pull what the peer sent into the reader without consuming it.
			_, _ = conn.br.Peek(1)
		}
		if got := conn.FrameBuffered(); got != tc.want {
			t.Errorf("%s: FrameBuffered = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// replayConn serves data to reads, then reports io.EOF.
type replayConn struct {
	nullConn
	data []byte
}

func (r *replayConn) Read(b []byte) (int, error) {
	if len(r.data) == 0 {
		return nullConn{}.Read(b)
	}
	n := copy(b, r.data)
	r.data = r.data[n:]
	return n, nil
}
