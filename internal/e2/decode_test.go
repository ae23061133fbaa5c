package e2

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// pinAllocs fails when a warmed-up step allocates more than limit objects
// per run.
func pinAllocs(t *testing.T, what string, limit float64, step func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for i := 0; i < 16; i++ {
		step()
	}
	if got := testing.AllocsPerRun(200, step); got > limit {
		t.Errorf("%s: %.1f allocs, want <= %.0f", what, got, limit)
	}
}

func mustEncode(t *testing.T, codec Codec, m *Message) []byte {
	t.Helper()
	wire, err := codec.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestDecodeAllocsPinned pins both compact layouts' near-RT frames: an
// indication is its Message and body plus the UE and slice rows, a control
// (no text, no blob) or an ack (no reason) is one object.
func TestDecodeAllocsPinned(t *testing.T) {
	ms := mixedMessages()
	for _, codec := range []Codec{BinaryCodec{}, VarintCodec{}} {
		for _, tc := range []struct {
			name  string
			m     *Message
			limit float64
		}{
			{"indication", ms[0], 3},
			{"control", ms[1], 1},
			{"ack", ms[4], 1},
		} {
			wire := mustEncode(t, codec, tc.m)
			pinAllocs(t, codec.Name()+" "+tc.name, tc.limit, func() {
				if _, err := codec.Decode(wire); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// loopConn serves the same bytes to reads forever.
type loopConn struct {
	nullConn
	data []byte
	pos  int
}

func (c *loopConn) Read(b []byte) (int, error) {
	n := copy(b, c.data[c.pos:])
	c.pos = (c.pos + n) % len(c.data)
	return n, nil
}

// TestRecvAddsNoAllocsOverDecode pins the reused receive buffer: once the
// association has seen its largest frame, Recv allocates exactly what
// Decode does.
func TestRecvAddsNoAllocsOverDecode(t *testing.T) {
	frames := &writeLog{}
	ms := mixedMessages()
	if err := NewConn(frames, BinaryCodec{}).SendAll(ms...); err != nil {
		t.Fatal(err)
	}
	conn := NewConn(&loopConn{data: frames.writes[0]}, BinaryCodec{})
	var wires [][]byte
	for _, m := range ms {
		wires = append(wires, mustEncode(t, BinaryCodec{}, m))
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	decode := testing.AllocsPerRun(50, func() {
		for _, w := range wires {
			if _, err := (BinaryCodec{}).Decode(w); err != nil {
				t.Fatal(err)
			}
		}
	})
	pinAllocs(t, "Recv", decode, func() {
		for range ms {
			if _, err := conn.Recv(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestRecvKeepsNoLargeBuffer: a frame larger than recvChunkBytes (a
// scheduler upload) is read, decoded and not kept; the buffer the small
// frames before it used stays.
func TestRecvKeepsNoLargeBuffer(t *testing.T) {
	upload := &Message{
		Type: TypeControlRequest, RequestID: 1, RANFunction: RANFunctionRC,
		Control: &ControlRequest{Action: ActionUploadScheduler, SliceID: 1, Text: "blob", Blob: bytes.Repeat([]byte{0x61}, 200<<10)},
	}
	frames := &writeLog{}
	if err := NewConn(frames, BinaryCodec{}).SendAll(sendBenchMessage(), upload, sendBenchMessage()); err != nil {
		t.Fatal(err)
	}
	conn := NewConn(&replayConn{data: frames.writes[0]}, BinaryCodec{})
	small := len(mustEncode(t, BinaryCodec{}, sendBenchMessage()))
	for i := 0; i < 3; i++ {
		m, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && !bytes.Equal(m.Control.Blob, upload.Control.Blob) {
			t.Fatal("upload blob corrupted")
		}
		if c := cap(conn.recvBuf); c != small {
			t.Fatalf("after frame %d the conn keeps a %d-byte buffer, want the first frame's %d", i, c, small)
		}
	}
}

// allocatedBy reports the fewest bytes f allocated over three tries, so a
// background goroutine of another test does not count against it.
func allocatedBy(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestForgedCountsAllocateNothing: a count the frame's bytes cannot hold
// is malformed before anything is sized from it, in both layouts.
func TestForgedCountsAllocateNothing(t *testing.T) {
	list := &bwriter{}
	list.u16(0xFFFF)
	list.control(&ControlRequest{})
	decoders := map[string]func() error{
		"control list": func() error { _, err := DecodeControlListAppend(nil, list.b); return err },
	}
	for _, codec := range []Codec{BinaryCodec{}, VarintCodec{}} {
		header := func(typ MessageType) *bwriter {
			w := &bwriter{varint: codec.Name() == "varint"}
			w.u8(uint8(typ))
			w.u32(1)
			w.u32(RANFunctionKPM)
			return w
		}
		ind := header(TypeIndication)
		ind.u64(1)
		ind.u32(7)
		ind.u16(0xFFFF)             // UEs declared
		ind.b = append(ind.b, 1, 2) // two bytes of rows
		batch := header(TypeIndicationBatch)
		batch.u16(MaxBatchIndications)
		batch.indication(sendBenchMessage().Indication)
		decoders[codec.Name()+" indication"] = func() error { _, err := codec.Decode(ind.b); return err }
		decoders[codec.Name()+" batch"] = func() error { _, err := codec.Decode(batch.b); return err }
	}
	for name, decode := range decoders {
		var err error
		if n := allocatedBy(func() { err = decode() }); n >= 4<<10 {
			t.Errorf("%s: allocated %d bytes for a forged count", name, n)
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
}

// decodeOverwritten decodes a copy of wire and then overwrites the copy
// with 0xAA, returning that message and a decode of the pristine bytes; ok
// is false when wire does not decode to a valid message. A codec that kept
// any of its input returns two messages that encode differently.
func decodeOverwritten(codec Codec, wire []byte) (m, ref *Message, ok bool) {
	buf := bytes.Clone(wire)
	m, err := codec.Decode(buf)
	if err != nil || m.Validate() != nil {
		return nil, nil, false
	}
	for i := range buf {
		buf[i] = 0xAA
	}
	ref, err = codec.Decode(wire)
	return m, ref, err == nil
}
