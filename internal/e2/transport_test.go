package e2

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// pair establishes a connected listener/dialer pair over loopback.
func pair(t *testing.T, codec Codec) (server, client *Conn) {
	t.Helper()
	lis, err := Listen("127.0.0.1:0", codec)
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
	client, err = Dial(lis.Addr().String(), codec)
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

func TestTransportRoundTrip(t *testing.T) {
	server, client := pair(t, BinaryCodec{})
	msgs := sampleMessages()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for _, m := range msgs {
			if err := client.Send(m); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i, want := range msgs {
		got, err := server.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got.Type != want.Type || got.RequestID != want.RequestID {
			t.Fatalf("message %d: got %v/%d want %v/%d", i, got.Type, got.RequestID, want.Type, want.RequestID)
		}
	}
	// Send counts a frame after Write returns, so the receiver can drain the
	// last frame before the sender has counted it: join the sender first.
	<-sent
	if st := client.Stats(); st.Sent != uint64(len(msgs)) || st.BytesSent == 0 {
		t.Fatalf("client stats: sent=%d bytes=%d", st.Sent, st.BytesSent)
	}
	if st := server.Stats(); st.Received != uint64(len(msgs)) || st.BytesReceived == 0 {
		t.Fatalf("server stats: received=%d bytes=%d", st.Received, st.BytesReceived)
	}
}

func TestTransportBidirectional(t *testing.T) {
	server, client := pair(t, VarintCodec{})
	done := make(chan error, 1)
	go func() {
		m, err := server.Recv()
		if err != nil {
			done <- err
			return
		}
		done <- server.Send(&Message{Type: TypeControlAck, RequestID: m.RequestID,
			ControlAck: &ControlAck{Accepted: true}})
	}()
	if err := client.Send(&Message{Type: TypeControlRequest, RequestID: 5,
		Control: &ControlRequest{Action: ActionHandover, UEID: 1, Text: "x"}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	ack, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != TypeControlAck || ack.RequestID != 5 || !ack.ControlAck.Accepted {
		t.Fatalf("ack = %+v", ack)
	}
}

func TestTransportLargeIndication(t *testing.T) {
	server, client := pair(t, BinaryCodec{})
	big := &Indication{Slot: 1, Cell: 1}
	for i := 0; i < 5000; i++ {
		big.UEs = append(big.UEs, UEMeasurement{UEID: uint32(i), TputBps: float64(i)})
	}
	go func() {
		if err := client.Send(&Message{Type: TypeIndication, Indication: big}); err != nil {
			t.Error(err)
		}
	}()
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Indication.UEs) != 5000 {
		t.Fatalf("UEs = %d", len(got.Indication.UEs))
	}
}

func TestTransportRejectsOversizedFrame(t *testing.T) {
	lis, err := Listen("127.0.0.1:0", BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		raw, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			return
		}
		defer raw.Close()
		// Claim a 1 GiB frame.
		raw.Write([]byte{0x40, 0x00, 0x00, 0x00})
		time.Sleep(100 * time.Millisecond)
	}()
	conn, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Recv(); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestTransportConcurrentSenders(t *testing.T) {
	server, client := pair(t, BinaryCodec{})
	const perSender, senders = 50, 8
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := client.Send(&Message{Type: TypeHeartbeat}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for i := 0; i < perSender*senders; i++ {
			if _, err := server.Recv(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case <-recvDone:
	case <-time.After(5 * time.Second):
		t.Fatal("interleaved frames corrupted the stream")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", BinaryCodec{}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// TestReadPayloadShortStream verifies a length prefix claiming more data
// than arrives fails with ErrUnexpectedEOF instead of blocking or
// succeeding short.
func TestReadPayloadShortStream(t *testing.T) {
	r := bytes.NewReader(make([]byte, 10))
	if _, err := readPayload(r, 1<<20); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

// TestReadPayloadLarge exercises the incremental growth path with a frame
// much larger than the initial chunk.
func TestReadPayloadLarge(t *testing.T) {
	want := make([]byte, 300<<10)
	for i := range want {
		want[i] = byte(i * 31)
	}
	got, err := readPayload(bytes.NewReader(want), len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("large payload corrupted by incremental read")
	}
}

// TestRecvDoesNotPreallocateFromLengthPrefix is the regression test for
// the hostile length prefix: a 4-byte header claiming MaxFrameBytes must
// not commit megabytes of memory before the payload actually arrives.
func TestRecvDoesNotPreallocateFromLengthPrefix(t *testing.T) {
	const rounds = 64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		// Claims the full 4 MiB but delivers 16 bytes.
		_, err := readPayload(bytes.NewReader(make([]byte, 16)), MaxFrameBytes)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("round %d: err = %v, want ErrUnexpectedEOF", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	total := after.TotalAlloc - before.TotalAlloc
	// Eager allocation would cost rounds * 4 MiB = 256 MiB; incremental
	// reads stay near rounds * 64 KiB. Allow generous slack.
	if limit := uint64(rounds) * (1 << 20); total > limit {
		t.Fatalf("allocated %d bytes over %d hostile frames (limit %d): length prefix is trusted again", total, rounds, limit)
	}
}

// TestRecvRejectsOversizedFrame keeps the frame cap itself enforced.
func TestRecvRejectsOversizedFrame(t *testing.T) {
	server, client := pair(t, BinaryCodec{})
	go func() {
		raw := make([]byte, 4)
		binary.BigEndian.PutUint32(raw, MaxFrameBytes+1)
		// Reach under the framing: write a hostile header directly.
		client.c.Write(raw)
	}()
	if _, err := server.Recv(); err == nil {
		t.Fatal("oversized frame accepted")
	}
}
