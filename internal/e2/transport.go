package e2

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"waran/internal/obs"
	"waran/internal/obs/flight"
)

// MaxFrameBytes bounds a single E2-lite frame on the wire; oversized frames
// indicate corruption or abuse and terminate the association.
const MaxFrameBytes = 4 << 20

// recvChunkBytes bounds how much Recv allocates ahead of payload bytes that
// have actually arrived, so a hostile length prefix cannot reserve
// MaxFrameBytes with a 4-byte header.
const recvChunkBytes = 64 << 10

// maxRetainedSendBuf caps the encode buffer kept between Sends: a one-off
// giant frame (scheduler blob upload) must not pin megabytes per
// association for the rest of its life.
const maxRetainedSendBuf = 1 << 20

// ErrAssociationDead reports that a peer was declared dead by heartbeat
// liveness tracking (no inbound traffic for the configured number of
// heartbeat intervals) and the association was torn down locally.
var ErrAssociationDead = errors.New("e2: association dead: missed heartbeats")

// Conn is a framed, codec-aware E2-lite association over a byte stream.
// Frames are u32 big-endian length prefixes followed by the codec payload.
// A send is one Write however many frames it carries: Send writes one
// frame, SendAll a list of frames back to back, and the wire cannot tell
// the two apart. Sends are safe for concurrent use; Recv and FrameBuffered
// must be called from one goroutine.
type Conn struct {
	c      net.Conn
	codec  Codec
	br     *bufio.Reader
	sendMu sync.Mutex
	// sendBuf is the frame buffer reused across sends (guarded by sendMu):
	// each frame's 4-byte length header followed by its encoded payload,
	// all written in one Write call.
	sendBuf []byte
	// recvHdr and recvBuf are the receiving goroutine's: the last frame's
	// length header and payload storage, which the next frame overwrites
	// when it fits. Codecs keep nothing of the bytes they decode (Codec),
	// so no decoded message refers into recvBuf.
	recvHdr [4]byte
	recvBuf []byte

	// Counters (obs.Counter is atomic: Stats may be read while Send/Recv
	// run, or scraped through a registry).
	sent, received obs.Counter
	bytesSent      obs.Counter
	bytesReceived  obs.Counter

	// Codec timing for the tracing layer: how long the last send spent
	// encoding (all of its frames) and the last Recv in Decode, so
	// transport spans can separate wire time from codec time.
	lastEncNs atomic.Int64
	lastDecNs atomic.Int64

	// flight, when set, journals the association's teardown. Written once
	// before the Conn is shared (Accept, or SetFlightRecorder right after
	// Dial) and read on Close; closeOnce keeps a double Close from
	// journaling two EvAssocDown events for one association.
	flight    *flight.Recorder
	closeOnce sync.Once
}

// NewConn wraps an established net.Conn.
func NewConn(c net.Conn, codec Codec) *Conn {
	return &Conn{c: c, codec: codec, br: bufio.NewReaderSize(c, 64<<10)}
}

// Dial connects to an E2-lite endpoint.
func Dial(addr string, codec Codec) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("e2: dial %s: %w", addr, err)
	}
	return NewConn(c, codec), nil
}

// Send encodes and writes one message: SendAll with a list of one.
func (c *Conn) Send(m *Message) error { return c.SendAll(m) }

// SendAll encodes ms, each as its own length-prefixed frame, into the
// association's reused send buffer and writes them with a single Write. The
// bytes on the wire, and the frame and byte counts in Stats, are exactly
// those of sending each message in turn with Send; a peer cannot tell the
// difference, it only reads fewer segments. Codecs implementing
// AppendEncoder encode straight into the buffer, so a steady stream
// allocates nothing; other codecs fall back to a fresh payload copied in.
// An encode error or an oversized frame anywhere in ms writes nothing.
func (c *Conn) SendAll(ms ...*Message) error {
	if len(ms) == 0 {
		return nil
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	ae, appendable := c.codec.(AppendEncoder)
	buf := c.sendBuf[:0]
	encStart := time.Now()
	for _, m := range ms {
		at := len(buf)
		buf = append(buf, 0, 0, 0, 0) // length header, patched below
		var err error
		if appendable {
			buf, err = ae.AppendEncode(buf, m)
		} else {
			var payload []byte
			payload, err = c.codec.Encode(m)
			buf = append(buf, payload...)
		}
		if err != nil {
			c.lastEncNs.Store(int64(time.Since(encStart)))
			return err
		}
		n := len(buf) - at - 4
		if n > MaxFrameBytes {
			return fmt.Errorf("e2: frame of %d bytes exceeds limit", n)
		}
		binary.BigEndian.PutUint32(buf[at:], uint32(n))
	}
	c.lastEncNs.Store(int64(time.Since(encStart)))
	if cap(buf) <= maxRetainedSendBuf {
		c.sendBuf = buf
	} else {
		c.sendBuf = nil
	}
	if _, err := c.c.Write(buf); err != nil {
		return fmt.Errorf("e2: send: %w", err)
	}
	c.sent.Add(uint64(len(ms)))
	c.bytesSent.Add(uint64(len(buf)))
	return nil
}

// FrameBuffered reports whether a whole next frame has already been read
// off the network, so that Recv returns without blocking. Like Recv, it
// must be called from the receiving goroutine.
func (c *Conn) FrameBuffered() bool {
	avail := c.br.Buffered()
	if avail < 4 {
		return false
	}
	hdr, _ := c.br.Peek(4) // cannot block: 4 bytes are buffered
	return uint64(avail-4) >= uint64(binary.BigEndian.Uint32(hdr))
}

// Recv reads and decodes one message, blocking until available. A frame
// that fits the previous frame's buffer is read into it; a larger one is
// read incrementally (readPayload), and its buffer replaces the kept one
// only up to recvChunkBytes, so one large upload pins nothing.
func (c *Conn) Recv() (*Message, error) {
	if _, err := io.ReadFull(c.br, c.recvHdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(c.recvHdr[:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("e2: incoming frame of %d bytes exceeds limit", n)
	}
	var payload []byte
	if int(n) <= cap(c.recvBuf) {
		payload = c.recvBuf[:n]
		if _, err := io.ReadFull(c.br, payload); err != nil {
			return nil, err
		}
	} else {
		var err error
		if payload, err = readPayload(c.br, int(n)); err != nil {
			return nil, err
		}
		if cap(payload) <= recvChunkBytes {
			c.recvBuf = payload
		}
	}
	decStart := time.Now()
	m, err := c.codec.Decode(payload)
	c.lastDecNs.Store(int64(time.Since(decStart)))
	if err != nil {
		return nil, err
	}
	c.received.Inc()
	c.bytesReceived.Add(uint64(n) + 4)
	return m, nil
}

// readPayload reads an n-byte frame payload incrementally: at most
// recvChunkBytes are allocated up front and the buffer doubles only after
// the bytes already allocated have arrived, so an untrusted length prefix
// cannot hold MaxFrameBytes per association without sending the data.
func readPayload(r io.Reader, n int) ([]byte, error) {
	chunk := n
	if chunk > recvChunkBytes {
		chunk = recvChunkBytes
	}
	payload := make([]byte, chunk)
	read := 0
	for read < n {
		if read == len(payload) {
			// Everything allocated so far has arrived; double, capped at n.
			grown := 2 * len(payload)
			if grown > n {
				grown = n
			}
			next := make([]byte, grown)
			copy(next, payload)
			payload = next
		}
		m, err := io.ReadFull(r, payload[read:])
		read += m
		if err != nil {
			if err == io.EOF && read > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return payload, nil
}

// LastEncodeDur reports how long the most recent send spent encoding, all
// of its frames together.
func (c *Conn) LastEncodeDur() time.Duration { return time.Duration(c.lastEncNs.Load()) }

// LastDecodeDur reports how long the most recent Recv spent decoding.
func (c *Conn) LastDecodeDur() time.Duration { return time.Duration(c.lastDecNs.Load()) }

// SetDeadline applies to both reads and writes.
func (c *Conn) SetDeadline(t time.Time) error { return c.c.SetDeadline(t) }

// SetReadDeadline bounds blocking Recv calls.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.c.SetReadDeadline(t) }

// SetFlightRecorder journals this association's teardown into rec as an
// EvAssocDown event (nil leaves the journal off). Call before sharing the
// Conn across goroutines; Accept does this automatically when the Listener
// carries a recorder.
func (c *Conn) SetFlightRecorder(rec *flight.Recorder) { c.flight = rec }

// Close terminates the association.
func (c *Conn) Close() error {
	err := c.c.Close()
	c.closeOnce.Do(func() {
		if rec := c.flight; rec.Enabled() {
			rec.Record(flight.Event{
				Class: flight.EvAssocDown, Plane: flight.PlaneE2,
				Detail: addrString(c.RemoteAddr()),
				Value:  float64(c.received.Value()),
			})
		}
	})
	return err
}

// addrString formats a peer address for journal details, tolerating the
// nil addresses synthetic transports report.
func addrString(a net.Addr) string {
	if a == nil {
		return ""
	}
	return a.String()
}

// RemoteAddr returns the peer's address (nil when the underlying transport
// has none); flight-journal events name the peer by it.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

// ConnStats is the flat snapshot of an association's frame and byte
// counters.
type ConnStats struct {
	Sent          uint64 `json:"sent"`
	Received      uint64 `json:"received"`
	BytesSent     uint64 `json:"bytes_sent"`
	BytesReceived uint64 `json:"bytes_received"`
}

// Stats returns current frame and byte counters.
func (c *Conn) Stats() ConnStats {
	return ConnStats{
		Sent:          c.sent.Value(),
		Received:      c.received.Value(),
		BytesSent:     c.bytesSent.Value(),
		BytesReceived: c.bytesReceived.Value(),
	}
}

// Register exposes the association on reg under waran_e2_conn_*.
func (c *Conn) Register(reg *obs.Registry, labels ...obs.Label) {
	reg.MustRegister("waran_e2_conn", "E2-lite association frame and byte counters", obs.Func{
		Kind: obs.KindUntyped,
		Collect: func() []obs.Sample {
			s := c.Stats()
			return []obs.Sample{
				{Suffix: "_sent_total", Value: float64(s.Sent)},
				{Suffix: "_received_total", Value: float64(s.Received)},
				{Suffix: "_bytes_sent_total", Value: float64(s.BytesSent)},
				{Suffix: "_bytes_received_total", Value: float64(s.BytesReceived)},
			}
		},
		JSON: func() any { return c.Stats() },
	}, labels...)
}

// Listener accepts E2-lite associations.
type Listener struct {
	l     net.Listener
	codec Codec

	// flight, when set, journals association establishment (EvAssocUp on
	// Accept) and is inherited by each accepted Conn for teardown events.
	// Set it before the accept loop starts.
	flight *flight.Recorder
}

// Listen starts accepting on addr ("host:port", empty host for all).
func Listen(addr string, codec Codec) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("e2: listen %s: %w", addr, err)
	}
	return &Listener{l: l, codec: codec}, nil
}

// SetFlightRecorder journals association lifecycle (EvAssocUp on Accept,
// EvAssocDown on each accepted Conn's Close) into rec. Call before the
// accept loop starts; nil leaves the journal off.
func (l *Listener) SetFlightRecorder(rec *flight.Recorder) { l.flight = rec }

// Accept waits for the next association.
func (l *Listener) Accept() (*Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	conn := NewConn(c, l.codec)
	if rec := l.flight; rec.Enabled() {
		conn.SetFlightRecorder(rec)
		rec.Record(flight.Event{
			Class: flight.EvAssocUp, Plane: flight.PlaneE2,
			Detail: addrString(conn.RemoteAddr()),
		})
	}
	return conn, nil
}

// Addr returns the bound address (useful with port 0).
func (l *Listener) Addr() net.Addr { return l.l.Addr() }

// Close stops accepting.
func (l *Listener) Close() error { return l.l.Close() }
