package e2

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Injected-fault errors. They are distinct sentinels so tests can assert
// which fault fired, and wrap nothing: an injected fault is not a real
// transport error.
var (
	// ErrInjectedReset is surfaced when FaultConn abruptly kills the
	// connection (the injected analogue of a TCP RST).
	ErrInjectedReset = errors.New("e2: injected connection reset")
	// ErrInjectedPartialWrite is surfaced after FaultConn wrote only a
	// prefix of the caller's buffer and failed the connection.
	ErrInjectedPartialWrite = errors.New("e2: injected partial write")
)

// FaultConfig is a seeded schedule of transport faults. The zero value
// injects nothing. All probabilities are evaluated independently per Write
// call in the order reset, truncate, partial, drop, delay; the same Seed
// over the same call sequence reproduces the same schedule, so failure
// scenarios are testable without real networks. One Write may carry
// several frames (Conn.SendAll), so a drop, truncate or partial write hits
// the whole write — every frame in it — and the *AfterWrites counts are
// counts of writes, not of frames.
type FaultConfig struct {
	// Seed selects the deterministic schedule (0 behaves as 1).
	Seed int64

	// DelayProb stalls a write by Delay before it proceeds — injected
	// latency/jitter. Delay defaults to 1ms when DelayProb is set.
	DelayProb float64
	Delay     time.Duration

	// DropProb silently discards a write while reporting it fully written
	// — the frame vanishes and the peer's framing desynchronizes, as after
	// loss on a misbehaving middlebox.
	DropProb float64

	// PartialProb writes a random non-empty prefix of the buffer, then
	// fails the connection with ErrInjectedPartialWrite. The peer is left
	// holding a truncated frame.
	PartialProb float64

	// TruncateProb writes a random prefix and closes the underlying conn:
	// the peer sees a truncated frame followed by EOF, while this side's
	// write "succeeds" and only the next operation notices.
	TruncateProb float64

	// ResetProb kills the connection before the write: the write fails
	// with ErrInjectedReset and all later operations fail too.
	ResetProb float64

	// ResetAfterWrites, when > 0, forces a reset on the Nth Write call
	// regardless of the probabilities — the deterministic kill switch for
	// reconnect tests.
	ResetAfterWrites int

	// BlackholeAfterWrites, when > 0, silently discards every write from
	// the Nth on while leaving the connection open — the injected analogue
	// of a half-open TCP connection whose peer vanished. No error is ever
	// surfaced on this side; only heartbeat liveness can detect it.
	BlackholeAfterWrites int
}

// FaultStats counts injected faults by class.
type FaultStats struct {
	Delays     uint64
	Drops      uint64
	Partials   uint64
	Truncates  uint64
	Resets     uint64
	Blackholes uint64
}

// Total sums all injected faults.
func (s FaultStats) Total() uint64 {
	return s.Delays + s.Drops + s.Partials + s.Truncates + s.Resets + s.Blackholes
}

// FaultConn wraps a net.Conn and deterministically injects transport
// faults — delays, drops, partial writes, truncated frames, resets — from
// a seeded schedule. Wrap the conn handed to NewConn on one endpoint and
// every failure mode of the association layer becomes reproducible:
// heartbeat loss, mid-frame cuts, abrupt resets. Faults are injected on
// the write side; reads pass through (a reset kills both directions).
type FaultConn struct {
	inner net.Conn
	cfg   FaultConfig

	mu     sync.Mutex
	rng    *rand.Rand
	writes int
	closed bool
	stats  FaultStats
}

// faultAction is one decided outcome for a Write call.
type faultAction int

const (
	faultNone faultAction = iota
	faultDelay
	faultDrop
	faultPartial
	faultTruncate
	faultReset
)

// NewFaultConn wraps inner with the fault schedule in cfg.
func NewFaultConn(inner net.Conn, cfg FaultConfig) *FaultConn {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.Delay == 0 {
		cfg.Delay = time.Millisecond
	}
	return &FaultConn{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Stats returns the injected-fault counters so far.
func (f *FaultConn) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// decide rolls the seeded schedule for one Write of n bytes, returning the
// action and, for prefix faults, how many bytes to let through.
func (f *FaultConn) decide(n int) (faultAction, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return faultReset, 0
	}
	f.writes++
	if f.cfg.ResetAfterWrites > 0 && f.writes == f.cfg.ResetAfterWrites {
		f.stats.Resets++
		f.closed = true
		return faultReset, 0
	}
	if f.cfg.BlackholeAfterWrites > 0 && f.writes >= f.cfg.BlackholeAfterWrites {
		f.stats.Blackholes++
		return faultDrop, 0
	}
	switch {
	case f.roll(f.cfg.ResetProb):
		f.stats.Resets++
		f.closed = true
		return faultReset, 0
	case f.roll(f.cfg.TruncateProb):
		f.stats.Truncates++
		f.closed = true
		return faultTruncate, f.prefix(n)
	case f.roll(f.cfg.PartialProb):
		f.stats.Partials++
		f.closed = true
		return faultPartial, f.prefix(n)
	case f.roll(f.cfg.DropProb):
		f.stats.Drops++
		return faultDrop, 0
	case f.roll(f.cfg.DelayProb):
		f.stats.Delays++
		return faultDelay, 0
	}
	return faultNone, 0
}

// roll consumes one PRNG draw when p > 0 so the schedule depends only on
// the configured fault classes and the call sequence.
func (f *FaultConn) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return f.rng.Float64() < p
}

// prefix picks a non-empty strict prefix length of an n-byte buffer.
func (f *FaultConn) prefix(n int) int {
	if n <= 1 {
		return n
	}
	return 1 + f.rng.Intn(n-1)
}

// Write implements net.Conn with the configured fault schedule applied.
func (f *FaultConn) Write(b []byte) (int, error) {
	action, pfx := f.decide(len(b))
	switch action {
	case faultReset:
		f.inner.Close()
		return 0, ErrInjectedReset
	case faultTruncate:
		n, _ := f.inner.Write(b[:pfx])
		f.inner.Close()
		// The cut happens "in flight": this write reports success and the
		// sender learns on its next operation, like a real half-sent frame.
		_ = n
		return len(b), nil
	case faultPartial:
		n, err := f.inner.Write(b[:pfx])
		if err != nil {
			return n, err
		}
		f.inner.Close()
		return n, ErrInjectedPartialWrite
	case faultDrop:
		return len(b), nil
	case faultDelay:
		time.Sleep(f.cfg.Delay)
	}
	return f.inner.Write(b)
}

// Read implements net.Conn. Reads pass through; after an injected reset
// they fail like the rest of the connection.
func (f *FaultConn) Read(b []byte) (int, error) {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return 0, ErrInjectedReset
	}
	return f.inner.Read(b)
}

// Close implements net.Conn.
func (f *FaultConn) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	return f.inner.Close()
}

// LocalAddr implements net.Conn.
func (f *FaultConn) LocalAddr() net.Addr { return f.inner.LocalAddr() }

// RemoteAddr implements net.Conn.
func (f *FaultConn) RemoteAddr() net.Addr { return f.inner.RemoteAddr() }

// SetDeadline implements net.Conn.
func (f *FaultConn) SetDeadline(t time.Time) error { return f.inner.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (f *FaultConn) SetReadDeadline(t time.Time) error { return f.inner.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (f *FaultConn) SetWriteDeadline(t time.Time) error { return f.inner.SetWriteDeadline(t) }
