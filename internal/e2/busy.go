package e2

import (
	"fmt"
	"time"
)

// Busy / retry-after wire format (DESIGN.md §17).
//
// A TypeBusy frame is the RIC's explicit overload signal. It appears in two
// places:
//
//   - At admission: a RIC whose shard budgets or admission token bucket are
//     exhausted answers the association's first frame with TypeBusy instead
//     of accepting the subscription, then closes the connection. The body
//     carries RetryAfterMs, the earliest the peer should redial; AgentSession
//     spreads the actual redial uniformly over (0, hint] (full jitter) so a
//     thousand refused agents do not re-arrive in phase.
//
//   - Mid-association: a critically browned-out RIC sends TypeBusy; the agent
//     pauses KPM reporting for the hinted duration and counts every skipped
//     report as shed. Control and heartbeat traffic is never paused — only
//     measurement load.
//
// Neither use is negotiated: every RIC can send the frame and every agent
// honours it.

// MaxRetryAfter bounds the retry-after hint a peer will honor, so a
// corrupted or hostile frame cannot park an agent for hours.
const MaxRetryAfter = 5 * time.Minute

// BusyBody is the TypeBusy payload.
type BusyBody struct {
	// RetryAfterMs hints the earliest redial / resume, in milliseconds.
	// Zero means "immediately, at the peer's own backoff".
	RetryAfterMs uint32
	// Reason names what was exhausted ("admission", "shard 3 budget",
	// "brownout L2") for logs and tests; peers must not parse it.
	Reason string
}

// RetryAfter returns the clamped retry-after hint as a duration.
func (b *BusyBody) RetryAfter() time.Duration {
	d := time.Duration(b.RetryAfterMs) * time.Millisecond
	if d > MaxRetryAfter {
		return MaxRetryAfter
	}
	return d
}

// BusyError is returned by association setup when the peer answered
// TypeBusy: the caller should back off for RetryAfter (with jitter) and
// redial rather than treating the refusal as a protocol failure.
type BusyError struct {
	RetryAfter time.Duration
	Reason     string
}

// Error implements error.
func (e *BusyError) Error() string {
	return fmt.Sprintf("e2: peer busy (retry after %v): %s", e.RetryAfter, e.Reason)
}

// NewBusyMessage builds a TypeBusy frame with a clamped retry-after hint.
func NewBusyMessage(retryAfter time.Duration, reason string) *Message {
	if retryAfter < 0 {
		retryAfter = 0
	}
	if retryAfter > MaxRetryAfter {
		retryAfter = MaxRetryAfter
	}
	return &Message{
		Type: TypeBusy,
		Busy: &BusyBody{RetryAfterMs: uint32(retryAfter / time.Millisecond), Reason: reason},
	}
}
