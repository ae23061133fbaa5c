package ric

// The E2 association lifecycle (DESIGN.md §10), written once for both ends.
// assocCore starts no goroutine, reads no clock and holds no connection
// (TestAssocCoreIsSansIO): its driver feeds it timestamped events and carries
// out the actions it returns. Data frames never pass through it.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"waran/internal/e2"
)

// assocParams is everything a core knows about its end.
type assocParams struct {
	ric bool // the RIC end sends the subscription and probes; the agent end answers and echoes
	// The one liveness rule: an interval of period (0: no timer) in which
	// no frame of any kind arrived is a miss, and limit misses in a row end
	// the association. An agent waits two such bounds for its first
	// subscription.
	period         time.Duration
	limit          int
	reportPeriodMs uint32 // RIC: the cadence it subscribes at
}

// ricParams probes every HeartbeatInterval, heartbeatMisses misses in a
// row being death.
func ricParams(cfg Config) assocParams {
	return assocParams{ric: true, period: cfg.HeartbeatInterval, limit: heartbeatMisses,
		reportPeriodMs: cfg.ReportPeriodMs}
}

// agentParams checks four times per LivenessTimeout, so the association
// ends once the RIC has been silent for LivenessTimeout (and at most a
// quarter more).
func agentParams(cfg AgentConfig) assocParams {
	var p assocParams
	if lt := cfg.LivenessTimeout; lt > 0 {
		p.period, p.limit = max(lt/4, time.Millisecond), 4
	}
	return p
}

type eventKind uint8

const (
	evConnect eventKind = iota // the transport is up
	evFrame                    // a lifecycle frame arrived
	evTimer                    // the armed timer fired
	evStop                     // the owner ends the association
	evError                    // the reader's receive or reply write failed
)

type assocEvent struct {
	kind   eventKind
	msg    *e2.Message // evFrame
	frames uint64      // evTimer: frames of any kind received so far
	err    error       // evError
}

type actKind uint8

const (
	actSend       actKind = iota // send msg
	actArm                       // point the one timer at at
	actMiss                      // a silent interval (missed_heartbeats)
	actSubscribed                // sub is in force (agent)
	actPause                     // shed KPM at the source until at
	actClose                     // close the conn to wake the reader; err says why
	actEnd                       // the reader returns err
)

type action struct {
	kind actKind
	at   time.Time
	msg  *e2.Message
	err  error
	sub  subscription
}

// subscription is what the RIC asked the agent for.
type subscription struct {
	periodSlots uint64
	sliceIDs    []uint32
	resub       bool // replaces an earlier subscription
}

var (
	errNoSubscription = errors.New("no subscription request within the wait bound")
	errStopped        = errors.New("stopped")
)

// assocCore is one association's lifecycle; its driver serialises Step.
type assocCore struct {
	p        assocParams
	up       bool // the agent has its first subscription (the RIC is up from connect)
	misses   int
	frames   uint64    // frames received at the last timer check
	deadline time.Time // the armed timer; zero when none
	ended    bool
	endErr   error
}

// Step applies one event at now and appends the resulting actions to out.
func (c *assocCore) Step(now time.Time, ev assocEvent, out []action) []action {
	if c.ended {
		if ev.kind == evError {
			out = append(out, action{kind: actEnd, err: c.endErr})
		}
		return out
	}
	switch ev.kind {
	case evConnect:
		if !c.p.ric {
			return c.arm(out, now, 2*time.Duration(c.p.limit)*c.p.period)
		}
		c.up = true
		out = append(out, action{kind: actSend, msg: subscriptionRequest(1, c.p.reportPeriodMs)})
		return c.arm(out, now, c.p.period)
	case evFrame:
		if c.p.ric {
			return c.ricFrame(ev.msg, out)
		}
		return c.agentFrame(now, ev.msg, out)
	case evTimer:
		return c.timer(now, ev.frames, out)
	case evStop:
		return c.end(out, actClose, c.handshake(nil))
	}
	err := ev.err
	if c.up && errors.Is(err, io.EOF) {
		err = nil
	}
	return c.end(out, actEnd, c.handshake(err))
}

// handshake fails an end that never got its subscription, even on a clean
// close or a stop.
func (c *assocCore) handshake(err error) error {
	if c.up {
		return err
	}
	if err == nil {
		err = errStopped
	}
	return fmt.Errorf("ric: agent: waiting for subscription: %w", err)
}

func (c *assocCore) arm(out []action, now time.Time, d time.Duration) []action {
	if d <= 0 {
		return out
	}
	c.deadline = now.Add(d)
	return append(out, action{kind: actArm, at: c.deadline})
}

// end finishes the association with an actClose (the reader is blocked and
// must be woken) or an actEnd (the reader asked).
func (c *assocCore) end(out []action, kind actKind, err error) []action {
	c.ended, c.endErr, c.deadline = true, err, time.Time{}
	return append(out, action{kind: kind, err: err})
}

// timer applies the liveness rule, or the agent's subscription-wait bound.
func (c *assocCore) timer(now time.Time, frames uint64, out []action) []action {
	switch {
	case c.deadline.IsZero():
		return out
	case now.Before(c.deadline): // an early or stale fire
		return append(out, action{kind: actArm, at: c.deadline})
	case !c.up:
		return c.end(out, actClose, c.handshake(errNoSubscription))
	case frames == c.frames:
		c.misses++
		out = append(out, action{kind: actMiss})
		if c.misses >= c.p.limit {
			return c.end(out, actClose, e2.ErrAssociationDead)
		}
	default:
		c.frames, c.misses = frames, 0
	}
	if c.p.ric {
		// Probe regardless: the echo keeps an idle, healthy peer from missing.
		out = append(out, action{kind: actSend, msg: &e2.Message{Type: e2.TypeHeartbeat}})
	}
	return c.arm(out, now, c.p.period)
}

func (c *assocCore) ricFrame(m *e2.Message, out []action) []action {
	switch m.Type {
	case e2.TypeSubscriptionResponse:
		if !m.SubscriptionResp.Accepted {
			return c.end(out, actEnd, fmt.Errorf("ric: subscription refused: %s", m.SubscriptionResp.Reason))
		}
	case e2.TypeError:
		return c.end(out, actEnd, fmt.Errorf("ric: peer error: %s", m.Error.Reason))
	}
	return out // an acceptance or a heartbeat echo only counts as a frame
}

func (c *assocCore) agentFrame(now time.Time, m *e2.Message, out []action) []action {
	switch {
	case m.Type == e2.TypeSubscriptionRequest:
		// The first, or a re-subscription: the RIC adjusts cadence or slice
		// filter, or re-asserts after its own restart.
		out = c.subscribe(m, c.up, out)
		if !c.up {
			c.up = true
			out = c.arm(out, now, c.p.period)
		}
		return out
	case !c.up && m.Type == e2.TypeBusy:
		// Admission refusal: the typed error lets the reconnect schedule
		// honour the retry-after hint.
		return c.end(out, actEnd, &e2.BusyError{RetryAfter: m.Busy.RetryAfter(), Reason: m.Busy.Reason})
	case !c.up:
		out = append(out, action{kind: actSend, msg: &e2.Message{Type: e2.TypeError,
			Error: &e2.ErrorBody{Reason: "expected subscription-request"}}})
		return c.end(out, actEnd, fmt.Errorf("ric: agent: unexpected first message %s", m.Type))
	case m.Type == e2.TypeHeartbeat:
		return append(out, action{kind: actSend, msg: &e2.Message{Type: e2.TypeHeartbeat}})
	case m.Type == e2.TypeBusy:
		// Backpressure: the browned-out RIC asks for a KPM pause.
		return append(out, action{kind: actPause, at: now.Add(m.Busy.RetryAfter())})
	}
	// Out of place: report it instead of dropping the frame.
	return append(out, action{kind: actSend, msg: &e2.Message{Type: e2.TypeError, RequestID: m.RequestID,
		Error: &e2.ErrorBody{Reason: fmt.Sprintf("agent: unexpected %s", m.Type)}}})
}

// subscribe applies and acknowledges a subscription request.
func (c *assocCore) subscribe(m *e2.Message, resub bool, out []action) []action {
	sub := subscription{
		periodSlots: uint64(m.Subscription.ReportPeriodMs), // 1 ms slots: ms == slots
		sliceIDs:    append([]uint32(nil), m.Subscription.SliceIDs...),
		resub:       resub,
	}
	if sub.periodSlots == 0 {
		sub.periodSlots = 100
	}
	return append(out, action{kind: actSubscribed, sub: sub}, action{kind: actSend, msg: &e2.Message{
		Type: e2.TypeSubscriptionResponse, RequestID: m.RequestID, RANFunction: m.RANFunction,
		SubscriptionResp: &e2.SubscriptionResponse{Accepted: true}}})
}

// subscriptionRequest is the RIC's KPM subscription at periodMs. The
// handshake and the brownout re-subscriptions share it.
func subscriptionRequest(reqID, periodMs uint32) *e2.Message {
	return &e2.Message{Type: e2.TypeSubscriptionRequest, RequestID: reqID, RANFunction: e2.RANFunctionKPM,
		Subscription: &e2.SubscriptionRequest{ReportPeriodMs: periodMs}}
}

// Backoff is the reconnect schedule of a session: retry n (0-based) waits a
// delay drawn uniformly from [0, min(Max, Initial·2ⁿ)). Full jitter spreads
// a fleet's reconnect storm across the whole ceiling. The zero value is
// 50 ms initial and a 5 s cap.
type Backoff struct {
	Initial time.Duration
	Max     time.Duration
}

// retrySchedule is one session's back-off: its attempt counter and jitter.
type retrySchedule struct {
	b       Backoff
	attempt int
	rng     *rand.Rand
}

// newRetrySchedule is a schedule for b whose jitter is drawn from seed.
func newRetrySchedule(b Backoff, seed int64) *retrySchedule {
	if b.Initial <= 0 {
		b.Initial = 50 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Second
	}
	return &retrySchedule{b: b, rng: rand.New(rand.NewSource(seed))}
}

func (s *retrySchedule) ceiling() time.Duration {
	d := s.b.Initial
	for i := 0; i < s.attempt && d < s.b.Max; i++ {
		d *= 2
	}
	return min(d, s.b.Max)
}

// next returns the wait after a failed connect, or after an association
// that never came up and ended with err, and counts the attempt. A busy
// refusal's hint, jittered into [hint/2, 1.5·hint) so a refused cohort ramps
// back instead of re-arriving as one wave, replaces a shorter delay.
func (s *retrySchedule) next(err error) time.Duration {
	wait := time.Duration(s.rng.Float64() * float64(s.ceiling()))
	s.attempt++
	var busy *e2.BusyError
	if errors.As(err, &busy) && busy.RetryAfter > 0 {
		wait = max(wait, busy.RetryAfter/2+time.Duration(s.rng.Float64()*float64(busy.RetryAfter)))
	}
	return wait
}

func (s *retrySchedule) reset() { s.attempt = 0 }
