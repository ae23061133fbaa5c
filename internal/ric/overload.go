package ric

// The guards every association passes (DESIGN.md §17): an admission token
// bucket and TypeBusy refusals at the front door, a bounded per-association
// indication queue with an explicit shed policy behind it, a three-level
// brownout decided from how long indications wait in that queue
// (brownout.go) driving report-period widening / stale shedding /
// subscription refusal, and a per-xApp breaker so one faulting wasm xApp
// cannot back up the fan-in. There is no RIC without them;
// Config.Overload only tunes the thresholds.

import (
	"fmt"
	"sync"
	"time"

	"waran/internal/e2"
	"waran/internal/guard"
	"waran/internal/obs"
	"waran/internal/obs/flight"
	"waran/internal/obs/trace"
)

// Overload-control defaults (OverloadConfig.withDefaults).
const (
	// DefaultAdmitRate is the association admission rate (tokens/second)
	// when OverloadConfig.AdmitRate is zero.
	DefaultAdmitRate = 2048.0
	// DefaultAdmitBurst is the admission token bucket capacity.
	DefaultAdmitBurst = 256
	// DefaultQueueDepth bounds each association's indication queue.
	DefaultQueueDepth = 256
	// DefaultStaleAfter is how old a queued KPM indication may grow before
	// a browned-out RIC sheds it instead of dispatching it; an interval
	// whose every indication waited longer asks for critical brownout.
	DefaultStaleAfter = 250 * time.Millisecond
	// DefaultRetryAfter is the retry-after hint on TypeBusy admission
	// refusals.
	DefaultRetryAfter = 500 * time.Millisecond
	// DefaultBusyPause is the KPM pause hinted to agents while the RIC is
	// critically browned out.
	DefaultBusyPause = time.Second
)

// brownoutWiden multiplies the subscription report period while browned out.
const brownoutWiden = 2

// BrownoutLevel is the RIC's overload posture.
type BrownoutLevel int32

// Brownout levels: each escalation sheds more measurement load while
// keeping control and heartbeat traffic untouched.
const (
	// BrownoutNormal: full service.
	BrownoutNormal BrownoutLevel = iota
	// BrownoutDegraded: report periods widen by brownoutWiden and queued KPM
	// older than StaleAfter is shed at dispatch.
	BrownoutDegraded
	// BrownoutCritical: additionally, new subscriptions are refused with
	// TypeBusy and agents are asked to pause reporting.
	BrownoutCritical
)

// String returns the level label.
func (l BrownoutLevel) String() string {
	switch l {
	case BrownoutNormal:
		return "normal"
	case BrownoutDegraded:
		return "degraded"
	case BrownoutCritical:
		return "critical"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// OverloadConfig tunes the RIC's guards: admission control, bounded queued
// dispatch, what brownout does, and per-xApp isolation. When brownout
// starts and ends is not tunable: it follows the queue's sojourn against
// the near-RT loop's 10 ms floor (brownout.go). The zero
// value is the defaults below.
type OverloadConfig struct {
	// AdmitRate is the association admission rate in associations/second
	// (default DefaultAdmitRate; negative disables the gate). After a RIC
	// restart this is what turns a reconnect stampede into a controlled
	// ramp.
	AdmitRate float64
	// AdmitBurst is the token bucket capacity (default DefaultAdmitBurst).
	AdmitBurst int
	// QueueDepth bounds each association's indication queue (default
	// DefaultQueueDepth). A full queue sheds its oldest KPM indication —
	// control and heartbeat frames are never queued, so never shed.
	QueueDepth int
	// StaleAfter is the queued-KPM age shed while browned out, and the
	// least sojourn over an interval that asks for critical brownout
	// (default DefaultStaleAfter; negative disables both).
	StaleAfter time.Duration
	// XAppDeadline is read by nothing: every xApp call is bounded by
	// Policy.Fuel alone, which is deterministic and cannot misfire when the
	// host thread is descheduled. Kept because bench/ sets it.
	//
	// Deprecated: no effect.
	XAppDeadline time.Duration
	// Breaker tunes the per-xApp circuit breaker (zero value = guard
	// defaults).
	Breaker guard.BreakerConfig
	// RetryAfter is the hint carried on TypeBusy admission refusals
	// (default DefaultRetryAfter).
	RetryAfter time.Duration
	// BusyPause is the reporting pause hinted to agents at critical brownout
	// (default DefaultBusyPause; negative disables mid-association
	// backpressure).
	BusyPause time.Duration
}

// Validate rejects overload configurations withDefaults would have to guess
// about.
func (c OverloadConfig) Validate() error {
	if c.AdmitBurst < 0 {
		return fmt.Errorf("ric: negative admission burst %d", c.AdmitBurst)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("ric: negative queue depth %d", c.QueueDepth)
	}
	return nil
}

// orZero resolves Config.Overload: a nil pointer is the zero value.
func (c *OverloadConfig) orZero() OverloadConfig {
	if c == nil {
		return OverloadConfig{}
	}
	return *c
}

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.AdmitRate == 0 {
		c.AdmitRate = DefaultAdmitRate
	}
	if c.AdmitBurst == 0 {
		c.AdmitBurst = DefaultAdmitBurst
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.StaleAfter == 0 {
		c.StaleAfter = DefaultStaleAfter
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	if c.BusyPause == 0 {
		c.BusyPause = DefaultBusyPause
	}
	return c
}

// overload is the RIC's runtime guard state. The shed ledger counters
// conserve exactly:
//
//	offered == delivered + shed_overflow + shed_stale + shed_teardown + refused_late
//
// once every association has torn down — every indication entering a queue
// leaves it through exactly one of those counters.
type overload struct {
	cfg    OverloadConfig
	tracer *trace.Tracer
	flight *flight.Recorder // nil-is-off incident journal (Config.Flight)

	gateMu sync.Mutex
	tokens float64 // admission tokens
	last   time.Time

	offered       obs.Counter
	delivered     obs.Counter
	shedOverflow  obs.Counter
	shedStale     obs.Counter
	shedTeardown  obs.Counter
	refusedLate   obs.Counter
	busyAdmission obs.Counter // associations refused with TypeBusy at admission
	refusedSubs   obs.Counter // subscriptions refused at critical brownout
	busyFrames    obs.Counter // mid-association TypeBusy backpressure frames sent
	transitions   obs.Counter // brownout level changes

	bo brownout
}

func newOverload(cfg OverloadConfig, tracer *trace.Tracer, rec *flight.Recorder) *overload {
	return &overload{
		cfg:    cfg,
		tracer: tracer,
		flight: rec,
		tokens: float64(cfg.AdmitBurst),
		bo:     brownout{epoch: time.Now()},
	}
}

// Level returns the brownout level in force at now. The first reader to
// see the level change records the shift: the transition counter, the
// flight journal and a trace span.
func (o *overload) Level(now time.Time) BrownoutLevel {
	lvl, prev, changed := o.bo.observe(now)
	if !changed {
		return lvl
	}
	o.transitions.Inc()
	shift := prev.String() + "->" + lvl.String()
	if rec := o.flight; rec.Enabled() {
		rec.Record(flight.Event{
			Class: flight.EvBrownoutShift, Plane: flight.PlaneRIC,
			Detail: shift, Value: float64(lvl),
		})
	}
	if o.tracer.Enabled() {
		c := trace.NewContext()
		o.tracer.Record(&trace.Span{
			TraceID: c.TraceID, SpanID: c.SpanID,
			Name: trace.SpanBrownoutShift, Plane: trace.PlaneRIC,
			Err: shift, StartNs: now.UnixNano(),
		})
	}
	return lvl
}

// admitAssoc spends one admission token, or reports how long until one is
// available.
func (o *overload) admitAssoc(now time.Time) (bool, time.Duration) {
	if o.cfg.AdmitRate < 0 {
		return true, 0
	}
	o.gateMu.Lock()
	defer o.gateMu.Unlock()
	if !o.last.IsZero() {
		o.tokens = min(o.tokens+now.Sub(o.last).Seconds()*o.cfg.AdmitRate, float64(o.cfg.AdmitBurst))
	}
	o.last = now
	if o.tokens >= 1 {
		o.tokens--
		return true, 0
	}
	wait := time.Duration((1 - o.tokens) / o.cfg.AdmitRate * float64(time.Second))
	if wait < o.cfg.RetryAfter {
		wait = o.cfg.RetryAfter
	}
	return false, wait
}

// queuedInd is one KPM indication parked in an association queue.
type queuedInd struct {
	ind *e2.Indication
	ctx trace.Context
	enq time.Time
}

// assocQueue is one association's bounded indication queue: the receive
// loop is the only producer, the association's dispatcher goroutine the
// only consumer (eviction aside).
type assocQueue struct {
	ch   chan queuedInd
	quit chan struct{}
	done chan struct{}
}

func newAssocQueue(depth int) *assocQueue {
	return &assocQueue{
		ch:   make(chan queuedInd, depth),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// enqueueIndication offers one indication to the association's queue,
// evicting the oldest queued indication when full (drop-oldest: stale KPM
// is worth less than fresh KPM). An eviction asks for critical brownout:
// drop-oldest caps how long anything waits, so a shallow queue that
// overflows might never show a long sojourn. Single producer per queue.
func (r *RIC) enqueueIndication(q *assocQueue, it queuedInd) {
	o := r.ov
	o.offered.Inc()
	select {
	case <-q.quit:
		// The dispatcher already stopped (teardown raced the last frames in
		// flight): refuse rather than park the indication forever.
		o.refusedLate.Inc()
		r.recordShed(it, "refused-late")
		return
	default:
	}
	for {
		select {
		case q.ch <- it:
			return
		default:
			select {
			case old := <-q.ch:
				o.shedOverflow.Inc()
				o.bo.request(BrownoutCritical, it.enq)
				r.recordShed(old, "overflow")
			default:
				// The dispatcher drained concurrently; retry the send.
			}
		}
	}
}

// recordShed spans one shed/refusal decision on the tracer, parented to the
// indication's own trace when it has one, and journals it into the flight
// recorder so a diagnostic bundle carries the shed ledger's causal detail.
func (r *RIC) recordShed(it queuedInd, reason string) {
	if rec := r.ov.flight; rec.Enabled() {
		rec.Record(flight.Event{
			Class: flight.EvShed, Plane: flight.PlaneRIC,
			Cell: it.ind.Cell, Slot: it.ind.Slot, Detail: reason,
		})
	}
	if !r.cfg.Tracer.Enabled() {
		return
	}
	sp := &trace.Span{
		Name: trace.SpanShed, Plane: trace.PlaneRIC,
		Slot: it.ind.Slot, Cell: it.ind.Cell, Err: reason,
		StartNs: it.enq.UnixNano(), DurNs: int64(time.Since(it.enq)),
	}
	if it.ctx.Valid() {
		sp.TraceID, sp.Parent, sp.SpanID = it.ctx.TraceID, it.ctx.SpanID, trace.NewSpanID()
	} else {
		c := trace.NewContext()
		sp.TraceID, sp.SpanID = c.TraceID, c.SpanID
	}
	r.cfg.Tracer.Record(sp)
}

// dispatchLoop is one association's dispatcher, the only place an indication
// meets the xApps: it drains the queue, folds each indication's sojourn
// into the brownout rule, sheds stale KPM while browned out,
// applies brownout transitions to the association (re-subscribing at a
// widened period, pausing the agent), hands the rest to the xApps and sends
// each indication's controls back in one write, and on teardown drains the
// residue into the shed ledger.
func (r *RIC) dispatchLoop(conn *e2.Conn, q *assocQueue) {
	defer close(q.done)
	o := r.ov
	reqID := uint32(100)
	applied := BrownoutNormal
	var lastBusy time.Time
	var sc dispatchScratch
	var win sojournWindow
	for {
		select {
		case <-q.quit:
			for {
				select {
				case it := <-q.ch:
					o.shedTeardown.Inc()
					r.recordShed(it, "teardown")
				default:
					return
				}
			}
		case it := <-q.ch:
			now := time.Now() // the one clock read per dequeue
			sojourn := now.Sub(it.enq)
			o.bo.request(win.fold(now, sojourn, o.cfg.StaleAfter), now)
			lvl := o.Level(now)
			if lvl != applied {
				reqID++
				r.applyBrownout(conn, reqID, lvl, now, &lastBusy)
				applied = lvl
			} else if lvl == BrownoutCritical && o.cfg.BusyPause > 0 &&
				now.Sub(lastBusy) > o.cfg.BusyPause*3/4 {
				// Refresh the pause before the agent's previous hint expires.
				o.busyFrames.Inc()
				lastBusy = now
				_ = conn.Send(e2.NewBusyMessage(o.cfg.BusyPause, "ric: brownout critical"))
			}
			if lvl >= BrownoutDegraded && o.cfg.StaleAfter > 0 && sojourn > o.cfg.StaleAfter {
				o.shedStale.Inc()
				r.recordShed(it, "stale")
				continue
			}
			reqID = r.dispatch(conn, it, reqID, &sc)
		}
	}
}

// dispatch hands one indication to the xApps and sends its controls,
// numbered on from reqID, in one write; it returns the last number used.
// sc is the dispatcher's, reused from its previous indication.
func (r *RIC) dispatch(conn *e2.Conn, it queuedInd, reqID uint32, sc *dispatchScratch) uint32 {
	o := r.ov
	controls, cctx := r.handleIndicationOn(it.ind, it.ctx, sc)
	// The indication has reached the xApps, so it is delivered, and the
	// ledger says so before the first control leaves: an agent that has
	// applied the last control of a run finds offered == delivered + shed +
	// refused already true.
	o.delivered.Inc()
	// All of the indication's controls leave in one write. A send failure
	// means the conn is dying; the receive loop observes it too and tears
	// the association down.
	_ = r.sendControl(conn, reqID+1, controls, cctx, sc)
	clear(controls) // sent: drop their texts and blobs
	return reqID + uint32(len(controls))
}

// applyBrownout pushes a brownout level change onto one association: the
// report period widens (or restores) through a mid-association
// re-subscription, and at critical level the agent is asked to pause
// reporting.
func (r *RIC) applyBrownout(conn *e2.Conn, reqID uint32, lvl BrownoutLevel, now time.Time, lastBusy *time.Time) {
	o := r.ov
	period := r.cfg.ReportPeriodMs
	if lvl >= BrownoutDegraded {
		period *= brownoutWiden
	}
	_ = conn.Send(subscriptionRequest(reqID, period))
	if lvl == BrownoutCritical && o.cfg.BusyPause > 0 {
		o.busyFrames.Inc()
		*lastBusy = now
		_ = conn.Send(e2.NewBusyMessage(o.cfg.BusyPause, "ric: brownout critical"))
	}
}

// OverloadStats is the flat snapshot of the overload-control layer,
// including the shed ledger (Offered == Delivered + ShedOverflow +
// ShedStale + ShedTeardown + RefusedLate at quiescence).
type OverloadStats struct {
	BrownoutLevel        string `json:"brownout_level"`
	Offered              uint64 `json:"offered"`
	Delivered            uint64 `json:"delivered"`
	ShedOverflow         uint64 `json:"shed_overflow"`
	ShedStale            uint64 `json:"shed_stale"`
	ShedTeardown         uint64 `json:"shed_teardown"`
	RefusedLate          uint64 `json:"refused_late"`
	BusyAdmission        uint64 `json:"busy_admission_refusals"`
	RefusedSubscriptions uint64 `json:"refused_subscriptions"`
	BusyBackpressure     uint64 `json:"busy_backpressure_frames"`
	BrownoutTransitions  uint64 `json:"brownout_transitions"`
	// Deprecated: always 0, kept because bench/ reads it. Brownout reads
	// how long indications wait; dispatch service time is not sampled.
	DispatchP99Ms float64 `json:"-"`
}

// LedgerConserved reports whether the shed ledger balances: every offered
// indication was delivered, shed or refused. It holds exactly on a
// quiescent snapshot.
func (s OverloadStats) LedgerConserved() bool {
	return s.Offered == s.Delivered+s.ShedOverflow+s.ShedStale+s.ShedTeardown+s.RefusedLate
}

// OverloadStats snapshots the guards. The second result is always true:
// there is no RIC without them, and the signature survives only because
// bench/ reads it.
func (r *RIC) OverloadStats() (OverloadStats, bool) {
	o := r.ov
	return OverloadStats{
		BrownoutLevel:        o.Level(time.Now()).String(),
		Offered:              o.offered.Value(),
		Delivered:            o.delivered.Value(),
		ShedOverflow:         o.shedOverflow.Value(),
		ShedStale:            o.shedStale.Value(),
		ShedTeardown:         o.shedTeardown.Value(),
		RefusedLate:          o.refusedLate.Value(),
		BusyAdmission:        o.busyAdmission.Value(),
		RefusedSubscriptions: o.refusedSubs.Value(),
		BusyBackpressure:     o.busyFrames.Value(),
		BrownoutTransitions:  o.transitions.Value(),
	}, true
}

// BrownoutLevel returns the current brownout level.
func (r *RIC) BrownoutLevel() BrownoutLevel { return r.ov.Level(time.Now()) }
