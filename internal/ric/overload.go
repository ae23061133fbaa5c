package ric

// The guards every association passes (DESIGN.md §17): admission token
// buckets and TypeBusy refusals at the front door, a bounded per-association
// indication queue with an explicit shed policy behind it, a three-level
// brownout state machine driving report-period widening / stale shedding /
// subscription refusal, and a per-xApp breaker so one faulting wasm xApp
// cannot back up a shard's fan-in. There is no RIC without them;
// Config.Overload only tunes the thresholds.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"waran/internal/e2"
	"waran/internal/guard"
	"waran/internal/metrics"
	"waran/internal/obs/flight"
	"waran/internal/obs/trace"
)

// Overload-control defaults (OverloadConfig.withDefaults).
const (
	// DefaultAdmitRate is the per-shard association admission rate
	// (tokens/second) when OverloadConfig.AdmitRate is zero.
	DefaultAdmitRate = 256.0
	// DefaultAdmitBurst is the admission token bucket capacity.
	DefaultAdmitBurst = 32
	// DefaultQueueDepth bounds each association's indication queue.
	DefaultQueueDepth = 256
	// DefaultStaleAfter is how old a queued KPM indication may grow before
	// a browned-out RIC sheds it instead of dispatching it.
	DefaultStaleAfter = 250 * time.Millisecond
	// DefaultWidenFactor multiplies the report period while browned out.
	DefaultWidenFactor = 2
	// DefaultBrownoutPoll is the brownout re-evaluation cadence.
	DefaultBrownoutPoll = 20 * time.Millisecond
	// DefaultRetryAfter is the retry-after hint on TypeBusy admission
	// refusals.
	DefaultRetryAfter = 500 * time.Millisecond
	// DefaultBusyPause is the KPM pause hinted to agents while the RIC is
	// critically browned out.
	DefaultBusyPause = time.Second
	// DefaultLoopP99Budget is the dispatch-latency p99 above which the
	// brownout controller escalates (2x above it escalates to critical).
	DefaultLoopP99Budget = 250 * time.Millisecond
	// DefaultEnterDegraded / DefaultEnterCritical are the queue fill
	// fractions entering brownout levels 1 and 2.
	DefaultEnterDegraded = 0.5
	DefaultEnterCritical = 0.9
)

// BrownoutLevel is the RIC's overload posture.
type BrownoutLevel int32

// Brownout levels: each escalation sheds more measurement load while
// keeping control and heartbeat traffic untouched.
const (
	// BrownoutNormal: full service.
	BrownoutNormal BrownoutLevel = iota
	// BrownoutDegraded: report periods widen by WidenFactor and queued KPM
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
// dispatch, the brownout state machine, and per-xApp isolation. The zero
// value is the defaults below.
type OverloadConfig struct {
	// AdmitRate is the per-shard association admission rate in
	// associations/second (default DefaultAdmitRate; negative disables the
	// gate). After a RIC restart this is what turns a reconnect stampede
	// into a controlled ramp.
	AdmitRate float64
	// AdmitBurst is the token bucket capacity (default DefaultAdmitBurst).
	AdmitBurst int
	// QueueDepth bounds each association's indication queue (default
	// DefaultQueueDepth). A full queue sheds its oldest KPM indication —
	// control and heartbeat frames are never queued, so never shed.
	QueueDepth int
	// StaleAfter is the queued-KPM age shed while browned out (default
	// DefaultStaleAfter; negative disables stale shedding).
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
	// EnterDegraded / EnterCritical are the queue fill fractions entering
	// brownout levels 1 and 2 (defaults DefaultEnterDegraded /
	// DefaultEnterCritical).
	EnterDegraded float64
	EnterCritical float64
	// LoopP99Budget escalates brownout when the dispatch-latency p99
	// exceeds it (2x enters critical). Default DefaultLoopP99Budget;
	// negative disables the latency trigger.
	LoopP99Budget time.Duration
	// WidenFactor multiplies the subscription report period while browned
	// out (default DefaultWidenFactor).
	WidenFactor int
	// Poll is the brownout re-evaluation cadence (default
	// DefaultBrownoutPoll).
	Poll time.Duration
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
	if c.WidenFactor < 0 {
		return fmt.Errorf("ric: negative widen factor %d", c.WidenFactor)
	}
	if c.EnterDegraded < 0 || c.EnterDegraded > 1 {
		return fmt.Errorf("ric: degraded fill fraction %v outside [0, 1]", c.EnterDegraded)
	}
	if c.EnterCritical < 0 || c.EnterCritical > 1 {
		return fmt.Errorf("ric: critical fill fraction %v outside [0, 1]", c.EnterCritical)
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
	if c.EnterDegraded == 0 {
		c.EnterDegraded = DefaultEnterDegraded
	}
	if c.EnterCritical == 0 {
		c.EnterCritical = DefaultEnterCritical
	}
	if c.EnterCritical < c.EnterDegraded {
		c.EnterCritical = c.EnterDegraded
	}
	if c.LoopP99Budget == 0 {
		c.LoopP99Budget = DefaultLoopP99Budget
	}
	if c.WidenFactor < 2 {
		c.WidenFactor = DefaultWidenFactor
	}
	if c.Poll <= 0 {
		c.Poll = DefaultBrownoutPoll
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
	tokens []float64 // per-shard admission tokens
	last   []time.Time

	offered       metrics.Counter
	delivered     metrics.Counter
	shedOverflow  metrics.Counter
	shedStale     metrics.Counter
	shedTeardown  metrics.Counter
	refusedLate   metrics.Counter
	busyAdmission metrics.Counter // associations refused with TypeBusy at admission
	refusedSubs   metrics.Counter // subscriptions refused at critical brownout
	busyFrames    metrics.Counter // mid-association TypeBusy backpressure frames sent
	spills        metrics.Counter // associations placed on a non-hashed shard
	transitions   metrics.Counter // brownout level changes

	level      atomic.Int32
	maxFill    atomic.Int64 // metric-exempt: eval-window queue high-water, reset each poll
	lastEval   atomic.Int64 // metric-exempt: unix-nano CAS guard for maybeEval, not telemetry
	downStreak atomic.Int32 // metric-exempt: consecutive below-threshold evals; CAS winners alternate, so it needs visibility, not contention safety

	p99Mu   sync.Mutex
	dispP99 *metrics.P2 // dispatch latency (ns)
}

func newOverload(cfg OverloadConfig, shards int, tracer *trace.Tracer, rec *flight.Recorder) *overload {
	o := &overload{
		cfg:     cfg,
		tracer:  tracer,
		flight:  rec,
		tokens:  make([]float64, shards),
		last:    make([]time.Time, shards),
		dispP99: metrics.NewP2(0.99),
	}
	for i := range o.tokens {
		o.tokens[i] = float64(cfg.AdmitBurst)
	}
	return o
}

// Level returns the current brownout level.
func (o *overload) Level() BrownoutLevel {
	return BrownoutLevel(o.level.Load())
}

// admitAssoc spends one admission token for shardID, or reports how long
// until one is available.
func (o *overload) admitAssoc(shardID int, now time.Time) (bool, time.Duration) {
	if o.cfg.AdmitRate < 0 {
		return true, 0
	}
	o.gateMu.Lock()
	defer o.gateMu.Unlock()
	if !o.last[shardID].IsZero() {
		o.tokens[shardID] += now.Sub(o.last[shardID]).Seconds() * o.cfg.AdmitRate
		if o.tokens[shardID] > float64(o.cfg.AdmitBurst) {
			o.tokens[shardID] = float64(o.cfg.AdmitBurst)
		}
	}
	o.last[shardID] = now
	if o.tokens[shardID] >= 1 {
		o.tokens[shardID]--
		return true, 0
	}
	wait := time.Duration((1 - o.tokens[shardID]) / o.cfg.AdmitRate * float64(time.Second))
	if wait < o.cfg.RetryAfter {
		wait = o.cfg.RetryAfter
	}
	return false, wait
}

// observeDispatch feeds one dispatch latency into the brownout controller.
func (o *overload) observeDispatch(d time.Duration) {
	o.p99Mu.Lock()
	o.dispP99.Add(float64(d))
	o.p99Mu.Unlock()
}

// dispatchP99 returns the current dispatch-latency p99 estimate.
func (o *overload) dispatchP99() time.Duration {
	o.p99Mu.Lock()
	defer o.p99Mu.Unlock()
	return time.Duration(o.dispP99.Value())
}

// noteQueueLen raises the eval-window queue high-water mark.
func (o *overload) noteQueueLen(n int) {
	for {
		cur := o.maxFill.Load()
		if int64(n) <= cur || o.maxFill.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// maybeEval re-evaluates the brownout level at most once per poll interval.
// It is called from the hot enqueue/dispatch paths, so the off-interval
// fast path is one atomic load.
func (o *overload) maybeEval(now time.Time) {
	last := o.lastEval.Load()
	if now.UnixNano()-last < int64(o.cfg.Poll) {
		return
	}
	if !o.lastEval.CompareAndSwap(last, now.UnixNano()) {
		return // another goroutine won this interval
	}
	fill := float64(o.maxFill.Swap(0)) / float64(o.cfg.QueueDepth)
	p99 := o.dispatchP99()
	target := BrownoutNormal
	if fill >= o.cfg.EnterDegraded {
		target = BrownoutDegraded
	}
	if fill >= o.cfg.EnterCritical {
		target = BrownoutCritical
	}
	if o.cfg.LoopP99Budget > 0 {
		if p99 > o.cfg.LoopP99Budget && target < BrownoutDegraded {
			target = BrownoutDegraded
		}
		if p99 > 2*o.cfg.LoopP99Budget {
			target = BrownoutCritical
		}
	}
	cur := o.Level()
	if target == cur {
		o.downStreak.Store(0)
		return
	}
	if target < cur {
		// De-escalate only after two consecutive calm evals, so the level
		// does not flap at the threshold.
		if o.downStreak.Add(1) < 2 {
			return
		}
		target = cur - 1 // step down one level at a time
	}
	o.downStreak.Store(0)
	o.level.Store(int32(target))
	o.transitions.Inc()
	if rec := o.flight; rec.Enabled() {
		rec.Record(flight.Event{
			Class: flight.EvBrownoutShift, Plane: flight.PlaneRIC,
			Detail: cur.String() + "->" + target.String(),
			Value:  float64(target),
		})
	}
	if o.tracer.Enabled() {
		c := trace.NewContext()
		o.tracer.Record(&trace.Span{
			TraceID: c.TraceID, SpanID: c.SpanID,
			Name: trace.SpanBrownoutShift, Plane: trace.PlaneRIC,
			Err:     fmt.Sprintf("%s->%s", cur, target),
			StartNs: now.UnixNano(),
		})
	}
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
// is worth less than fresh KPM). Single producer per queue.
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
			o.noteQueueLen(len(q.ch))
			o.maybeEval(time.Now())
			return
		default:
			select {
			case old := <-q.ch:
				o.shedOverflow.Inc()
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
// meets the xApps: it drains the queue, sheds stale KPM while browned out,
// applies brownout transitions to the association (re-subscribing at a
// widened period, pausing the agent), hands the rest to the xApps and sends
// each indication's controls back in one write, and on teardown drains the
// residue into the shed ledger.
func (r *RIC) dispatchLoop(sh *shard, conn *e2.Conn, q *assocQueue) {
	defer close(q.done)
	o := r.ov
	reqID := uint32(100)
	applied := BrownoutNormal
	var lastBusy time.Time
	var sc dispatchScratch
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
			lvl := o.Level()
			if lvl != applied {
				reqID++
				r.applyBrownout(conn, reqID, lvl, &lastBusy)
				applied = lvl
			} else if lvl == BrownoutCritical && o.cfg.BusyPause > 0 &&
				time.Since(lastBusy) > o.cfg.BusyPause*3/4 {
				// Refresh the pause before the agent's previous hint expires.
				o.busyFrames.Inc()
				lastBusy = time.Now()
				_ = conn.Send(e2.NewBusyMessage(o.cfg.BusyPause, "ric: brownout critical"))
			}
			if lvl >= BrownoutDegraded && o.cfg.StaleAfter > 0 && time.Since(it.enq) > o.cfg.StaleAfter {
				o.shedStale.Inc()
				r.recordShed(it, "stale")
				o.maybeEval(time.Now())
				continue
			}
			reqID = r.dispatch(sh, conn, it, reqID, &sc)
		}
	}
}

// dispatch hands one indication to the xApps and sends its controls,
// numbered on from reqID, in one write; it returns the last number used.
// sc is the dispatcher's, reused from its previous indication.
func (r *RIC) dispatch(sh *shard, conn *e2.Conn, it queuedInd, reqID uint32, sc *dispatchScratch) uint32 {
	o := r.ov
	start := time.Now()
	controls, cctx := r.handleIndicationOn(sh, it.ind, it.ctx, sc)
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
	o.observeDispatch(time.Since(start))
	o.maybeEval(time.Now())
	return reqID + uint32(len(controls))
}

// applyBrownout pushes a brownout level change onto one association: the
// report period widens (or restores) through a mid-association
// re-subscription, and at critical level the agent is asked to pause
// reporting.
func (r *RIC) applyBrownout(conn *e2.Conn, reqID uint32, lvl BrownoutLevel, lastBusy *time.Time) {
	o := r.ov
	period := r.cfg.ReportPeriodMs
	if lvl >= BrownoutDegraded {
		period *= uint32(o.cfg.WidenFactor)
	}
	_ = conn.Send(subscriptionRequest(reqID, period, r.cfg.Tracer.Enabled(), !r.cfg.DisableBatching))
	if lvl == BrownoutCritical && o.cfg.BusyPause > 0 {
		o.busyFrames.Inc()
		*lastBusy = time.Now()
		_ = conn.Send(e2.NewBusyMessage(o.cfg.BusyPause, "ric: brownout critical"))
	}
}

// acquireShard takes one association slot on preferred, spilling onto any
// other shard with spare budget when preferred is full — per-shard budgets
// bound goroutines per domain, but an unlucky hash must not refuse an
// association the RIC as a whole has room for.
func (r *RIC) acquireShard(preferred *shard) (*shard, bool) {
	select {
	case preferred.sem <- struct{}{}:
		return preferred, true
	default:
	}
	for i := 1; i < len(r.shards); i++ {
		sh := r.shards[(preferred.id+i)%len(r.shards)]
		select {
		case sh.sem <- struct{}{}:
			r.ov.spills.Inc()
			return sh, true
		default:
		}
	}
	return nil, false
}

// OverloadStats is the flat snapshot of the overload-control layer,
// including the shed ledger (Offered == Delivered + ShedOverflow +
// ShedStale + ShedTeardown + RefusedLate at quiescence).
type OverloadStats struct {
	BrownoutLevel        string  `json:"brownout_level"`
	Offered              uint64  `json:"offered"`
	Delivered            uint64  `json:"delivered"`
	ShedOverflow         uint64  `json:"shed_overflow"`
	ShedStale            uint64  `json:"shed_stale"`
	ShedTeardown         uint64  `json:"shed_teardown"`
	RefusedLate          uint64  `json:"refused_late"`
	BusyAdmission        uint64  `json:"busy_admission_refusals"`
	RefusedSubscriptions uint64  `json:"refused_subscriptions"`
	BusyBackpressure     uint64  `json:"busy_backpressure_frames"`
	Spills               uint64  `json:"shard_spills"`
	BrownoutTransitions  uint64  `json:"brownout_transitions"`
	DispatchP99Ms        float64 `json:"dispatch_p99_ms"`
}

// OverloadStats snapshots the guards. The second result is always true:
// there is no RIC without them, and the signature survives only because
// bench/ reads it.
func (r *RIC) OverloadStats() (OverloadStats, bool) {
	o := r.ov
	return OverloadStats{
		BrownoutLevel:        o.Level().String(),
		Offered:              o.offered.Value(),
		Delivered:            o.delivered.Value(),
		ShedOverflow:         o.shedOverflow.Value(),
		ShedStale:            o.shedStale.Value(),
		ShedTeardown:         o.shedTeardown.Value(),
		RefusedLate:          o.refusedLate.Value(),
		BusyAdmission:        o.busyAdmission.Value(),
		RefusedSubscriptions: o.refusedSubs.Value(),
		BusyBackpressure:     o.busyFrames.Value(),
		Spills:               o.spills.Value(),
		BrownoutTransitions:  o.transitions.Value(),
		DispatchP99Ms:        float64(o.dispatchP99().Nanoseconds()) / 1e6,
	}, true
}

// BrownoutLevel returns the current brownout level.
func (r *RIC) BrownoutLevel() BrownoutLevel { return r.ov.Level() }
