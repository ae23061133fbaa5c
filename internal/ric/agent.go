package ric

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"waran/internal/e2"
	"waran/internal/obs/trace"
)

// RANControl is the control surface an E2 node exposes to its agent — the
// "host functions" the gNB makes available to the RIC in the paper's
// design. core.GNB implements it.
type RANControl interface {
	// Snapshot reports current KPM state.
	Snapshot(cell uint32) *e2.Indication
	// Apply executes one control action.
	Apply(c *e2.ControlRequest) error
}

// TracedRANControl is optionally implemented by RANControl targets (core.GNB
// does) to receive the causal trace context of a control action, so the
// apply, any supervised canary swap, and the first affected slot join the
// decision's span tree. Agents fall back to Apply when the target doesn't
// implement it or the control is untraced.
type TracedRANControl interface {
	ApplyTraced(c *e2.ControlRequest, ctx trace.Context) error
}

// AgentConfig is the validated construction surface of an Agent — nothing
// is poked post-construction. The zero value is a working default
// (untraced, unbatched, no liveness bound).
type AgentConfig struct {
	// Cell identifies which cell this agent reports.
	Cell uint32
	// LivenessTimeout, when > 0, bounds the silence tolerated from the
	// RIC: if no frame (heartbeats included) arrives for this long, the
	// agent declares the association dead, closes the conn, and the
	// Start-returned channel yields e2.ErrAssociationDead. Set it to a
	// few multiples of the RIC's heartbeat interval. Zero disables
	// liveness tracking (the pre-resilience behaviour).
	LivenessTimeout time.Duration
	// Tracer, when non-nil, lets the agent negotiate trace propagation
	// with the RIC and record indication.encode/transport spans on the gNB
	// plane.
	Tracer *trace.Tracer
	// Batch configures windowed indication batching. It only takes effect
	// on associations whose RIC advertised e2.BatchCapabilityBit; against
	// older peers the agent keeps sending per-slot indications.
	Batch BatchConfig
}

// Validate checks the configuration.
func (c AgentConfig) Validate() error {
	if c.LivenessTimeout < 0 {
		return fmt.Errorf("ric: negative liveness timeout %v", c.LivenessTimeout)
	}
	return c.Batch.Validate()
}

// Agent is the gNB-side endpoint of the E2-lite association: it answers the
// RIC's subscription (including mid-association re-subscriptions), streams
// indications at the subscribed cadence (driven by Tick from the MAC slot
// loop), applies incoming control actions, and echoes heartbeats so the
// RIC can track liveness.
//
// With batching configured and negotiated, due-slot indications coalesce
// into one e2.IndicationBatch frame per window; a partial window is flushed
// once its oldest entry has waited Batch.FlushInterval (checked from Tick,
// so flush latency is quantized to the slot cadence) or when Flush is
// called at teardown.
type Agent struct {
	conn *e2.Conn
	ran  RANControl
	cfg  AgentConfig

	subscribed  atomic.Bool
	periodSlots atomic.Uint64 // metric-exempt: subscription cadence, not telemetry
	dead        atomic.Bool
	peerTraced  atomic.Bool // RIC advertised e2.TraceCapabilityBit and we accepted
	peerBatched atomic.Bool // both sides advertised batch capability

	// pausedUntilNs, when in the future, is a busy-frame backpressure pause:
	// due-slot indications are shed at the source until it passes.
	pausedUntilNs atomic.Int64 // metric-exempt: pause deadline, not telemetry

	// batchMu guards the pending window: Tick appends from the slot loop
	// while a re-subscription on the receive loop may renegotiate
	// capability mid-window.
	batchMu       sync.Mutex
	pending       []e2.Indication
	pendingSince  time.Time // when the oldest pending indication was buffered
	pendingBuild  time.Time // buildStart of the first pending indication (traced)
	pendingTraced bool

	mu           sync.Mutex
	sliceFilter  []uint32
	indications  uint64
	batchFrames  uint64
	controlsOK   uint64
	controlsFail uint64
	resubscribes uint64
	busyFrames   uint64 // TypeBusy backpressure frames received mid-association
	pausedSheds  uint64 // due-slot indications shed at the source while paused
	lostInFlush  uint64 // window remainder lost when a Flush send died mid-loop
}

// NewAgent creates an agent for one association from a validated
// configuration.
func NewAgent(conn *e2.Conn, ran RANControl, cfg AgentConfig) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Batch = cfg.Batch.withDefaults()
	return &Agent{conn: conn, ran: ran, cfg: cfg}, nil
}

// Cell returns the cell this agent reports.
func (a *Agent) Cell() uint32 { return a.cfg.Cell }

// Start blocks until the RIC's subscription request arrives, acknowledges
// it, and spawns the control-receive loop (plus the liveness watchdog when
// LivenessTimeout is set). The returned channel yields the terminal error
// of the receive loop (nil on clean shutdown, e2.ErrAssociationDead when
// liveness failed).
func (a *Agent) Start() (<-chan error, error) {
	if a.cfg.LivenessTimeout > 0 {
		// A RIC that never subscribes is as dead as one that stops
		// heartbeating: bound the subscription wait too.
		_ = a.conn.SetReadDeadline(time.Now().Add(2 * a.cfg.LivenessTimeout))
	}
	m, err := a.conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("ric: agent: waiting for subscription: %w", err)
	}
	if a.cfg.LivenessTimeout > 0 {
		_ = a.conn.SetReadDeadline(time.Time{})
	}
	if m.Type == e2.TypeBusy {
		// Admission refusal: the RIC is overloaded and never subscribed.
		// Surface the typed error so the supervisor can honor the
		// retry-after hint instead of hammering the plain backoff schedule.
		return nil, &e2.BusyError{RetryAfter: m.Busy.RetryAfter(), Reason: m.Busy.Reason}
	}
	if m.Type != e2.TypeSubscriptionRequest {
		refusal := &e2.Message{Type: e2.TypeError, Error: &e2.ErrorBody{Reason: "expected subscription-request"}}
		_ = a.conn.Send(refusal)
		return nil, fmt.Errorf("ric: agent: unexpected first message %s", m.Type)
	}
	if err := a.applySubscription(m); err != nil {
		return nil, err
	}

	done := make(chan error, 1)
	recvDone := make(chan struct{})
	go func() {
		err := a.recvLoop()
		close(recvDone)
		done <- err
	}()
	if a.cfg.LivenessTimeout > 0 {
		go a.watchdog(recvDone)
	}
	return done, nil
}

// applySubscription installs (or replaces) the subscription state and acks
// it — shared by the initial handshake and mid-association re-subscribes.
func (a *Agent) applySubscription(m *e2.Message) error {
	period := uint64(m.Subscription.ReportPeriodMs)
	if period == 0 {
		period = 100
	}
	a.periodSlots.Store(period) // 1 ms slots: ms == slots
	a.mu.Lock()
	a.sliceFilter = append([]uint32(nil), m.Subscription.SliceIDs...)
	a.mu.Unlock()
	ack := &e2.Message{
		Type:             e2.TypeSubscriptionResponse,
		RequestID:        m.RequestID,
		RANFunction:      m.RANFunction,
		SubscriptionResp: &e2.SubscriptionResponse{Accepted: true},
	}
	// Capability negotiation: a capable RIC sets reserved bits in
	// RANFunction (old agents echo them untouched); a capable agent
	// answers with the matching tokens in Reason (old RICs only read
	// Reason on rejection, and the trace-only RIC of the previous protocol
	// generation compares Reason against exactly the trace token — so the
	// batch token is appended only when the RIC advertised batching, which
	// that generation never does). Indications get trace trailers or
	// batched framing only after both halves advertised.
	reason := ""
	if m.RANFunction&e2.TraceCapabilityBit != 0 && a.cfg.Tracer.Enabled() {
		reason = e2.AppendCapabilityToken(reason, e2.TraceCapabilityToken)
		a.peerTraced.Store(true)
	} else {
		a.peerTraced.Store(false)
	}
	if m.RANFunction&e2.BatchCapabilityBit != 0 && a.cfg.Batch.enabled() {
		reason = e2.AppendCapabilityToken(reason, e2.BatchCapabilityToken)
		a.peerBatched.Store(true)
	} else {
		a.peerBatched.Store(false)
	}
	ack.SubscriptionResp.Reason = reason
	if err := a.conn.Send(ack); err != nil {
		return err
	}
	a.subscribed.Store(true)
	return nil
}

// watchdog declares the association dead when nothing has arrived for
// LivenessTimeout, closing the conn so the blocked recvLoop returns
// promptly instead of hanging on a half-open TCP stream.
func (a *Agent) watchdog(recvDone <-chan struct{}) {
	interval := a.cfg.LivenessTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-recvDone:
			return
		case <-ticker.C:
			if time.Since(a.conn.LastRecv()) > a.cfg.LivenessTimeout {
				a.dead.Store(true)
				a.conn.Close()
				return
			}
		}
	}
}

func (a *Agent) recvLoop() error {
	for {
		m, err := a.conn.Recv()
		if err != nil {
			if a.dead.Load() {
				return e2.ErrAssociationDead
			}
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		switch m.Type {
		case e2.TypeControlRequest:
			applyErr := a.applyControl(m)
			ack := &e2.Message{
				Type:        e2.TypeControlAck,
				RequestID:   m.RequestID,
				RANFunction: m.RANFunction,
				ControlAck:  &e2.ControlAck{Accepted: applyErr == nil},
			}
			a.mu.Lock()
			if applyErr == nil {
				a.controlsOK++
			} else {
				a.controlsFail++
				ack.ControlAck.Reason = applyErr.Error()
			}
			a.mu.Unlock()
			if err := a.conn.Send(ack); err != nil {
				return err
			}
		case e2.TypeHeartbeat:
			// Echo heartbeats so both sides can detect liveness.
			if err := a.conn.Send(&e2.Message{Type: e2.TypeHeartbeat}); err != nil {
				return err
			}
		case e2.TypeBusy:
			// Mid-association backpressure: the RIC is in brownout and asks
			// us to pause KPM generation. Due-slot indications during the
			// pause are shed at the source — the cheapest possible shed,
			// nothing is encoded or sent — and counted for the ledger.
			a.pausedUntilNs.Store(time.Now().Add(m.Busy.RetryAfter()).UnixNano())
			a.mu.Lock()
			a.busyFrames++
			a.mu.Unlock()
		case e2.TypeSubscriptionRequest:
			// Mid-association re-subscription: the RIC adjusts cadence or
			// slice filter (or re-asserts after its own restart). Apply
			// the new parameters and re-ack instead of dropping it.
			a.mu.Lock()
			a.resubscribes++
			a.mu.Unlock()
			if err := a.applySubscription(m); err != nil {
				return err
			}
		default:
			// Unknown or out-of-place message: report it to the peer
			// instead of silently dropping the frame.
			reply := &e2.Message{
				Type:      e2.TypeError,
				RequestID: m.RequestID,
				Error:     &e2.ErrorBody{Reason: fmt.Sprintf("agent: unexpected %s", m.Type)},
			}
			if err := a.conn.Send(reply); err != nil {
				return err
			}
		}
	}
}

// applyControl routes a control request into the RAN, through the traced
// path when the request carries a live trace context and the target
// understands it.
func (a *Agent) applyControl(m *e2.Message) error {
	if m.Trace.Valid() {
		if tc, ok := a.ran.(TracedRANControl); ok {
			return tc.ApplyTraced(m.Control, m.Trace)
		}
	}
	return a.ran.Apply(m.Control)
}

// Tick is called by the owner after each MAC slot; at the subscribed
// cadence it snapshots KPM state and sends (or, on a batched association,
// buffers) an indication. On every slot — due or not — it checks the
// pending window's flush deadline.
func (a *Agent) Tick(slot uint64) error {
	if !a.subscribed.Load() {
		return nil
	}
	period := a.periodSlots.Load()
	if paused := a.paused(); paused {
		// Busy-frame pause: shed due-slot indications at the source and
		// hold partial windows too — flushing mid-pause would defeat the
		// backpressure the RIC asked for.
		if period != 0 && slot%period == 0 {
			a.mu.Lock()
			a.pausedSheds++
			a.mu.Unlock()
		}
		return nil
	}
	if period == 0 || slot%period != 0 {
		return a.flushIfOverdue()
	}
	tracing := a.cfg.Tracer.Enabled() && a.peerTraced.Load()
	var buildStart time.Time
	if tracing {
		buildStart = time.Now()
	}
	ind := a.ran.Snapshot(a.cfg.Cell)
	a.mu.Lock()
	filter := a.sliceFilter
	a.indications++
	a.mu.Unlock()
	if len(filter) > 0 {
		ind = filterIndication(ind, filter)
	}
	if a.peerBatched.Load() && a.cfg.Batch.enabled() {
		return a.bufferIndication(ind, tracing, buildStart)
	}
	msg := &e2.Message{
		Type:        e2.TypeIndication,
		RANFunction: e2.RANFunctionKPM,
		Indication:  ind,
	}
	if !tracing {
		return a.conn.Send(msg)
	}
	return a.sendTraced(msg, slot, buildStart)
}

// sendTraced sends msg carrying a fresh trace context and records the
// indication.encode + transport spans. The wire carries the transport
// span's ID so the RIC's decode span parents to it; buildStart anchors the
// encode span at the moment KPM state was snapshotted.
func (a *Agent) sendTraced(msg *e2.Message, slot uint64, buildStart time.Time) error {
	ctx := trace.NewContext()
	transportID := trace.NewSpanID()
	msg.Trace = trace.Context{TraceID: ctx.TraceID, SpanID: transportID}
	sendStart := time.Now()
	err := a.conn.Send(msg)
	sendDur := time.Since(sendStart)
	encDur := a.conn.LastEncodeDur()
	a.cfg.Tracer.Record(&trace.Span{
		TraceID: ctx.TraceID, SpanID: ctx.SpanID,
		Name: trace.SpanIndicationEncode, Plane: trace.PlaneGNB,
		Slot: slot, Cell: a.cfg.Cell,
		StartNs: buildStart.UnixNano(),
		DurNs:   int64(sendStart.Sub(buildStart) + encDur),
	})
	sp := &trace.Span{
		TraceID: ctx.TraceID, SpanID: transportID, Parent: ctx.SpanID,
		Name: trace.SpanTransport, Plane: trace.PlaneGNB,
		Slot: slot, Cell: a.cfg.Cell,
		StartNs: sendStart.Add(encDur).UnixNano(),
		DurNs:   int64(sendDur - encDur),
	}
	if err != nil {
		sp.Err = err.Error()
	}
	a.cfg.Tracer.Record(sp)
	return err
}

// bufferIndication appends one due-slot indication to the pending window,
// flushing when the window fills.
func (a *Agent) bufferIndication(ind *e2.Indication, tracing bool, buildStart time.Time) error {
	a.batchMu.Lock()
	if len(a.pending) == 0 {
		a.pendingSince = time.Now()
		a.pendingBuild = buildStart
		a.pendingTraced = tracing
	}
	a.pending = append(a.pending, *ind)
	full := len(a.pending) >= a.cfg.Batch.Window
	a.batchMu.Unlock()
	if full {
		return a.Flush()
	}
	return nil
}

// flushIfOverdue flushes a partial window whose oldest indication has
// waited past the flush interval.
func (a *Agent) flushIfOverdue() error {
	a.batchMu.Lock()
	overdue := len(a.pending) > 0 && time.Since(a.pendingSince) >= a.cfg.Batch.FlushInterval
	a.batchMu.Unlock()
	if !overdue {
		return nil
	}
	return a.Flush()
}

// Flush sends the pending indication window immediately (a no-op when
// nothing is buffered). Owners call it at teardown so buffered indications
// are not lost with the association.
func (a *Agent) Flush() error {
	a.batchMu.Lock()
	pending := a.pending
	buildStart := a.pendingBuild
	tracing := a.pendingTraced
	a.pending = nil
	a.batchMu.Unlock()
	if len(pending) == 0 {
		return nil
	}
	if !a.peerBatched.Load() {
		// The peer renegotiated away from batching mid-window (RIC restart
		// re-subscribed without the capability): deliver the buffered
		// indications individually rather than sending a frame it no
		// longer expects.
		for i := range pending {
			msg := &e2.Message{Type: e2.TypeIndication, RANFunction: e2.RANFunctionKPM, Indication: &pending[i]}
			if err := a.conn.Send(msg); err != nil {
				// The conn died mid-loop: the rest of the window dies with
				// it. Account for every undelivered indication (including
				// the one that failed) instead of silently forgetting them.
				a.mu.Lock()
				a.lostInFlush += uint64(len(pending) - i)
				a.mu.Unlock()
				return err
			}
		}
		return nil
	}
	a.mu.Lock()
	a.batchFrames++
	a.mu.Unlock()
	msg := &e2.Message{
		Type:        e2.TypeIndicationBatch,
		RANFunction: e2.RANFunctionKPM,
		Batch:       &e2.IndicationBatch{Indications: pending},
	}
	if !tracing || !a.peerTraced.Load() {
		return a.conn.Send(msg)
	}
	return a.sendTraced(msg, pending[0].Slot, buildStart)
}

// paused reports whether a busy-frame backpressure pause is in effect.
func (a *Agent) paused() bool {
	u := a.pausedUntilNs.Load()
	return u != 0 && time.Now().UnixNano() < u
}

// Paused reports whether the agent is currently shedding at the source
// because of a busy-frame backpressure pause.
func (a *Agent) Paused() bool { return a.paused() }

// OverloadCounters reports agent-side overload accounting: busy frames
// received mid-association, due-slot indications shed at the source while
// paused, and indications lost when a Flush send died mid-window.
func (a *Agent) OverloadCounters() (busyFrames, pausedSheds, lostInFlush uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.busyFrames, a.pausedSheds, a.lostInFlush
}

// PendingBatched reports how many indications are buffered awaiting a
// window flush.
func (a *Agent) PendingBatched() int {
	a.batchMu.Lock()
	defer a.batchMu.Unlock()
	return len(a.pending)
}

// Batched reports whether batching was negotiated on this association.
func (a *Agent) Batched() bool { return a.peerBatched.Load() }

// Period returns the subscribed indication cadence in slots (0 before the
// first subscription).
func (a *Agent) Period() uint64 { return a.periodSlots.Load() }

// Counters reports indication and control outcomes.
func (a *Agent) Counters() (indications, controlsOK, controlsFail uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.indications, a.controlsOK, a.controlsFail
}

// BatchFrames reports how many batched indication frames were sent.
func (a *Agent) BatchFrames() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.batchFrames
}

// Resubscribes reports how many mid-association re-subscriptions were
// applied (the initial subscription is not counted).
func (a *Agent) Resubscribes() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.resubscribes
}

func filterIndication(ind *e2.Indication, sliceIDs []uint32) *e2.Indication {
	want := make(map[uint32]bool, len(sliceIDs))
	for _, id := range sliceIDs {
		want[id] = true
	}
	out := &e2.Indication{Slot: ind.Slot, Cell: ind.Cell}
	for _, u := range ind.UEs {
		if want[u.SliceID] {
			out.UEs = append(out.UEs, u)
		}
	}
	for _, s := range ind.Slices {
		if want[s.SliceID] {
			out.Slices = append(out.Slices, s)
		}
	}
	return out
}
