package ric

import (
	"fmt"
	"slices"
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
	// LivenessTimeout, when > 0, is how long the RIC may stay silent
	// (heartbeats count) before the association is declared dead and the
	// Start-returned channel yields e2.ErrAssociationDead; Start waits at
	// most two timeouts for the subscription. Set it to a few heartbeat
	// intervals. Zero disables liveness tracking.
	LivenessTimeout time.Duration
	// Tracer, when non-nil, stamps a trace context on every indication
	// frame and records indication.encode/transport spans on the gNB plane.
	Tracer *trace.Tracer
	// Batch configures windowed indication batching: with a window over
	// one, due-slot indications leave in e2.IndicationBatch frames.
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
// RIC can track liveness. A control is answered only when the answer is
// news (see answers): a refusal, or the verdict on a scheduler swap or
// upload; an applied parameter control shows in the next indication. Its
// replies are held only while the next frame is already buffered, so a run
// of controls that arrived together is answered in one write.
//
// With batching configured, due-slot indications coalesce
// into one e2.IndicationBatch frame per window; a partial window is flushed
// once its oldest entry has waited Batch.FlushInterval (checked from Tick,
// so flush latency is quantized to the slot cadence) or when Flush is
// called at teardown.
type Agent struct {
	conn *e2.Conn
	ran  RANControl
	cfg  AgentConfig

	// assoc runs the association's lifecycle (handshake, liveness) from
	// Start; closing stop, when set, ends it.
	assoc *assocDriver
	stop  <-chan struct{}

	periodSlots atomic.Uint64 // metric-exempt: subscription cadence (0: not subscribed), not telemetry

	// pausedUntilNs, when in the future, is a busy-frame backpressure pause:
	// due-slot indications are shed at the source until it passes.
	pausedUntilNs atomic.Int64 // metric-exempt: pause deadline, not telemetry

	// indMsg is the frame Tick sends an unbatched indication in. Only Tick
	// uses it, on the owner's slot loop.
	indMsg e2.Message

	// batchMu guards the pending window and the spare: Tick appends from
	// the slot loop while the owner may Flush from another goroutine.
	batchMu sync.Mutex
	pending *window // filling; nil when nothing is buffered
	spare   *window // a flushed window kept for reuse

	mu           sync.Mutex
	sliceFilter  []uint32
	indications  uint64
	batchFrames  uint64
	controlsOK   uint64
	controlsFail uint64
	resubscribes uint64
	busyFrames   uint64 // TypeBusy backpressure frames received mid-association
	pausedSheds  uint64 // due-slot indications shed at the source while paused
	lost         uint64 // indications whose write failed (a window's all count)

	// replies are the control acks, heartbeat echoes and error reports the
	// receive loop owes the RIC. They wait only behind frames already
	// buffered, and leave together in one write (flushReplies). Owned by the
	// receive loop; never more than maxPendingReplies long.
	replies   []reply
	replyPtrs []*e2.Message
}

// maxPendingReplies bounds the replies the receive loop holds back: a run
// of buffered frames longer than this is answered in several writes.
const maxPendingReplies = 64

// window is one batch of due-slot indications and the frame it leaves in.
// It belongs to the agent while it fills and to one Flush while its write is
// in flight; only then does it come back, as the spare.
type window struct {
	inds   []e2.Indication
	since  time.Time // when the oldest indication was buffered
	build  time.Time // buildStart of the first indication (traced)
	traced bool
	batch  e2.IndicationBatch
	msg    e2.Message
}

// reply is one queued answer, with storage for a control ack's body so
// queueing allocates nothing once the slice has grown.
type reply struct {
	msg e2.Message
	ack e2.ControlAck
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

// Start blocks until the RIC's subscription request arrives, acknowledges
// it, and spawns the control-receive loop. The returned channel yields the
// terminal error of the receive loop (nil on clean shutdown,
// e2.ErrAssociationDead when liveness failed).
func (a *Agent) Start() (<-chan error, error) {
	a.assoc = &assocDriver{core: assocCore{p: agentParams(a.cfg)}, conn: a.conn, do: a.do}
	a.assoc.step(assocEvent{kind: evConnect})
	unwatch := a.assoc.watch(a.stop)
	ended, err := a.receive(true)
	// The ack goes out before Start returns, so it precedes every
	// indication; a refused first frame is answered too.
	if flushErr := a.flushReplies(); flushErr != nil && !ended {
		ended, err = a.assoc.step(assocEvent{kind: evError, err: flushErr})
	}
	if ended {
		unwatch()
		return nil, err
	}
	done := make(chan error, 1)
	go func() {
		err := a.recvLoop()
		unwatch()
		done <- err
	}()
	return done, nil
}

// do carries out the core's actions. The agent's core sends only in answer
// to a frame, so every send is a reply the receive loop owes.
func (a *Agent) do(act action) {
	switch act.kind {
	case actSend:
		a.queueReply(*act.msg)
	case actSubscribed:
		a.periodSlots.Store(act.sub.periodSlots)
		a.mu.Lock()
		a.sliceFilter = act.sub.sliceIDs
		if act.sub.resub {
			a.resubscribes++
		}
		a.mu.Unlock()
	case actPause:
		// Due-slot indications during the pause are shed at the source, the
		// cheapest shed (nothing is encoded or sent), and counted.
		a.pausedUntilNs.Store(act.at.UnixNano())
		a.mu.Lock()
		a.busyFrames++
		a.mu.Unlock()
	}
}

func (a *Agent) recvLoop() error {
	for {
		// Answer before any Recv that could block: a reply waits for the
		// frames already read off the network, never for the network.
		if n := len(a.replies); n > 0 && (n == maxPendingReplies || !a.conn.FrameBuffered()) {
			if err := a.flushReplies(); err != nil {
				_, err = a.assoc.step(assocEvent{kind: evError, err: err})
				return err
			}
		}
		if ended, err := a.receive(false); ended {
			return err
		}
	}
}

// receive reads one frame: a control request is applied and, when its
// outcome is news, answered; anything else, and every frame of the
// handshake, goes through the core.
func (a *Agent) receive(handshake bool) (bool, error) {
	m, err := a.conn.Recv()
	switch {
	case err != nil:
		_ = a.flushReplies() // best effort: the association is ending
		return a.assoc.step(assocEvent{kind: evError, err: err})
	case handshake || m.Type != e2.TypeControlRequest:
		return a.assoc.step(assocEvent{kind: evFrame, msg: m})
	}
	applyErr := a.applyControl(m)
	a.mu.Lock()
	if applyErr == nil {
		a.controlsOK++
	} else {
		a.controlsFail++
	}
	a.mu.Unlock()
	if applyErr == nil && !answers(m.Control.Action) {
		return false, nil
	}
	r := a.queueReply(e2.Message{Type: e2.TypeControlAck, RequestID: m.RequestID, RANFunction: m.RANFunction})
	r.ack.Accepted = applyErr == nil
	if applyErr != nil {
		r.ack.Reason = applyErr.Error()
	}
	return false, nil
}

// answers reports whether an applied control of kind act is acknowledged.
// A scheduler swap or upload is: its verdict (the supervisor may reject the
// candidate) shows in no KPM report. A parameter control is not: the next
// indication carries its effect, so an ack would be a frame nobody reads —
// the choice E2AP's RIC Control Ack Request IE offers as nAck-only. A
// refused control is always answered, with its reason.
func answers(act e2.ControlAction) bool {
	return act == e2.ActionSwapScheduler || act == e2.ActionUploadScheduler
}

// queueReply appends m to the replies owed and returns its slot, valid
// until the next queueReply.
func (a *Agent) queueReply(m e2.Message) *reply {
	a.replies = append(a.replies, reply{msg: m})
	return &a.replies[len(a.replies)-1]
}

// flushReplies sends every queued reply in one write and empties the
// queue, keeping its storage.
func (a *Agent) flushReplies() error {
	if len(a.replies) == 0 {
		return nil
	}
	ptrs := a.replyPtrs[:0]
	for i := range a.replies {
		r := &a.replies[i]
		if r.msg.Type == e2.TypeControlAck {
			r.msg.ControlAck = &r.ack
		}
		ptrs = append(ptrs, &r.msg)
	}
	err := a.conn.SendAll(ptrs...)
	clear(a.replies) // drop references to reasons and error bodies
	a.replies = a.replies[:0]
	a.replyPtrs = ptrs[:0]
	return err
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

// Tick is called by the owner after each MAC slot, from one goroutine; at
// the subscribed cadence it snapshots KPM state and sends (or, on a batched
// association, buffers) an indication. On every slot — due or not — it
// checks the pending window's flush deadline.
func (a *Agent) Tick(slot uint64) error {
	period := a.periodSlots.Load()
	if a.Paused() {
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
	tracing := a.cfg.Tracer.Enabled()
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
	if a.cfg.Batch.enabled() {
		return a.bufferIndication(ind, tracing, buildStart)
	}
	msg := &a.indMsg
	*msg = e2.Message{
		Type:        e2.TypeIndication,
		RANFunction: e2.RANFunctionKPM,
		Indication:  ind,
	}
	var err error
	if tracing {
		err = a.sendTraced(msg, slot, buildStart)
	} else {
		err = a.conn.Send(msg)
	}
	if err != nil {
		a.lose(1)
	}
	return err
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
	w := a.pending
	if w == nil {
		w, a.spare = a.spare, nil
		if w == nil {
			w = &window{}
		}
		w.since, w.build, w.traced = time.Now(), buildStart, tracing
		a.pending = w
	}
	w.inds = append(w.inds, *ind)
	full := len(w.inds) >= a.cfg.Batch.Window
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
	overdue := a.pending != nil && time.Since(a.pending.since) >= a.cfg.Batch.FlushInterval
	a.batchMu.Unlock()
	if !overdue {
		return nil
	}
	return a.Flush()
}

// Flush sends the pending indication window immediately (a no-op when
// nothing is buffered). Owners call it at teardown so buffered indications
// are not lost with the association; it may run concurrently with Tick.
func (a *Agent) Flush() error {
	a.batchMu.Lock()
	w := a.pending
	a.pending = nil
	a.batchMu.Unlock()
	if w == nil {
		return nil
	}
	err := a.sendWindow(w)
	// The write has returned, so nothing reads the window any more: it
	// becomes the spare the next window fills.
	clear(w.inds) // drop the snapshots' rows
	w.inds = w.inds[:0]
	a.batchMu.Lock()
	if a.spare == nil {
		a.spare = w
	}
	a.batchMu.Unlock()
	return err
}

// sendWindow writes one window as one batch frame; a failed write loses, and
// counts, every indication in it.
func (a *Agent) sendWindow(w *window) error {
	w.batch = e2.IndicationBatch{Indications: w.inds}
	w.msg = e2.Message{
		Type:        e2.TypeIndicationBatch,
		RANFunction: e2.RANFunctionKPM,
		Batch:       &w.batch,
	}
	var err error
	if w.traced {
		err = a.sendTraced(&w.msg, w.inds[0].Slot, w.build)
	} else {
		err = a.conn.Send(&w.msg)
	}
	if err != nil {
		a.lose(len(w.inds))
		return err
	}
	a.mu.Lock()
	a.batchFrames++
	a.mu.Unlock()
	return nil
}

// lose counts n indications that died with a failed write.
func (a *Agent) lose(n int) {
	a.mu.Lock()
	a.lost += uint64(n)
	a.mu.Unlock()
}

// Paused reports whether the agent is currently shedding at the source
// because of a busy-frame backpressure pause.
func (a *Agent) Paused() bool {
	u := a.pausedUntilNs.Load()
	return u != 0 && time.Now().UnixNano() < u
}

// OverloadCounters reports agent-side overload accounting: busy frames
// received mid-association, due-slot indications shed at the source while
// paused, and indications lost with a failed write (every one in a lost
// window).
func (a *Agent) OverloadCounters() (busyFrames, pausedSheds, lost uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.busyFrames, a.pausedSheds, a.lost
}

// Period returns the subscribed indication cadence in slots (0 before the
// first subscription).
func (a *Agent) Period() uint64 { return a.periodSlots.Load() }

// Counters reports indication and control outcomes.
func (a *Agent) Counters() (indications, controlsOK, controlsFail uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.indications, a.controlsOK, a.controlsFail
}

// BatchFrames reports how many batched indication frames were written; a
// window lost with its write is not one of them.
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

// filterIndication copies the rows of ind whose slice is in sliceIDs (a
// few, so a scan beats a set) into row lists sized once: three allocations.
func filterIndication(ind *e2.Indication, sliceIDs []uint32) *e2.Indication {
	out := &e2.Indication{Slot: ind.Slot, Cell: ind.Cell,
		UEs:    make([]e2.UEMeasurement, 0, len(ind.UEs)),
		Slices: make([]e2.SliceMeasurement, 0, len(ind.Slices)),
	}
	for _, u := range ind.UEs {
		if slices.Contains(sliceIDs, u.SliceID) {
			out.UEs = append(out.UEs, u)
		}
	}
	for _, s := range ind.Slices {
		if slices.Contains(sliceIDs, s.SliceID) {
			out.Slices = append(out.Slices, s)
		}
	}
	return out
}
