package ric

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"waran/internal/e2"
	"waran/internal/guard"
	"waran/internal/obs"
	"waran/internal/obs/flight"
	"waran/internal/obs/trace"
	"waran/internal/wabi"
	"waran/internal/wasm"
)

// RIC is the near-RT RIC host: it owns the xApp registry, dispatches
// indications to every enabled xApp, aggregates their control actions, and
// drives E2-lite associations with a fleet of gNBs. Construct it with New
// (or MustNew) from a Config; nothing is poked post-construction.
//
// Concurrent associations share nothing they would contend on: the xApp
// registry is a copy-on-write snapshot, every counter is one atomic add, and
// each xApp's instance pool queues the dispatches that reach it.
type RIC struct {
	cfg Config

	// instMu guards xApp install/remove; readers go through the
	// copy-on-write snapshots below and never take it.
	instMu sync.Mutex
	xapps  atomic.Pointer[[]*XApp]
	byName atomic.Pointer[map[string]*XApp]

	// KPM stores the indication history for analytics and tests (nil when
	// Config.KPMHistory is NoKPMHistory).
	KPM *KPMStore
	// Modules content-addresses uploaded xApp bytecode: installing the
	// same bytes under several names (or re-installing after a remove)
	// compiles once.
	Modules *wabi.ModuleCache

	// lastTraced remembers the most recent traced indication's xapp.invoke
	// context, so out-of-band controls (operator-initiated uploads) can
	// join the decision tree that provoked them.
	lastTraced atomic.Pointer[trace.Context]

	sem chan struct{} // association goroutine budget (Config.MaxAssociations)

	indications obs.Counter
	controls    obs.Counter
	batchFrames obs.Counter
	assocTotal  obs.Counter
	refused     obs.Counter
	live        atomic.Int64 // metric-exempt: gauge (needs decrement), snapshot via Stats

	// ov is the guard state every association passes: admission gate, shed
	// ledger, brownout level. See overload.go.
	ov *overload
}

// storeXApps publishes a new registry snapshot (callers hold instMu, or are
// the constructor).
func (r *RIC) storeXApps(list []*XApp, byName map[string]*XApp) {
	r.xapps.Store(&list)
	r.byName.Store(&byName)
}

func (r *RIC) xappSnapshot() []*XApp { return *r.xapps.Load() }

// Config returns the configuration the RIC was built from (defaults
// applied).
func (r *RIC) Config() Config { return r.cfg }

// Tracer returns the tracer the RIC records spans on (nil when untraced).
func (r *RIC) Tracer() *trace.Tracer { return r.cfg.Tracer }

// AddXAppWAT compiles WAT source and installs it as an xApp. The plugin
// gets the RIC host functions under module "ric" plus the standard wabi
// ABI; a policy without fuel gets wabi.DefaultFuel.
func (r *RIC) AddXAppWAT(name, src string, policy wabi.Policy) (*XApp, error) {
	mod, err := wabi.CompileWAT(src)
	if err != nil {
		return nil, fmt.Errorf("ric: compile xApp %q: %w", name, err)
	}
	return r.AddXApp(name, mod, policy)
}

// AddXAppBytecode installs Wasm bytecode as an xApp — the operator upload
// path. The bytecode is resolved through the RIC's content-addressed
// module cache, so identical bytes decode/validate/flatten at most once.
// api-exempt: no binary wires the operator upload path yet; ROADMAP keeps it open.
func (r *RIC) AddXAppBytecode(name string, bin []byte, policy wabi.Policy) (*XApp, error) {
	mod, err := r.Modules.Load(bin)
	if err != nil {
		return nil, fmt.Errorf("ric: rejected xApp %q bytecode: %w", name, err)
	}
	return r.AddXApp(name, mod, policy)
}

// AddXApp installs a compiled module as an xApp.
func (r *RIC) AddXApp(name string, mod *wabi.Module, policy wabi.Policy) (*XApp, error) {
	r.instMu.Lock()
	defer r.instMu.Unlock()
	byName := *r.byName.Load()
	if _, dup := byName[name]; dup {
		return nil, fmt.Errorf("ric: xApp %q already installed", name)
	}
	if policy.Fuel == 0 {
		policy.Fuel = wabi.DefaultFuel
	}
	// xApp isolation: every dispatch is bounded by Policy.Fuel (a spinning
	// guest traps with wabi.FailFuel), and outcomes are metered through a
	// guard breaker so a persistently bad xApp is skipped.
	x := &XApp{Name: name, breaker: guard.NewBreaker(r.cfg.Overload.Breaker)}
	if rec := r.cfg.Flight; rec.Enabled() {
		// Journal every breaker transition so a diagnostic bundle shows
		// which xApp tripped, and when, relative to the brownout shifts
		// and sheds around it.
		x.breaker.SetTransitionHook(func(from, to guard.State) {
			cls := flight.EvBreakerClose
			switch to {
			case guard.Open:
				cls = flight.EvBreakerOpen
			case guard.HalfOpen:
				cls = flight.EvBreakerHalfOpen
			}
			rec.Record(flight.Event{
				Class: cls, Plane: flight.PlaneRIC,
				Detail: name + ": " + from.String() + "->" + to.String(),
			})
		})
	}
	env := wabi.Env{
		HostFuncs: wasm.Imports{"ric": r.hostFuncs(x)},
	}
	if r.cfg.OnLog != nil {
		env.OnLog = func(msg string) { r.cfg.OnLog(name, msg) }
	}
	if r.cfg.Profile != nil {
		env.Profile = r.cfg.Profile
		env.ProfileTag = name
	}
	// The first instance is made here, so a module that cannot instantiate
	// or lacks the entry point is refused at install, and it waits warm.
	x.pool = wabi.NewPool(mod, policy, env, 1)
	pl, err := x.pool.Get()
	if err != nil {
		return nil, fmt.Errorf("ric: instantiate xApp %q: %w", name, err)
	}
	hasEntry := pl.HasEntry(XAppEntry)
	x.pool.Put(pl)
	if !hasEntry {
		return nil, fmt.Errorf("ric: xApp %q does not export %q with signature () -> i32", name, XAppEntry)
	}
	list := append(append([]*XApp(nil), r.xappSnapshot()...), x)
	next := make(map[string]*XApp, len(byName)+1)
	for k, v := range byName {
		next[k] = v
	}
	next[name] = x
	r.storeXApps(list, next)
	return x, nil
}

// XApp looks up an installed xApp by name.
func (r *RIC) XApp(name string) (*XApp, bool) {
	x, ok := (*r.byName.Load())[name]
	return x, ok
}

// XApps returns installed xApps in installation order.
func (r *RIC) XApps() []*XApp {
	return append([]*XApp(nil), r.xappSnapshot()...)
}

// HandleIndication dispatches one indication to every installed xApp and
// returns the aggregated control actions. Individual xApp faults are
// contained (counted, possibly opening the xApp's breaker) and do not fail
// the dispatch.
// api-exempt: the benchmark module dispatches in-process through it.
func (r *RIC) HandleIndication(ind *e2.Indication) []e2.ControlRequest {
	out, _ := r.HandleIndicationTraced(ind, trace.Context{})
	return out
}

// HandleIndicationTraced is HandleIndication carrying the indication's trace
// context: with tracing on, the whole xApp dispatch is recorded as one
// xapp.invoke span and the returned context names that span, so the caller
// parents the resulting control sends to it. With a zero ctx (or no tracer)
// it behaves exactly like HandleIndication and echoes ctx back.
func (r *RIC) HandleIndicationTraced(ind *e2.Indication, ctx trace.Context) ([]e2.ControlRequest, trace.Context) {
	var sc dispatchScratch
	return r.handleIndicationOn(ind, ctx, &sc)
}

// dispatchScratch is the storage one indication's dispatch reuses from the
// last: the encoded indication the xApps read, their merged control list,
// and the messages that list is sent as. An association's dispatcher owns
// one and sends each list before it handles the next indication; a direct
// caller gets a fresh one, so the list it is returned is its own.
type dispatchScratch struct {
	payload  []byte
	controls []e2.ControlRequest
	msgs     []e2.Message
	ptrs     []*e2.Message
}

// maxRetainedPayload caps the encoded indication a dispatcher keeps between
// indications, as the transport caps its buffers: one outsized report must
// not pin its encoding for the association's life.
const maxRetainedPayload = 64 << 10

func (r *RIC) handleIndicationOn(ind *e2.Indication, ctx trace.Context, sc *dispatchScratch) ([]e2.ControlRequest, trace.Context) {
	tracing := r.cfg.Tracer.Enabled() && ctx.Valid()
	var start time.Time
	if tracing {
		start = time.Now()
		c := trace.Context{TraceID: ctx.TraceID, SpanID: trace.NewSpanID()}
		r.lastTraced.Store(&c)
		defer func() {
			r.cfg.Tracer.Record(&trace.Span{
				TraceID: c.TraceID, SpanID: c.SpanID, Parent: ctx.SpanID,
				Name: trace.SpanXAppInvoke, Plane: trace.PlaneRIC,
				Slot: ind.Slot, Cell: ind.Cell,
				StartNs: start.UnixNano(), DurNs: int64(time.Since(start)),
			})
		}()
		ctx = c
	}
	if r.KPM != nil {
		r.KPM.Record(time.Now(), ind)
	}
	payload := e2.AppendIndicationBody(sc.payload[:0], ind)
	out := sc.controls[:0]
	for _, x := range r.xappSnapshot() {
		// A fault is recorded and appends nothing.
		out, _ = x.invoke(r, payload, out)
	}
	if cap(payload) <= maxRetainedPayload {
		sc.payload = payload
	}
	sc.controls = out
	// Controls first: whoever sees an indication counted sees its controls.
	if len(out) > 0 {
		r.controls.Add(uint64(len(out)))
	}
	r.indications.Inc()
	return out, ctx
}

// LastIndicationTrace returns the xapp.invoke context of the most recent
// traced indication (zero if none yet) — the natural parent for controls
// injected outside the indication loop.
func (r *RIC) LastIndicationTrace() trace.Context {
	if c := r.lastTraced.Load(); c != nil {
		return *c
	}
	return trace.Context{}
}

// SendControl sends cs on conn as control requests numbered reqID,
// reqID+1, …, all in one write. When parent belongs to a live trace (and a
// tracer is attached) every request carries the trace trailer, each is
// recorded as a control.encode span (the write's encode time split evenly
// across its frames), and the write as one transport span parented to the
// last encode, whose ID every request carries on the wire.
func (r *RIC) SendControl(conn *e2.Conn, reqID uint32, cs []e2.ControlRequest, parent trace.Context) error {
	var sc dispatchScratch
	return r.sendControl(conn, reqID, cs, parent, &sc)
}

// sendControl is SendControl framing cs in sc's messages.
func (r *RIC) sendControl(conn *e2.Conn, reqID uint32, cs []e2.ControlRequest, parent trace.Context, sc *dispatchScratch) error {
	if len(cs) == 0 {
		return nil
	}
	traced := r.cfg.Tracer.Enabled() && parent.Valid()
	var transportID uint64
	if traced {
		transportID = trace.NewSpanID()
	}
	msgs := slices.Grow(sc.msgs[:0], len(cs))
	for i := range cs {
		m := e2.Message{
			Type:        e2.TypeControlRequest,
			RequestID:   reqID + uint32(i),
			RANFunction: e2.RANFunctionRC,
			Control:     &cs[i],
		}
		if traced {
			m.Trace = trace.Context{TraceID: parent.TraceID, SpanID: transportID}
		}
		msgs = append(msgs, m)
	}
	ptrs := slices.Grow(sc.ptrs[:0], len(msgs))
	for i := range msgs {
		ptrs = append(ptrs, &msgs[i])
	}
	sc.msgs, sc.ptrs = msgs, ptrs
	if !traced {
		return conn.SendAll(ptrs...)
	}
	sendStart := time.Now()
	err := conn.SendAll(ptrs...)
	sendDur := time.Since(sendStart)
	encDur := conn.LastEncodeDur()
	each := encDur / time.Duration(len(cs))
	var encodeID uint64
	for i := range cs {
		encodeID = trace.NewSpanID()
		r.cfg.Tracer.Record(&trace.Span{
			TraceID: parent.TraceID, SpanID: encodeID, Parent: parent.SpanID,
			Name: trace.SpanControlEncode, Plane: trace.PlaneRIC,
			StartNs: sendStart.Add(time.Duration(i) * each).UnixNano(), DurNs: int64(each),
		})
	}
	sp := &trace.Span{
		TraceID: parent.TraceID, SpanID: transportID, Parent: encodeID,
		Name: trace.SpanTransport, Plane: trace.PlaneRIC,
		StartNs: sendStart.Add(encDur).UnixNano(), DurNs: int64(sendDur - encDur),
	}
	if err != nil {
		sp.Err = err.Error()
	}
	r.cfg.Tracer.Record(sp)
	return err
}

// Counters reports processed indication and emitted control counts.
func (r *RIC) Counters() (indications, controls uint64) {
	return r.indications.Value(), r.controls.Value()
}

// RICStats is the flat snapshot of the RIC's dispatch accounting.
type RICStats struct {
	Indications uint64 `json:"indications"`
	Controls    uint64 `json:"controls"`
	BatchFrames uint64 `json:"batch_frames"`
	// Associations counts associations admitted since the RIC started.
	Associations uint64 `json:"associations"`
	// LiveAssociations is the number of associations currently served.
	LiveAssociations int64 `json:"live_associations"`
	// RefusedAssociations counts associations turned away at admission:
	// critical brownout, an empty token bucket, or a spent budget.
	RefusedAssociations uint64 `json:"refused_associations"`
}

// Stats returns the dispatch and association totals.
func (r *RIC) Stats() RICStats {
	return RICStats{
		Indications:         r.indications.Value(),
		Controls:            r.controls.Value(),
		BatchFrames:         r.batchFrames.Value(),
		Associations:        r.assocTotal.Value(),
		LiveAssociations:    r.live.Load(),
		RefusedAssociations: r.refused.Value(),
	}
}

// Register exposes the RIC on reg: dispatch and association counters,
// per-xApp invocation accounting, the shed ledger and brownout counters, the xApp
// module cache, and — when Assoc is set — the association-resilience
// counters.
func (r *RIC) Register(reg *obs.Registry, labels ...obs.Label) {
	reg.MustRegister("waran_ric", "near-RT RIC indication/control dispatch counters", obs.Func{
		Kind: obs.KindUntyped,
		Collect: func() []obs.Sample {
			s := r.Stats()
			return []obs.Sample{
				{Suffix: "_indications_total", Value: float64(s.Indications)},
				{Suffix: "_controls_total", Value: float64(s.Controls)},
				{Suffix: "_batch_frames_total", Value: float64(s.BatchFrames)},
				{Suffix: "_associations_total", Value: float64(s.Associations)},
				{Suffix: "_live_associations", Value: float64(s.LiveAssociations)},
				{Suffix: "_refused_associations_total", Value: float64(s.RefusedAssociations)},
			}
		},
		JSON: func() any { return r.Stats() },
	}, labels...)
	reg.MustRegister("waran_ric_xapp", "per-xApp invocation and fault counters", obs.Func{
		Kind: obs.KindUntyped,
		Collect: func() []obs.Sample {
			var out []obs.Sample
			for _, x := range r.XApps() {
				s := x.Stats()
				lbl := []obs.Label{obs.L("xapp", x.Name)}
				out = append(out,
					obs.Sample{Suffix: "_invocations_total", Labels: lbl, Value: float64(s.Invocations)},
					obs.Sample{Suffix: "_faults_total", Labels: lbl, Value: float64(s.Faults)},
				)
			}
			return out
		},
		JSON: func() any {
			out := make(map[string]XAppStats)
			for _, x := range r.XApps() {
				out[x.Name] = x.Stats()
			}
			return out
		},
	}, labels...)
	reg.MustRegister("waran_ric_overload", "overload-control shed ledger and brownout counters", obs.Func{
		Kind: obs.KindUntyped,
		Collect: func() []obs.Sample {
			s, _ := r.OverloadStats()
			return []obs.Sample{
				{Suffix: "_offered_total", Value: float64(s.Offered)},
				{Suffix: "_delivered_total", Value: float64(s.Delivered)},
				{Suffix: "_shed_overflow_total", Value: float64(s.ShedOverflow)},
				{Suffix: "_shed_stale_total", Value: float64(s.ShedStale)},
				{Suffix: "_shed_teardown_total", Value: float64(s.ShedTeardown)},
				{Suffix: "_refused_late_total", Value: float64(s.RefusedLate)},
				{Suffix: "_busy_admission_refusals_total", Value: float64(s.BusyAdmission)},
				{Suffix: "_refused_subscriptions_total", Value: float64(s.RefusedSubscriptions)},
				{Suffix: "_busy_backpressure_frames_total", Value: float64(s.BusyBackpressure)},
				{Suffix: "_brownout_transitions_total", Value: float64(s.BrownoutTransitions)},
				{Suffix: "_brownout_level", Value: float64(r.BrownoutLevel())},
			}
		},
		JSON: func() any { s, _ := r.OverloadStats(); return s },
	}, labels...)
	r.Modules.Register(reg, labels...)
	if r.cfg.Assoc != nil {
		r.cfg.Assoc.Register(reg, labels...)
	}
}

// heartbeatMisses is how many consecutive silent heartbeat intervals
// declare an association dead.
const heartbeatMisses = 3

// Serve accepts associations on lis until stop closes, spawning one
// ServeConn goroutine per association (subject to the association budget) and
// waiting for them to finish. Closing stop closes the listener to unblock
// Accept; the caller keeps ownership of lis.
func (r *RIC) Serve(lis *e2.Listener, stop <-chan struct{}) error {
	returned := make(chan struct{})
	defer close(returned)
	go func() {
		select {
		case <-stop:
			lis.Close()
		case <-returned:
		}
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := lis.Accept()
		if err != nil {
			select {
			case <-stop:
				return nil
			default:
				return err
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = r.ServeConn(conn, stop)
			conn.Close()
		}()
	}
}

// ServeConn drives one E2-lite association from the RIC side: subscribe,
// then consume indications (unbatching windowed frames into their per-slot
// indications) and push control actions until the peer closes, stop is
// closed, or (with HeartbeatInterval set) liveness fails (DESIGN.md §10).
// The association occupies one slot of the RIC's goroutine budget.
//
// Admission runs three gates in order, each refusing with a TypeBusy
// retry-after hint: a critically browned-out RIC refuses outright; the token
// bucket (hint sized to its refill) turns a reconnect stampede after a RIC
// restart into a ramp at AdmitRate; and a spent budget refuses.
func (r *RIC) ServeConn(conn *e2.Conn, stop <-chan struct{}) error {
	refuse := func(counter *obs.Counter, gate string, retryAfter time.Duration, reason string) error {
		r.refused.Inc()
		counter.Inc()
		r.recordAdmissionRefused(gate)
		_ = conn.Send(e2.NewBusyMessage(retryAfter, "ric: "+reason))
		conn.Close()
		return fmt.Errorf("ric: refusing association: %s (retry in %v)", reason, retryAfter)
	}
	now := time.Now()
	if lvl := r.ov.Level(now); lvl >= BrownoutCritical {
		return refuse(&r.ov.refusedSubs, "brownout-critical", r.ov.cfg.RetryAfter,
			fmt.Sprintf("brownout %s, refusing new subscriptions", lvl))
	}
	if ok, retryAfter := r.ov.admitAssoc(now); !ok {
		return refuse(&r.ov.busyAdmission, "token-bucket", retryAfter, "admission gate closed")
	}
	select {
	case r.sem <- struct{}{}:
	default:
		return refuse(&r.ov.busyAdmission, "budget-exhausted", r.ov.cfg.RetryAfter,
			fmt.Sprintf("association budget (%d) exhausted", cap(r.sem)))
	}
	defer func() { <-r.sem }()
	r.assocTotal.Inc()
	r.live.Add(1)
	defer r.live.Add(-1)
	return r.serveConn(conn, stop)
}

// recordAdmissionRefused journals one refused association with the gate that
// refused it, so a reconnect stampede is legible in a diagnostic bundle.
func (r *RIC) recordAdmissionRefused(gate string) {
	if rec := r.cfg.Flight; rec.Enabled() {
		rec.Record(flight.Event{
			Class: flight.EvAdmissionRefused, Plane: flight.PlaneRIC,
			Detail: gate,
		})
	}
}

func (r *RIC) serveConn(conn *e2.Conn, stop <-chan struct{}) error {
	assoc := &assocDriver{core: assocCore{p: ricParams(r.cfg)}, conn: conn, do: func(act action) {
		switch act.kind {
		case actSend:
			_ = conn.Send(act.msg) // a dead conn fails the reader too
		case actMiss:
			if r.cfg.Assoc != nil {
				r.cfg.Assoc.MissedHeartbeats.Inc()
			}
		case actClose:
			if errors.Is(act.err, e2.ErrAssociationDead) && r.cfg.Assoc != nil {
				r.cfg.Assoc.DeadAssociations.Inc()
			}
		}
	}}
	assoc.step(assocEvent{kind: evConnect})
	defer assoc.watch(stop)()

	// The receive loop only enqueues KPM indications (so a slow dispatch can
	// never back the TCP stream up into the agent); the dispatcher drains
	// the bounded queue, shedding by policy. Every other frame is handled
	// inline — never queued, never shed.
	q := newAssocQueue(r.ov.cfg.QueueDepth)
	go r.dispatchLoop(conn, q)
	defer func() { close(q.quit); <-q.done }()

	for {
		m, err := conn.Recv()
		if err != nil {
			_, err = assoc.step(assocEvent{kind: evError, err: err})
			return err
		}
		switch m.Type {
		case e2.TypeIndication:
			ctx := r.decodeCtx(conn, m.Trace, m.Indication.Slot, m.Indication.Cell)
			r.enqueueIndication(q, queuedInd{ind: m.Indication, ctx: ctx, enq: time.Now()})
		case e2.TypeIndicationBatch:
			// Unbatch in arrival order into the per-indication queue, so
			// batched delivery is indistinguishable to xApps.
			r.batchFrames.Inc()
			inds := m.Batch.Indications
			ctx := trace.Context{}
			if len(inds) > 0 {
				ctx = r.decodeCtx(conn, m.Trace, inds[0].Slot, inds[0].Cell)
			}
			now := time.Now()
			for i := range inds {
				r.enqueueIndication(q, queuedInd{ind: &inds[i], ctx: ctx, enq: now})
			}
		case e2.TypeControlAck:
			// Counted by the transport; nothing to do.
		default:
			if ended, err := assoc.step(assocEvent{kind: evFrame, msg: m}); ended {
				return err
			}
		}
	}
}

// decodeCtx records the ric.decode span for one received indication frame
// (single or batched) and returns the context downstream dispatch parents
// to. An untraced frame, or any frame at an untraced RIC, returns a zero
// context.
func (r *RIC) decodeCtx(conn *e2.Conn, wire trace.Context, slot uint64, cell uint32) trace.Context {
	if !r.cfg.Tracer.Enabled() || !wire.Valid() {
		return trace.Context{}
	}
	// The wire context names the agent's transport span; the decode span
	// parents to it and everything downstream parents to the decode.
	decDur := conn.LastDecodeDur()
	decID := trace.NewSpanID()
	r.cfg.Tracer.Record(&trace.Span{
		TraceID: wire.TraceID, SpanID: decID, Parent: wire.SpanID,
		Name: trace.SpanRICDecode, Plane: trace.PlaneRIC,
		Slot: slot, Cell: cell,
		StartNs: time.Now().Add(-decDur).UnixNano(), DurNs: int64(decDur),
	})
	return trace.Context{TraceID: wire.TraceID, SpanID: decID}
}
