package ric

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"waran/internal/e2"
	"waran/internal/guard"
	"waran/internal/metrics"
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
// Associations hash onto shards (Config.Shards): each shard carries its own
// goroutine budget, counters, and obs instruments, and the xApp registry is
// a copy-on-write snapshot, so indication fan-in from concurrent
// associations never serializes on a global lock.
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

	shards    []*shard
	nextShard atomic.Uint64 // metric-exempt: round-robin tiebreak, not telemetry

	// ov is the guard state every association passes: admission gates, shed
	// ledger, brownout level. See overload.go.
	ov *overload
}

// shard is one association domain: associations hash here and every
// hot-path counter lives here, padded apart from its siblings so fan-in
// from one shard never bounces a cache line another shard writes.
type shard struct {
	id  int
	sem chan struct{} // association goroutine budget

	indications metrics.Counter
	controls    metrics.Counter
	batchFrames metrics.Counter
	assocTotal  metrics.Counter
	refused     metrics.Counter
	live        atomic.Int64 // metric-exempt: gauge (needs decrement), snapshot via Stats
	_           [64]byte     // keep the next shard's counters off this cache line
}

func newShard(id, budget int) *shard {
	return &shard{id: id, sem: make(chan struct{}, budget)}
}

// ShardStats is the flat snapshot of one association shard.
type ShardStats struct {
	Shard            int    `json:"shard"`
	LiveAssociations int64  `json:"live_associations"`
	Associations     uint64 `json:"associations"`
	Refused          uint64 `json:"refused"`
	Indications      uint64 `json:"indications"`
	BatchFrames      uint64 `json:"batch_frames"`
	Controls         uint64 `json:"controls"`
}

func (s *shard) stats() ShardStats {
	return ShardStats{
		Shard:            s.id,
		LiveAssociations: s.live.Load(),
		Associations:     s.assocTotal.Value(),
		Refused:          s.refused.Value(),
		Indications:      s.indications.Value(),
		BatchFrames:      s.batchFrames.Value(),
		Controls:         s.controls.Value(),
	}
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
// ABI; a zero policy receives a 16 MiB cap and 10M-instruction fuel budget.
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
	if policy.MaxMemoryPages == 0 {
		policy.MaxMemoryPages = 256
	}
	if policy.Fuel == 0 {
		policy.Fuel = 10_000_000
	}
	// xApp isolation: every dispatch is bounded by Policy.Fuel (a spinning
	// guest traps with wabi.FailFuel), optionally by a wall-clock deadline
	// too, and outcomes are metered through a guard breaker so a
	// persistently bad xApp is skipped.
	ov := r.cfg.Overload
	if policy.CallTimeout == 0 && ov.XAppDeadline > 0 {
		policy.CallTimeout = ov.XAppDeadline
	}
	x := &XApp{Name: name, breaker: guard.NewBreaker(ov.Breaker)}
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
	plugin, err := wabi.NewPlugin(mod, policy, env)
	if err != nil {
		return nil, fmt.Errorf("ric: instantiate xApp %q: %w", name, err)
	}
	if !plugin.HasEntry(XAppEntry) {
		return nil, fmt.Errorf("ric: xApp %q does not export %q with signature () -> i32", name, XAppEntry)
	}
	x.plugin = plugin
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

// RemoveXApp uninstalls an xApp — like slice plugins, xApps come and go
// without restarting the RIC.
func (r *RIC) RemoveXApp(name string) error {
	r.instMu.Lock()
	defer r.instMu.Unlock()
	byName := *r.byName.Load()
	x, ok := byName[name]
	if !ok {
		return fmt.Errorf("ric: no xApp %q", name)
	}
	var list []*XApp
	for _, v := range r.xappSnapshot() {
		if v != x {
			list = append(list, v)
		}
	}
	next := make(map[string]*XApp, len(byName))
	for k, v := range byName {
		if k != name {
			next[k] = v
		}
	}
	r.storeXApps(list, next)
	return nil
}

// HandleIndication dispatches one indication to every enabled xApp and
// returns the aggregated control actions. Individual xApp faults are
// contained (counted, possibly quarantining the xApp) and do not fail the
// dispatch.
func (r *RIC) HandleIndication(ind *e2.Indication) []e2.ControlRequest {
	out, _ := r.HandleIndicationTraced(ind, trace.Context{})
	return out
}

// HandleIndicationTraced is HandleIndication carrying the indication's trace
// context: with tracing on, the whole xApp dispatch is recorded as one
// xapp.invoke span and the returned context names that span, so the caller
// parents the resulting control sends to it. With a zero ctx (or no tracer)
// it behaves exactly like HandleIndication and echoes ctx back.
//
// Direct calls account on shard 0; associations served by ServeConn account
// on their own shard.
func (r *RIC) HandleIndicationTraced(ind *e2.Indication, ctx trace.Context) ([]e2.ControlRequest, trace.Context) {
	return r.handleIndicationOn(r.shards[0], ind, ctx)
}

func (r *RIC) handleIndicationOn(sh *shard, ind *e2.Indication, ctx trace.Context) ([]e2.ControlRequest, trace.Context) {
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
	payload := e2.AppendIndicationBody(nil, ind)
	var out []e2.ControlRequest
	for _, x := range r.xappSnapshot() {
		list, err := x.invoke(r, payload)
		if err != nil {
			continue // fault already recorded
		}
		out = append(out, list...)
	}
	sh.indications.Inc()
	if len(out) > 0 {
		sh.controls.Add(uint64(len(out)))
	}
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

// SendControl sends one control request on conn. When parent belongs to a
// live trace (and a tracer is attached) the message carries the trace
// trailer and the send is recorded as control.encode + transport spans.
// Callers must only pass a live parent on associations whose agent
// negotiated trace capability — old decoders reject unexpected trailers.
func (r *RIC) SendControl(conn *e2.Conn, reqID uint32, c *e2.ControlRequest, parent trace.Context) error {
	cm := &e2.Message{
		Type:        e2.TypeControlRequest,
		RequestID:   reqID,
		RANFunction: e2.RANFunctionRC,
		Control:     c,
	}
	if !r.cfg.Tracer.Enabled() || !parent.Valid() {
		return conn.Send(cm)
	}
	encodeID := trace.NewSpanID()
	transportID := trace.NewSpanID()
	cm.Trace = trace.Context{TraceID: parent.TraceID, SpanID: transportID}
	sendStart := time.Now()
	err := conn.Send(cm)
	sendDur := time.Since(sendStart)
	encDur := conn.LastEncodeDur()
	r.cfg.Tracer.Record(&trace.Span{
		TraceID: parent.TraceID, SpanID: encodeID, Parent: parent.SpanID,
		Name: trace.SpanControlEncode, Plane: trace.PlaneRIC,
		StartNs: sendStart.UnixNano(), DurNs: int64(encDur),
	})
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

// Counters reports processed indication and emitted control counts summed
// across shards.
func (r *RIC) Counters() (indications, controls uint64) {
	for _, sh := range r.shards {
		indications += sh.indications.Value()
		controls += sh.controls.Value()
	}
	return indications, controls
}

// RICStats is the flat snapshot of the RIC's dispatch accounting.
type RICStats struct {
	Indications uint64 `json:"indications"`
	Controls    uint64 `json:"controls"`
	BatchFrames uint64 `json:"batch_frames"`
	// LiveAssociations is the number of associations currently served.
	LiveAssociations int64 `json:"live_associations"`
	// RefusedAssociations counts associations turned away at admission:
	// critical brownout, an empty token bucket, or every shard budget full.
	RefusedAssociations uint64 `json:"refused_associations"`
}

// Stats returns dispatch and association totals summed across shards.
func (r *RIC) Stats() RICStats {
	var s RICStats
	for _, sh := range r.shards {
		s.Indications += sh.indications.Value()
		s.Controls += sh.controls.Value()
		s.BatchFrames += sh.batchFrames.Value()
		s.LiveAssociations += sh.live.Load()
		s.RefusedAssociations += sh.refused.Value()
	}
	return s
}

// ShardStats returns per-shard association and dispatch counters.
func (r *RIC) ShardStats() []ShardStats {
	out := make([]ShardStats, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.stats()
	}
	return out
}

// Register exposes the RIC on reg: dispatch counters, per-shard
// association fan-in instruments (one labelled series per shard), per-xApp
// invocation accounting, the shed ledger and brownout counters, the xApp
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
				{Suffix: "_live_associations", Value: float64(s.LiveAssociations)},
				{Suffix: "_refused_associations_total", Value: float64(s.RefusedAssociations)},
			}
		},
		JSON: func() any { return r.Stats() },
	}, labels...)
	reg.MustRegister("waran_ric_shard", "per-shard association fan-in counters", obs.Func{
		Kind: obs.KindUntyped,
		Collect: func() []obs.Sample {
			var out []obs.Sample
			for _, sh := range r.shards {
				s := sh.stats()
				lbl := []obs.Label{obs.L("shard", fmt.Sprint(s.Shard))}
				out = append(out,
					obs.Sample{Suffix: "_live_associations", Labels: lbl, Value: float64(s.LiveAssociations)},
					obs.Sample{Suffix: "_associations_total", Labels: lbl, Value: float64(s.Associations)},
					obs.Sample{Suffix: "_indications_total", Labels: lbl, Value: float64(s.Indications)},
					obs.Sample{Suffix: "_batch_frames_total", Labels: lbl, Value: float64(s.BatchFrames)},
					obs.Sample{Suffix: "_controls_total", Labels: lbl, Value: float64(s.Controls)},
				)
			}
			return out
		},
		JSON: func() any { return r.ShardStats() },
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
				{Suffix: "_shard_spills_total", Value: float64(s.Spills)},
				{Suffix: "_brownout_transitions_total", Value: float64(s.BrownoutTransitions)},
				{Suffix: "_brownout_level", Value: float64(r.ov.level.Load())},
				{Suffix: "_dispatch_p99_ms", Value: s.DispatchP99Ms},
			}
		},
		JSON: func() any { s, _ := r.OverloadStats(); return s },
	}, labels...)
	r.Modules.Register(reg, labels...)
	if r.cfg.Assoc != nil {
		r.cfg.Assoc.Register(reg, labels...)
	}
}

// DefaultMissedHeartbeatLimit is how many consecutive silent heartbeat
// intervals declare an association dead when the RIC does not override it.
const DefaultMissedHeartbeatLimit = 3

// shardFor hashes an association onto a shard by its remote address;
// connections without a usable address spread round-robin.
func (r *RIC) shardFor(conn *e2.Conn) *shard {
	if addr := conn.RemoteAddr(); addr != nil {
		if s := addr.String(); s != "" {
			h := fnv.New32a()
			_, _ = io.WriteString(h, s)
			return r.shards[h.Sum32()%uint32(len(r.shards))]
		}
	}
	return r.shards[r.nextShard.Add(1)%uint64(len(r.shards))]
}

// Serve accepts associations on lis until stop closes, spawning one
// ServeConn goroutine per association (subject to the shard budgets) and
// waiting for them to finish. Closing stop closes the listener to unblock
// Accept; the caller keeps ownership of lis.
func (r *RIC) Serve(lis *e2.Listener, stop <-chan struct{}) error {
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		<-stop
		lis.Close()
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
// closed, or (with HeartbeatInterval set) liveness fails. Control acks and
// heartbeat echoes are consumed and counted. Closing stop closes the conn
// so a Recv blocked on a silent peer returns promptly. The association
// occupies one slot of a shard's goroutine budget.
//
// Admission runs three gates in order, each refusing with a TypeBusy
// retry-after hint: a critically browned-out RIC refuses outright; the hashed
// shard's token bucket (hint sized to its refill) turns a reconnect stampede
// after a RIC restart into a ramp at AdmitRate per shard; and the shard
// budget, spilling onto any shard with room, refuses only when every shard
// is full.
func (r *RIC) ServeConn(conn *e2.Conn, stop <-chan struct{}) error {
	hashed := r.shardFor(conn)
	refuse := func(counter *metrics.Counter, gate string, retryAfter time.Duration, reason string) error {
		hashed.refused.Inc()
		counter.Inc()
		r.recordAdmissionRefused(gate)
		_ = conn.Send(e2.NewBusyMessage(retryAfter, "ric: "+reason))
		conn.Close()
		return fmt.Errorf("ric: refusing association: %s (retry in %v)", reason, retryAfter)
	}
	if lvl := r.ov.Level(); lvl >= BrownoutCritical {
		return refuse(&r.ov.refusedSubs, "brownout-critical", r.ov.cfg.RetryAfter,
			fmt.Sprintf("brownout %s, refusing new subscriptions", lvl))
	}
	if ok, retryAfter := r.ov.admitAssoc(hashed.id, time.Now()); !ok {
		return refuse(&r.ov.busyAdmission, "token-bucket", retryAfter,
			fmt.Sprintf("shard %d admission gate closed", hashed.id))
	}
	sh, ok := r.acquireShard(hashed)
	if !ok {
		return refuse(&r.ov.busyAdmission, "budget-exhausted", r.ov.cfg.RetryAfter,
			fmt.Sprintf("shard %d association budget (%d) exhausted", hashed.id, cap(hashed.sem)))
	}
	defer func() { <-sh.sem }()
	sh.assocTotal.Inc()
	sh.live.Add(1)
	defer sh.live.Add(-1)
	return r.serveConn(sh, conn, stop)
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

// subscriptionMsg builds the RIC's subscription request at the given report
// period, advertising every capability the configuration enables — shared by
// the association handshake and brownout-driven mid-association
// re-subscriptions, so the agent renegotiates identical capabilities.
func (r *RIC) subscriptionMsg(reportPeriodMs uint32) *e2.Message {
	sub := &e2.Message{
		Type:         e2.TypeSubscriptionRequest,
		RequestID:    1,
		RANFunction:  e2.RANFunctionKPM,
		Subscription: &e2.SubscriptionRequest{ReportPeriodMs: reportPeriodMs},
	}
	if r.cfg.Tracer.Enabled() {
		// Advertise trace capability in the reserved RANFunction bit; old
		// agents echo it back untouched and keep sending untraced frames.
		sub.RANFunction |= e2.TraceCapabilityBit
	}
	if !r.cfg.DisableBatching {
		sub.RANFunction |= e2.BatchCapabilityBit
	}
	return sub
}

func (r *RIC) serveConn(sh *shard, conn *e2.Conn, stop <-chan struct{}) error {
	if err := conn.Send(r.subscriptionMsg(r.cfg.ReportPeriodMs)); err != nil {
		return err
	}

	// The supervisor owns every reason to abandon a blocked Recv: stop
	// closing, and heartbeat liveness. Both act by closing the conn; the
	// flags tell the receive loop which exit it was.
	var stopped, dead atomic.Bool
	recvDone := make(chan struct{})
	superviseDone := make(chan struct{})
	go r.supervise(conn, stop, recvDone, superviseDone, &stopped, &dead)
	defer func() { close(recvDone); <-superviseDone }()

	// The receive loop only enqueues KPM indications (so a slow dispatch can
	// never back the TCP stream up into the agent); the dispatcher drains
	// the bounded queue, shedding by policy. Control acks, heartbeats and
	// errors are handled inline — they are never queued, never shed.
	q := newAssocQueue(r.ov.cfg.QueueDepth)
	go r.dispatchLoop(sh, conn, q)
	defer func() { close(q.quit); <-q.done }()

	assocTraced := false // agent answered with e2.TraceCapabilityToken
	for {
		m, err := conn.Recv()
		if err != nil {
			switch {
			case stopped.Load():
				return nil
			case dead.Load():
				return e2.ErrAssociationDead
			case errors.Is(err, io.EOF):
				return nil
			}
			return err
		}
		switch m.Type {
		case e2.TypeSubscriptionResponse:
			if !m.SubscriptionResp.Accepted {
				return fmt.Errorf("ric: subscription refused: %s", m.SubscriptionResp.Reason)
			}
			// The echoed RANFunction bit must NOT signal agent capability —
			// an old agent echoes it untouched. Only the explicit token
			// (inside the Reason's capability token list) does.
			assocTraced = r.cfg.Tracer.Enabled() &&
				e2.HasCapabilityToken(m.SubscriptionResp.Reason, e2.TraceCapabilityToken)
		case e2.TypeIndication:
			ctx := r.decodeCtx(conn, m.Trace, assocTraced, m.Indication.Slot, m.Indication.Cell)
			r.enqueueIndication(q, queuedInd{ind: m.Indication, ctx: ctx, enq: time.Now()})
		case e2.TypeIndicationBatch:
			// Unbatch in arrival order into the per-indication queue, so
			// batched delivery is indistinguishable to xApps.
			sh.batchFrames.Inc()
			inds := m.Batch.Indications
			ctx := trace.Context{}
			if len(inds) > 0 {
				ctx = r.decodeCtx(conn, m.Trace, assocTraced, inds[0].Slot, inds[0].Cell)
			}
			now := time.Now()
			for i := range inds {
				r.enqueueIndication(q, queuedInd{ind: &inds[i], ctx: ctx, enq: now})
			}
		case e2.TypeControlAck, e2.TypeHeartbeat:
			// Counted implicitly by the transport; nothing to do.
		case e2.TypeError:
			return fmt.Errorf("ric: peer error: %s", m.Error.Reason)
		}
	}
}

// decodeCtx records the ric.decode span for one received indication frame
// (single or batched) and returns the context downstream dispatch parents
// to; untraced frames return a zero context.
func (r *RIC) decodeCtx(conn *e2.Conn, wire trace.Context, assocTraced bool, slot uint64, cell uint32) trace.Context {
	if !assocTraced || !wire.Valid() {
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

// supervise watches one association from the side: it closes the conn when
// stop fires (prompt shutdown even with a silent peer), and when
// heartbeats are enabled it sends the probe at every interval and declares
// the association dead after MissedHeartbeatLimit silent intervals.
func (r *RIC) supervise(conn *e2.Conn, stop <-chan struct{}, recvDone <-chan struct{},
	done chan<- struct{}, stopped, dead *atomic.Bool) {
	defer close(done)
	var tick <-chan time.Time
	if r.cfg.HeartbeatInterval > 0 {
		ticker := time.NewTicker(r.cfg.HeartbeatInterval)
		defer ticker.Stop()
		tick = ticker.C
	}
	limit := r.cfg.MissedHeartbeatLimit
	if limit <= 0 {
		limit = DefaultMissedHeartbeatLimit
	}
	misses := 0
	for {
		select {
		case <-stop:
			stopped.Store(true)
			conn.Close()
			return
		case <-recvDone:
			return
		case <-tick:
			// A healthy peer's echo keeps the age right around one
			// interval, so allow half an interval of scheduling slack
			// before calling it a miss.
			if time.Since(conn.LastRecv()) > r.cfg.HeartbeatInterval*3/2 {
				misses++
				if r.cfg.Assoc != nil {
					r.cfg.Assoc.MissedHeartbeats.Inc()
				}
				if misses >= limit {
					dead.Store(true)
					if r.cfg.Assoc != nil {
						r.cfg.Assoc.DeadAssociations.Inc()
					}
					conn.Close()
					return
				}
			} else {
				misses = 0
			}
			// Probe regardless: the agent echoes, refreshing LastRecv on
			// an otherwise idle but healthy association.
			if err := conn.Send(&e2.Message{Type: e2.TypeHeartbeat}); err != nil {
				return
			}
		}
	}
}
