package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"waran/internal/e2"
	"waran/internal/obs/trace"
	"waran/internal/ric"
	"waran/internal/sched"
)

// The decorators below are how the harness sees inside the program without
// editing it: each wraps one public interface, forwards every call, and
// records a span around it. They are installed only in traced runs (the
// RANControl probe excepted: it is the closed-loop client's completion
// signal, so both run kinds carry it and pay the same for it).

// sampleEvery is the k of "every k-th request is kept for the replays".
const sampleEvery = 64

// maxSamples bounds each sample set.
const maxSamples = 256

// sampleBox keeps every k-th value offered to it, up to maxSamples.
type sampleBox[T any] struct {
	mu   sync.Mutex
	seen uint64
	kept []T
}

// offer calls clone (and keeps its result) for every sampleEvery-th call.
func (b *sampleBox[T]) offer(clone func() T) {
	b.mu.Lock()
	b.seen++
	if b.seen%sampleEvery == 1 && len(b.kept) < maxSamples {
		b.kept = append(b.kept, clone())
	}
	b.mu.Unlock()
}

func (b *sampleBox[T]) samples() []T {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]T(nil), b.kept...)
}

func cloneRequest(req *sched.Request) *sched.Request {
	c := *req
	c.UEs = append([]sched.UEInfo(nil), req.UEs...)
	return &c
}

func cloneIndication(ind *e2.Indication) *e2.Indication {
	c := *ind
	c.UEs = append([]e2.UEMeasurement(nil), ind.UEs...)
	c.Slices = append([]e2.SliceMeasurement(nil), ind.Slices...)
	return &c
}

// tracedIntra decorates one slice's installed scheduler on one cell. It
// forwards LastFuelUsed so the cell's observability path (which asserts for
// sched.FuelReporter) runs exactly as it does without the decorator.
type tracedIntra struct {
	inner   sched.IntraSlice
	lane    *lane
	samples *sampleBox[*sched.Request] // shared by every cell of one slice
}

func (t *tracedIntra) Name() string { return t.inner.Name() }

func (t *tracedIntra) Schedule(req *sched.Request) (*sched.Response, error) {
	t.samples.offer(func() *sched.Request { return cloneRequest(req) })
	start := t.lane.now()
	resp, err := t.inner.Schedule(req)
	t.lane.addOp(kindSchedule, req.Slot, start, t.lane.now())
	return resp, err
}

func (t *tracedIntra) LastFuelUsed() int64 {
	if fr, ok := t.inner.(sched.FuelReporter); ok {
		return fr.LastFuelUsed()
	}
	return 0
}

// tracedInter decorates a cell's inter-slice scheduler (GNB.Inter).
type tracedInter struct {
	inner sched.InterSlice
	lane  *lane
}

func (t *tracedInter) Name() string { return t.inner.Name() }

func (t *tracedInter) Divide(slot uint64, budget uint32, demands []sched.SliceDemand) map[uint32]uint32 {
	start := t.lane.now()
	out := t.inner.Divide(slot, budget, demands)
	t.lane.addOp(kindInterSlice, slot, start, t.lane.now())
	return out
}

// ranProbe is the RANControl the agents of the ric_* workloads report and
// apply through. It is the closed-loop client: Snapshot stamps the start of
// a control loop, and the Apply that completes the indication's expected
// controls stamps its end and wakes the driver. With a lane it also records
// core.snapshot / core.apply spans and the loop's root span.
type ranProbe struct {
	inner    ric.RANControl
	lane     *lane // nil in untraced runs
	expected int   // controls one indication causes

	mu       sync.Mutex
	started  []time.Time // Snapshot times of indications not yet answered, oldest first
	applies  int         // Apply calls since the last completed indication
	failures uint64      // Apply calls that returned an error
	answered uint64      // indications whose every control was applied
	loopSeq  uint64

	// onAnswer receives the latency of each completed indication; it runs
	// on the agent's receive goroutine.
	onAnswer func(latency time.Duration)
}

var (
	_ ric.RANControl       = (*ranProbe)(nil)
	_ ric.TracedRANControl = (*ranProbe)(nil)
)

func (p *ranProbe) Snapshot(cell uint32) *e2.Indication {
	start := time.Now()
	p.mu.Lock()
	p.started = append(p.started, start)
	p.loopSeq++
	op := p.loopSeq
	p.mu.Unlock()
	if p.lane == nil {
		return p.inner.Snapshot(cell)
	}
	p.lane.setOp(op)
	t0 := p.lane.now()
	ind := p.inner.Snapshot(cell)
	p.lane.add(kindSnapshot, t0, p.lane.now())
	return ind
}

func (p *ranProbe) Apply(c *e2.ControlRequest) error {
	return p.apply(func() error { return p.inner.Apply(c) })
}

// ApplyTraced keeps the program's traced path intact: the agent routes a
// control carrying a trace context here, and the probe hands it to the
// target's own ApplyTraced exactly as the agent would have.
func (p *ranProbe) ApplyTraced(c *e2.ControlRequest, ctx trace.Context) error {
	if tc, ok := p.inner.(ric.TracedRANControl); ok {
		return p.apply(func() error { return tc.ApplyTraced(c, ctx) })
	}
	return p.Apply(c)
}

func (p *ranProbe) apply(call func() error) error {
	var t0 int64
	if p.lane != nil {
		t0 = p.lane.now()
	}
	err := call()
	end := time.Now()
	if p.lane != nil {
		p.lane.add(kindApply, t0, p.lane.now())
	}
	p.mu.Lock()
	if err != nil {
		p.failures++
	}
	p.applies++
	var latency time.Duration
	done := p.applies == p.expected && len(p.started) > 0
	if done {
		p.applies = 0
		latency = end.Sub(p.started[0])
		// Operation ids count up with Snapshot calls and answers arrive in
		// the same order, so the answered count names the loop.
		p.answered++
		if p.lane != nil {
			startNs := int64(p.started[0].Sub(p.lane.epoch))
			p.lane.addOp(kindLoop, p.answered, startNs, startNs+int64(latency))
		}
		p.started = p.started[1:]
	}
	p.mu.Unlock()
	if done && p.onAnswer != nil {
		p.onAnswer(latency)
	}
	return err
}

func (p *ranProbe) counts() (answered, failures uint64, pending int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.answered, p.failures, len(p.started)
}

// codecProbe is what both e2.Codec decorators share: the lane, which end of
// the association it sits on, and the sampled indications.
type codecProbe struct {
	lane    *lane
	ricSide bool
	samples *sampleBox[*e2.Indication]

	// decodedAt is when the RIC side finished decoding an unbatched
	// indication that has not yet produced a control; the next control
	// encode closes the derived ric.dispatch span.
	decodedAt atomic.Int64
}

func (p *codecProbe) afterDecode(m *e2.Message, start, end int64) {
	p.lane.add(kindE2Decode, start, end)
	if !p.ricSide || m == nil {
		return
	}
	switch m.Type {
	case e2.TypeIndication:
		p.samples.offer(func() *e2.Indication { return cloneIndication(m.Indication) })
		p.decodedAt.Store(end)
	case e2.TypeIndicationBatch:
		for i := range m.Batch.Indications {
			ind := &m.Batch.Indications[i]
			p.samples.offer(func() *e2.Indication { return cloneIndication(ind) })
		}
	}
}

func (p *codecProbe) beforeEncode(m *e2.Message, start int64) {
	if p.ricSide && m.Type == e2.TypeControlRequest {
		if at := p.decodedAt.Swap(0); at != 0 {
			p.lane.add(kindRICDispatch, at, start)
		}
	}
}

// tracedCodec decorates an e2.Codec that has no append fast path.
type tracedCodec struct {
	inner e2.Codec
	*codecProbe
}

func (c *tracedCodec) Name() string { return c.inner.Name() }

func (c *tracedCodec) Encode(m *e2.Message) ([]byte, error) {
	start := c.lane.now()
	c.beforeEncode(m, start)
	b, err := c.inner.Encode(m)
	c.lane.add(kindE2Encode, start, c.lane.now())
	return b, err
}

func (c *tracedCodec) Decode(b []byte) (*e2.Message, error) {
	start := c.lane.now()
	m, err := c.inner.Decode(b)
	c.afterDecode(m, start, c.lane.now())
	return m, err
}

// tracedAppendCodec additionally implements e2.AppendEncoder, so e2.Conn.Send
// keeps taking its allocation-free branch when the wrapped codec offers it.
type tracedAppendCodec struct {
	tracedCodec
	app e2.AppendEncoder
}

func (c *tracedAppendCodec) AppendEncode(dst []byte, m *e2.Message) ([]byte, error) {
	start := c.lane.now()
	c.beforeEncode(m, start)
	b, err := c.app.AppendEncode(dst, m)
	c.lane.add(kindE2Encode, start, c.lane.now())
	return b, err
}

// traceCodec wraps inner, keeping its AppendEncoder capability visible.
func traceCodec(inner e2.Codec, probe *codecProbe) e2.Codec {
	tc := tracedCodec{inner: inner, codecProbe: probe}
	if app, ok := inner.(e2.AppendEncoder); ok {
		return &tracedAppendCodec{tracedCodec: tc, app: app}
	}
	return &tc
}

// tracedConn times and counts the Write calls e2.Conn.Send makes.
type tracedConn struct {
	net.Conn
	lane   *lane
	writes atomic.Uint64
}

func (c *tracedConn) Write(b []byte) (int, error) {
	start := c.lane.now()
	n, err := c.Conn.Write(b)
	c.writes.Add(1)
	c.lane.add(kindE2Write, start, c.lane.now())
	return n, err
}
