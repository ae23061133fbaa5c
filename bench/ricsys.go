package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/obs/trace"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/ric"
	"waran/internal/sched"
	"waran/internal/wabi"
)

// The ric_* cells: native round-robin, three slices of eight UEs, and slice
// targets no cell can reach, so the sla xApp boosts every slice on every
// indication: exactly controlsPerIndication controls per report. Every UE's
// MCS is above the steer xApp's floor, so steer runs but hands nobody over.
const (
	ricUEsPerSlice = 8
	// ricLoad offers 6x the Fig. 5a rates, 180 Mb/s against a cell that
	// peaks under 50: with no contracted split to hold a slice back, any
	// lighter load lets a lucky MCS draw drain some UE's queue, and such a
	// seed then runs a different slot (fewer active UEs, fewer allocations).
	ricLoad               = 6.0
	unreachableTargetBps  = 1e9
	controlsPerIndication = 3
	loopPeriodSlots       = 10 // ric_loop: ric.Config.ReportPeriodMs
	firehoseWindow        = 8  // kpm_firehose: agent BatchConfig.Window
	firehoseOutstanding   = 64 // kpm_firehose: indications in flight, all cells
	answerTimeout         = 5 * time.Second
)

var ricSlices = []sliceSpec{{1, "rr", unreachableTargetBps}, {2, "rr", unreachableTargetBps}, {3, "rr", unreachableTargetBps}}

// ricOpts shapes one build of a ric_* workload.
type ricOpts struct {
	firehose bool          // kpm_firehose rather than ric_loop
	cells    int           // associations (at most nproc)
	rec      *recorder     // non-nil: install the decorators
	tracer   *trace.Tracer // non-nil: switch on the program's own tracer
}

// assoc is one cell's live association: both conn ends, the agent, and the
// probe its driver waits on.
type assoc struct {
	cell    *core.GNB
	agent   *ric.Agent
	agentC  *e2.Conn
	ricC    *e2.Conn
	probe   *ranProbe
	done    <-chan error  // agent receive loop's terminal error
	answers chan struct{} // one token per answered indication
	timeout *time.Timer   // await's timer
	sent    uint64        // indications the driver caused
	slot    uint64
	phase   atomic.Pointer[phase] // the timed phase answers are recorded in

	agentProbe, ricProbe *codecProbe // traced runs
	agentRaw, ricRaw     *tracedConn
}

// ricSystem is a built ric_* workload: one RIC with the steer and sla xApps,
// a cell group, and one loopback-TCP association per cell.
type ricSystem struct {
	opts    ricOpts
	r       *ric.RIC
	cg      *core.CellGroup
	lis     net.Listener
	stop    chan struct{}
	serving sync.WaitGroup
	assocs  []*assoc
	samples *sampleBox[*e2.Indication]

	// sent counts indications caused across all cells; a traced run samples
	// sent - RIC.Stats().Indications, the indications in flight.
	sent     atomic.Uint64
	inflight sampleBox[float64]
}

func (o ricOpts) config() ric.Config {
	cfg := ric.Config{ReportPeriodMs: loopPeriodSlots, Tracer: o.tracer}
	if o.firehose {
		cfg.ReportPeriodMs = 1
		// Overload defaults, minus the 10 ms wall-clock deadline on xApp calls:
		// on a shared box a scheduler stall between arming it and a host-call
		// return trips it (about one 2 s run in 40 on the reference box), which
		// is the box failing, not an operation of the program.
		cfg.Overload = &ric.OverloadConfig{XAppDeadline: -1}
		cfg.KPMHistory = ric.NoKPMHistory
	}
	return cfg
}

// newRIC creates the workload's RIC with the steer and sla xApps installed,
// as `cmd/ric -xapps steer,sla` does.
func newRIC(o ricOpts) (*ric.RIC, error) {
	r, err := ric.New(o.config())
	if err != nil {
		return nil, err
	}
	for _, x := range []struct{ name, src string }{
		{"steer", plugins.TrafficSteerXAppWAT}, {"sla", plugins.SLAAssureXAppWAT},
	} {
		if _, err := r.AddXAppWAT(x.name, x.src, wabi.Policy{}); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// buildRIC assembles RIC, cells and associations. Associations are made one
// at a time (dial, accept, serve, subscribe), so the accepted end is known
// to be the dialled one without an accept loop.
func buildRIC(seed int64, o ricOpts) (*ricSystem, error) {
	r, err := newRIC(o)
	if err != nil {
		return nil, err
	}
	cg, err := core.NewCellGroup(ran.CellConfig{}, core.CellGroupConfig{Cells: o.cells, Parallelism: o.cells})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < o.cells; c++ {
		cell := cg.Cell(c)
		for _, sp := range ricSlices {
			if _, err := cell.Slices.AddSlice(sp.id, fmt.Sprintf("slice-%d", sp.id), sp.rateBps, sched.RoundRobin{}, nil); err != nil {
				return nil, err
			}
		}
		// UEs are drawn against the Fig. 5a rates (same slice ids): the
		// unreachable targets are for the xApp, not for sizing traffic.
		for _, u := range drawUEs(rng, fig5aSlices, ricUEsPerSlice, ricLoad) {
			if err := cell.AttachUE(u.build()); err != nil {
				return nil, err
			}
		}
	}
	if o.tracer != nil {
		cg.EnableTracing(o.tracer)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &ricSystem{opts: o, r: r, cg: cg, lis: lis, stop: make(chan struct{}), samples: &sampleBox[*e2.Indication]{}}
	for c := 0; c < o.cells; c++ {
		a, err := s.associate(c)
		if err != nil {
			s.close()
			return nil, err
		}
		s.assocs = append(s.assocs, a)
	}
	return s, nil
}

func (s *ricSystem) associate(c int) (*assoc, error) {
	dialled, err := net.DialTimeout("tcp", s.lis.Addr().String(), time.Second)
	if err != nil {
		return nil, err
	}
	accepted, err := s.lis.Accept()
	if err != nil {
		dialled.Close()
		return nil, err
	}
	a := &assoc{cell: s.cg.Cell(c), answers: make(chan struct{}, firehoseOutstanding), timeout: time.NewTimer(answerTimeout)}
	a.probe = &ranProbe{inner: a.cell, expected: controlsPerIndication}
	var agentCodec, ricCodec e2.Codec = e2.BinaryCodec{}, e2.BinaryCodec{}
	if rec := s.opts.rec; rec != nil {
		ln := rec.lanes[c]
		a.probe.lane = ln
		a.agentProbe = &codecProbe{lane: ln}
		a.ricProbe = &codecProbe{lane: ln, ricSide: true, samples: s.samples}
		agentCodec, ricCodec = traceCodec(agentCodec, a.agentProbe), traceCodec(ricCodec, a.ricProbe)
		a.agentRaw = &tracedConn{Conn: dialled, lane: ln}
		a.ricRaw = &tracedConn{Conn: accepted, lane: ln}
		dialled, accepted = a.agentRaw, a.ricRaw
	}
	a.agentC, a.ricC = e2.NewConn(dialled, agentCodec), e2.NewConn(accepted, ricCodec)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = s.r.ServeConn(a.ricC, s.stop)
		a.ricC.Close()
	}()
	cfg := ric.AgentConfig{Cell: uint32(c + 1), Tracer: s.opts.tracer}
	if s.opts.firehose {
		cfg.Batch = ric.BatchConfig{Window: firehoseWindow}
	}
	a.agent, err = ric.NewAgent(a.agentC, a.probe, cfg)
	if err != nil {
		return nil, err
	}
	// The probe's completion callback is set before Start, which spawns the
	// receive loop that calls it.
	a.probe.onAnswer = a.answered
	if a.done, err = a.agent.Start(); err != nil {
		return nil, err
	}
	return a, nil
}

// answered runs on the agent's receive goroutine when an indication's last
// control has been applied.
func (a *assoc) answered(latency time.Duration) {
	if p := a.phase.Load(); p != nil {
		p.add(float64(latency)/1e3, 1)
	}
	select {
	case a.answers <- struct{}{}:
	default: // the driver never lets more than cap(answers) be outstanding
	}
}

// period is the report cadence in slots.
func (s *ricSystem) period() uint64 {
	if s.opts.firehose {
		return 1
	}
	return loopPeriodSlots
}

// limit is how many indications one cell may have unanswered: one for the
// ric_loop client, an equal share of firehoseOutstanding (kept a whole
// number of batch windows, so a full allowance always flushes) otherwise.
func (s *ricSystem) limit() int {
	if !s.opts.firehose {
		return 1
	}
	per := firehoseOutstanding / s.opts.cells / firehoseWindow * firehoseWindow
	if per < firehoseWindow {
		per = firehoseWindow
	}
	return per
}

// report steps the cell one report period and ticks the agent, which
// snapshots and sends (or buffers) one indication.
func (a *assoc) report(period uint64) error {
	for {
		a.cell.Step()
		a.slot++
		if (a.slot-1)%period == 0 {
			break
		}
	}
	a.sent++
	return a.agent.Tick(a.slot - 1)
}

// await blocks until one more indication has been answered. The timeout
// timer is the association's own, re-armed per wait: a fresh time.After per
// loop would sit in the heap until it fired and be counted as the program's.
func (a *assoc) await() error {
	if !a.timeout.Stop() {
		select {
		case <-a.timeout.C:
		default:
		}
	}
	a.timeout.Reset(answerTimeout)
	select {
	case <-a.answers:
		return nil
	case err := <-a.done:
		return fmt.Errorf("association ended: %v", err)
	case <-a.timeout.C:
		return errors.New("no answer within the timeout")
	}
}

// drive runs one cell's closed loop until the deadline: report whenever
// fewer than limit indications are unanswered, otherwise wait for an answer.
func (s *ricSystem) drive(a *assoc, limit int, until func() bool) (failed uint64, failure string) {
	outstanding := 0
	for !until() {
		if outstanding >= limit {
			if err := a.await(); err != nil {
				return 1, err.Error()
			}
			outstanding--
			continue
		}
		if err := a.report(s.period()); err != nil {
			return 1, err.Error()
		}
		outstanding++
		if sent := s.sent.Add(1); s.opts.rec != nil {
			s.inflight.offer(func() float64 { return float64(sent) - float64(s.r.Stats().Indications) })
		}
		// Collect answers that arrived meanwhile without blocking.
		for drained := false; !drained && outstanding > 0; {
			select {
			case <-a.answers:
				outstanding--
			default:
				drained = true
			}
		}
	}
	if err := a.agent.Flush(); err != nil {
		return 1, err.Error()
	}
	for ; outstanding > 0; outstanding-- {
		if err := a.await(); err != nil {
			return 1, err.Error()
		}
	}
	return 0, ""
}

// firstOp completes one indication on every association.
func (s *ricSystem) firstOp() error {
	for _, a := range s.assocs {
		if err := a.report(s.period()); err != nil {
			return err
		}
		s.sent.Add(1)
		if err := a.agent.Flush(); err != nil {
			return err
		}
		if err := a.await(); err != nil {
			return err
		}
	}
	return nil
}

// warm runs every cell's loop for a fixed number of reports, enough for the
// xApp sandboxes, the connection buffers and the served-rate averages the
// indications carry to settle.
func (s *ricSystem) warm() error {
	n := uint64(300)
	if s.opts.firehose {
		n = 4000
	}
	p := s.runUntil(1, func(a *assoc, _ time.Time) bool { return a.sent >= n }, 0)
	if p.failed > 0 {
		return fmt.Errorf("warm-up: %s", p.failure)
	}
	return nil
}

// run is the timed phase: one driver goroutine per cell, each a closed loop,
// for d cut into segs equal segments.
func (s *ricSystem) run(d time.Duration, segs int) *phase {
	return s.runUntil(segs, func(_ *assoc, begin time.Time) bool { return time.Since(begin) >= d }, d)
}

func (s *ricSystem) runUntil(segs int, stop func(*assoc, time.Time) bool, d time.Duration) *phase {
	phases := make([]*phase, len(s.assocs))
	for i, a := range s.assocs {
		phases[i] = newPhase(segs)
		a.phase.Store(phases[i])
	}
	begin := time.Now()
	var wg sync.WaitGroup
	for i, a := range s.assocs {
		wg.Add(1)
		go func(p *phase, a *assoc) {
			defer wg.Done()
			sent0 := a.sent
			segLen := d / time.Duration(segs)
			for seg := 0; seg < segs; seg++ {
				p.startSegment()
				segEnd := begin.Add(time.Duration(seg+1) * segLen)
				failed, why := s.drive(a, s.limit(), func() bool {
					if segs > 1 && !time.Now().Before(segEnd) {
						return true
					}
					return stop(a, begin)
				})
				p.endSegment()
				if failed > 0 {
					p.failed, p.failure = failed, why
					break
				}
			}
			p.attempted = a.sent - sent0
		}(phases[i], a)
	}
	wg.Wait()
	for _, a := range s.assocs {
		a.phase.Store(nil)
	}
	return mergePhases(phases)
}

// verify is the end-of-run oracle. Every indication sent was processed by
// the RIC and answered by exactly controlsPerIndication applied controls,
// none failed, no xApp faulted; with overload control on, the shed ledger
// balances and is all "delivered".
func (s *ricSystem) verify() error {
	var sent uint64
	for i, a := range s.assocs {
		ind, ok, fail := a.agent.Counters()
		answered, failures, pending := a.probe.counts()
		switch {
		case ind != a.sent:
			return fmt.Errorf("cell %d: agent sent %d indications, driver caused %d", i, ind, a.sent)
		case fail != 0 || failures != 0:
			return fmt.Errorf("cell %d: %d controls refused, %d Apply errors", i, fail, failures)
		case ok != controlsPerIndication*ind:
			return fmt.Errorf("cell %d: %d controls applied for %d indications (want %d each)", i, ok, ind, controlsPerIndication)
		case answered != ind || pending != 0:
			return fmt.Errorf("cell %d: %d of %d indications answered, %d pending", i, answered, ind, pending)
		}
		if busy, shed, lost := a.agent.OverloadCounters(); busy+shed+lost != 0 {
			return fmt.Errorf("cell %d: %d busy frames, %d paused sheds, %d lost in flush", i, busy, shed, lost)
		}
		sent += ind
	}
	st := s.r.Stats()
	if st.Indications != sent || st.Controls != controlsPerIndication*sent {
		return fmt.Errorf("RIC processed %d indications / %d controls, agents sent %d", st.Indications, st.Controls, sent)
	}
	if st.RefusedAssociations != 0 {
		return fmt.Errorf("RIC refused %d associations", st.RefusedAssociations)
	}
	for _, x := range s.r.XApps() {
		if xs := x.Stats(); xs.Faults != 0 || xs.Skipped != 0 || xs.Disabled {
			return fmt.Errorf("xApp %s: %d faults, %d skipped, disabled=%v", x.Name, xs.Faults, xs.Skipped, xs.Disabled)
		}
	}
	if ov, on := s.r.OverloadStats(); on {
		return checkLedger(ov, sent)
	}
	return nil
}

// checkLedger is the kpm_firehose oracle on the RIC's shed ledger: every
// indication sent was offered to a queue, every offered one left through
// exactly one ledger column, and on a healthy run that column is
// "delivered", with the brownout controller never stirring.
func checkLedger(ov ric.OverloadStats, sent uint64) error {
	shed := ov.ShedOverflow + ov.ShedStale + ov.ShedTeardown
	if ov.Offered != ov.Delivered+shed+ov.RefusedLate {
		return fmt.Errorf("shed ledger leaks: offered %d != delivered %d + shed %d + refused %d", ov.Offered, ov.Delivered, shed, ov.RefusedLate)
	}
	if ov.Offered != sent || shed+ov.RefusedLate != 0 || ov.BrownoutTransitions != 0 {
		return fmt.Errorf("overload: offered %d of %d sent, %d shed, %d refused, %d brownout transitions", ov.Offered, sent, shed, ov.RefusedLate, ov.BrownoutTransitions)
	}
	return nil
}

// close tears the associations down and waits for every program goroutine
// the build started.
func (s *ricSystem) close() {
	close(s.stop)
	for _, a := range s.assocs {
		a.agentC.Close()
	}
	s.lis.Close()
	s.serving.Wait()
	for _, a := range s.assocs {
		select {
		case <-a.done:
		case <-time.After(answerTimeout):
		}
	}
}
