package ric

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"waran/internal/e2"
)

// seqRAN is a deterministic RANControl whose KPM snapshots vary per call:
// the nth snapshot is a pure function of n. Two associations driven the
// same number of ticks therefore produce identical indication sequences iff
// every report survives its path to the xApp boundary byte-for-byte.
type seqRAN struct {
	mu sync.Mutex
	n  uint64
}

func (s *seqRAN) Snapshot(cell uint32) *e2.Indication {
	s.mu.Lock()
	s.n++
	n := s.n
	s.mu.Unlock()
	return &e2.Indication{
		Slot: n,
		Cell: cell,
		UEs: []e2.UEMeasurement{
			{UEID: 1, SliceID: 1, MCS: int32(n % 28), BufferBytes: uint32(n * 100), TputBps: float64(n) * 1e4},
			{UEID: 2, SliceID: 1, MCS: int32((n + 7) % 28), BufferBytes: uint32(n), TputBps: float64(n) * 3e3},
		},
		Slices: []e2.SliceMeasurement{
			{SliceID: 1, TargetBps: 10e6, ServedBps: float64(n) * 1.3e4, UsedPRBs: uint32(n % 52)},
		},
	}
}

func (s *seqRAN) Apply(c *e2.ControlRequest) error { return nil }

// servedRIC starts a RIC serving a listener and returns it with the address
// to dial; teardown is registered on t.
func servedRIC(t *testing.T, cfg Config) (*RIC, string) {
	t.Helper()
	r := MustNew(cfg)
	lis, err := e2.Listen("127.0.0.1:0", e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = r.Serve(lis, stop)
	}()
	t.Cleanup(func() {
		close(stop)
		<-serveDone
		lis.Close()
	})
	return r, lis.Addr().String()
}

// startAgent dials addr and completes the agent-side handshake.
func startAgent(t *testing.T, addr string, ran RANControl, cfg AgentConfig) *Agent {
	t.Helper()
	conn, err := e2.Dial(addr, e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	a, err := NewAgent(conn, ran, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Start(); err != nil {
		t.Fatal(err)
	}
	return a
}

// waitIndications polls until the RIC has processed want indications.
func waitIndications(t *testing.T, r *RIC, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := r.Stats().Indications; got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("RIC processed %d indications, want %d", r.Stats().Indications, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// xappBoundaryBytes re-encodes the RIC's recorded indication history for one
// cell exactly as HandleIndication presents it to xApps.
func xappBoundaryBytes(r *RIC, cell uint32) [][]byte {
	var out [][]byte
	for _, si := range r.KPM.History(cell, 0) {
		out = append(out, e2.AppendIndicationBody(nil, si.Indication))
	}
	return out
}

// runReports drives one association for reports indication cadences and
// returns the RIC after it has consumed everything. Batching (or not) is
// decided entirely by the two configs under test.
func runReports(t *testing.T, ricCfg Config, agentCfg AgentConfig, reports int) (*RIC, *Agent) {
	t.Helper()
	ricCfg.ReportPeriodMs = 1 // every slot is a report slot
	r, addr := servedRIC(t, ricCfg)
	a := startAgent(t, addr, &seqRAN{}, agentCfg)
	for slot := uint64(0); slot < uint64(reports); slot++ {
		if err := a.Tick(slot); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	waitIndications(t, r, uint64(reports))
	return r, a
}

// TestBatchedDeliveryBitIdenticalAtXAppBoundary is the differential pin for
// windowed batching: the same deterministic report sequence is driven once
// over an unbatched association and once over a batched one (a window that
// stays partial at teardown, so the Flush path is covered too), and the
// per-slot indication bytes at the xApp boundary must match exactly, in
// order. Batching is transparent to xApps or it is broken.
func TestBatchedDeliveryBitIdenticalAtXAppBoundary(t *testing.T) {
	const cell, reports = 7, 22 // 22 = 5 windows of 4 + a flushed partial of 2

	plain, _ := runReports(t, Config{}, AgentConfig{Cell: cell}, reports)
	batched, _ := runReports(t, Config{}, AgentConfig{Cell: cell, Batch: BatchConfig{Window: 4, FlushInterval: time.Hour}}, reports)
	if got := batched.Stats().BatchFrames; got != 6 {
		t.Fatalf("batched run produced %d frames, want 6 (5 full + 1 flushed partial)", got)
	}
	if got := plain.Stats().BatchFrames; got != 0 {
		t.Fatalf("unbatched run produced %d batch frames, want 0", got)
	}

	want := xappBoundaryBytes(plain, cell)
	got := xappBoundaryBytes(batched, cell)
	if len(want) != reports || len(got) != reports {
		t.Fatalf("boundary sequences %d/%d indications, want %d", len(want), len(got), reports)
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("indication %d differs at the xApp boundary:\nunbatched %x\nbatched   %x", i, want[i], got[i])
		}
	}
}

// TestFlushConcurrentWithTick: the owner may Flush from another goroutine
// while Tick fills windows, and windows are reused once written. Every
// report must reach the RIC exactly once and intact; under -race this is
// also the check that no window is refilled while its write is in flight.
func TestFlushConcurrentWithTick(t *testing.T) {
	const cell, reports = 5, 200 // under the queue's depth: nothing sheds
	r, addr := servedRIC(t, Config{ReportPeriodMs: 1})
	ran := &seqRAN{}
	a := startAgent(t, addr, ran, AgentConfig{Cell: cell, Batch: BatchConfig{Window: 4, FlushInterval: time.Hour}})
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		for slot := uint64(0); slot < reports; slot++ {
			if err := a.Tick(slot); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for done := false; !done; {
		select {
		case <-ticked:
			done = true
		default:
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	waitIndications(t, r, reports)
	seen := make(map[uint64]bool, reports)
	for _, si := range r.KPM.History(cell, 0) {
		ind := si.Indication
		want := (&seqRAN{n: ind.Slot - 1}).Snapshot(cell)
		if !bytes.Equal(e2.AppendIndicationBody(nil, ind), e2.AppendIndicationBody(nil, want)) {
			t.Fatalf("report %d arrived altered: %+v", ind.Slot, ind)
		}
		if seen[ind.Slot] {
			t.Fatalf("report %d arrived twice", ind.Slot)
		}
		seen[ind.Slot] = true
	}
	if len(seen) != reports {
		t.Fatalf("%d distinct reports arrived, want %d", len(seen), reports)
	}
}

// TestBatchRICInteropsWithUnbatchedAgent: an agent that never configured
// batching sends per-slot frames, and the association works end to end.
func TestBatchRICInteropsWithUnbatchedAgent(t *testing.T) {
	const reports = 10
	r, a := runReports(t, Config{}, AgentConfig{Cell: 3}, reports)
	if frames := a.BatchFrames(); frames != 0 {
		t.Fatalf("unbatched agent sent %d batch frames", frames)
	}
	s := r.Stats()
	if s.Indications != reports || s.BatchFrames != 0 {
		t.Fatalf("RIC saw %d indications / %d batch frames, want %d / 0", s.Indications, s.BatchFrames, reports)
	}
}

// TestBatchAgentSendsBatchFramesToDefaultRIC: an agent whose window is over
// one batches against a default RIC, with nothing asked or answered first,
// and a partial window leaves at Flush.
func TestBatchAgentSendsBatchFramesToDefaultRIC(t *testing.T) {
	const reports = 10 // two full windows of 4 and a flushed partial of 2
	r, a := runReports(t, Config{}, AgentConfig{Cell: 3, Batch: BatchConfig{Window: 4, FlushInterval: time.Hour}}, reports)
	if frames := a.BatchFrames(); frames != 3 {
		t.Fatalf("agent sent %d batch frames, want 3", frames)
	}
	if a.pending != nil {
		t.Fatalf("agent still buffers %d indications after Flush", len(a.pending.inds))
	}
	s := r.Stats()
	if s.Indications != reports || s.BatchFrames != 3 {
		t.Fatalf("RIC saw %d indications / %d batch frames, want %d / 3", s.Indications, s.BatchFrames, reports)
	}
}

// TestLostWindowIsNotCountedSent: a window whose write fails is counted
// lost, indication by indication, and not as a batch frame sent.
func TestLostWindowIsNotCountedSent(t *testing.T) {
	r, addr := servedRIC(t, Config{ReportPeriodMs: 1})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Writes: the handshake reply, the first window, then a reset.
	conn := e2.NewConn(e2.NewFaultConn(raw, e2.FaultConfig{ResetAfterWrites: 3}), e2.BinaryCodec{})
	t.Cleanup(func() { conn.Close() })
	a, err := NewAgent(conn, &seqRAN{}, AgentConfig{Cell: 1, Batch: BatchConfig{Window: 2, FlushInterval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Start(); err != nil {
		t.Fatal(err)
	}
	for slot := uint64(0); slot < 4; slot++ {
		_ = a.Tick(slot) // the second window's write fails
	}
	// The reset ends the association, and the RIC may shed the delivered
	// window's second indication at teardown: wait for the end, then read
	// what it was offered.
	deadline := time.Now().Add(5 * time.Second)
	for s := r.Stats(); s.Associations != 1 || s.LiveAssociations != 0; s = r.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("the RIC still serves the reset association: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, lost := a.OverloadCounters(); lost != 2 {
		t.Fatalf("agent counted %d indications lost, want the failed window's 2", lost)
	}
	if ov, _ := r.OverloadStats(); ov.Offered != 2 {
		t.Fatalf("RIC was offered %d indications, want the first window's 2", ov.Offered)
	}
	if sent, got := a.BatchFrames(), r.Stats().BatchFrames; sent != 1 || got != 1 {
		t.Fatalf("agent counts %d batch frames sent, RIC got %d; want 1 and 1", sent, got)
	}
}

// TestConcurrentFanInCounts hammers one RIC with concurrent batched
// associations (run with -race): every association is admitted and the
// RIC-wide counters sum exactly to the fleet totals.
func TestConcurrentFanInCounts(t *testing.T) {
	const (
		agents    = 16
		reports   = 8
		window    = 4
		wantInds  = agents * reports
		wantFrame = agents * reports / window
	)
	r, addr := servedRIC(t, Config{ReportPeriodMs: 1})

	var wg sync.WaitGroup
	errs := make(chan error, agents)
	for i := 0; i < agents; i++ {
		a := startAgent(t, addr, &seqRAN{}, AgentConfig{
			Cell:  uint32(i),
			Batch: BatchConfig{Window: window, FlushInterval: time.Hour},
		})
		wg.Add(1)
		go func(a *Agent) {
			defer wg.Done()
			for slot := uint64(0); slot < reports; slot++ {
				if err := a.Tick(slot); err != nil {
					errs <- err
					return
				}
			}
			errs <- a.Flush()
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	waitIndications(t, r, wantInds)

	s := r.Stats()
	if s.Indications != wantInds || s.BatchFrames != wantFrame {
		t.Fatalf("totals %d indications / %d frames, want %d / %d", s.Indications, s.BatchFrames, wantInds, wantFrame)
	}
	if s.Associations != agents || s.LiveAssociations != agents || s.RefusedAssociations != 0 {
		t.Fatalf("admitted %d live %d refused %d, want %d / %d / 0",
			s.Associations, s.LiveAssociations, s.RefusedAssociations, agents, agents)
	}
}

// TestAssociationBudgetRefusesWithBusyFrame pins the overload contract: an
// association arriving when the budget is spent is turned away with an
// explicit TypeBusy frame naming the budget and carrying a retry-after hint
// — not a silent close — and the refusal is counted without disturbing the
// associations already served.
func TestAssociationBudgetRefusesWithBusyFrame(t *testing.T) {
	r, addr := servedRIC(t, Config{MaxAssociations: 2, ReportPeriodMs: 1})

	var served []*Agent
	for cell := uint32(1); cell <= 2; cell++ {
		a := startAgent(t, addr, &seqRAN{}, AgentConfig{Cell: cell})
		if a.Period() == 0 {
			t.Fatalf("association %d not subscribed", cell)
		}
		served = append(served, a)
	}

	over, err := e2.Dial(addr, e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	m, err := over.Recv()
	if err != nil {
		t.Fatalf("refused association got no frame: %v", err)
	}
	if m.Type != e2.TypeBusy {
		t.Fatalf("refused association got %s, want a busy frame", m.Type)
	}
	if !strings.Contains(m.Busy.Reason, "budget") {
		t.Fatalf("refusal reason %q does not name the budget", m.Busy.Reason)
	}
	if m.Busy.RetryAfter() != DefaultRetryAfter {
		t.Fatalf("refusal retry-after = %v, want the %v hint", m.Busy.RetryAfter(), DefaultRetryAfter)
	}

	s := r.Stats()
	if s.RefusedAssociations != 1 || s.LiveAssociations != 2 {
		t.Fatalf("refused %d live %d, want 1 / 2", s.RefusedAssociations, s.LiveAssociations)
	}
	// The served associations are undisturbed.
	for _, a := range served {
		if err := a.Tick(0); err != nil {
			t.Fatal(err)
		}
	}
	waitIndications(t, r, 2)
}
