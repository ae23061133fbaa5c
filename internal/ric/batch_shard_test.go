package ric

import (
	"bytes"
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

	plain, pa := runReports(t, Config{}, AgentConfig{Cell: cell}, reports)
	if pa.Batched() {
		t.Fatal("window-1 agent negotiated batching")
	}
	batched, ba := runReports(t, Config{}, AgentConfig{Cell: cell, Batch: BatchConfig{Window: 4, FlushInterval: time.Hour}}, reports)
	if !ba.Batched() {
		t.Fatal("batch-capable pair failed to negotiate batching")
	}
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
	if !a.Batched() {
		t.Fatal("batch-capable pair failed to negotiate batching")
	}
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

// TestBatchRICInteropsWithUnbatchedAgent covers one capability direction: a
// batch-capable RIC against an agent that never configured batching. The
// agent must not answer the capability token, frames stay per-slot, and the
// association works end to end.
func TestBatchRICInteropsWithUnbatchedAgent(t *testing.T) {
	const reports = 10
	r, a := runReports(t, Config{}, AgentConfig{Cell: 3}, reports)
	if a.Batched() {
		t.Fatal("unbatched agent claims a batched association")
	}
	if frames := a.BatchFrames(); frames != 0 {
		t.Fatalf("unbatched agent sent %d batch frames", frames)
	}
	s := r.Stats()
	if s.Indications != reports || s.BatchFrames != 0 {
		t.Fatalf("RIC saw %d indications / %d batch frames, want %d / 0", s.Indications, s.BatchFrames, reports)
	}
}

// TestBatchAgentInteropsWithNonBatchRIC covers the other direction: an agent
// configured for batching against a RIC that disabled it. Without the
// advertised bit the agent must keep sending per-slot indications — never a
// frame the RIC does not expect.
func TestBatchAgentInteropsWithNonBatchRIC(t *testing.T) {
	const reports = 10
	r, a := runReports(t, Config{DisableBatching: true},
		AgentConfig{Cell: 3, Batch: BatchConfig{Window: 4}}, reports)
	if a.Batched() {
		t.Fatal("agent negotiated batching against a DisableBatching RIC")
	}
	if frames := a.BatchFrames(); frames != 0 {
		t.Fatalf("agent sent %d batch frames to a non-batch RIC", frames)
	}
	if pend := a.PendingBatched(); pend != 0 {
		t.Fatalf("agent buffered %d indications it can never batch", pend)
	}
	s := r.Stats()
	if s.Indications != reports || s.BatchFrames != 0 {
		t.Fatalf("RIC saw %d indications / %d batch frames, want %d / 0", s.Indications, s.BatchFrames, reports)
	}
}

// TestShardedFanInDistributesAndCounts hammers a sharded RIC with concurrent
// batched associations (run with -race): every association lands on a shard,
// the per-shard counters sum exactly to the fleet totals, and the hash
// spreads associations across more than one shard.
func TestShardedFanInDistributesAndCounts(t *testing.T) {
	const (
		agents    = 16
		reports   = 8
		window    = 4
		wantInds  = agents * reports
		wantFrame = agents * reports / window
	)
	r, addr := servedRIC(t, Config{Shards: 4, ReportPeriodMs: 1})

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
	if s.LiveAssociations != agents || s.RefusedAssociations != 0 {
		t.Fatalf("live %d refused %d, want %d / 0", s.LiveAssociations, s.RefusedAssociations, agents)
	}
	var sumAssoc, sumInds, sumFrames uint64
	populated := 0
	for _, sh := range r.ShardStats() {
		sumAssoc += sh.Associations
		sumInds += sh.Indications
		sumFrames += sh.BatchFrames
		if sh.Associations > 0 {
			populated++
		}
	}
	if sumAssoc != agents || sumInds != wantInds || sumFrames != wantFrame {
		t.Fatalf("shard sums %d/%d/%d do not match totals %d/%d/%d",
			sumAssoc, sumInds, sumFrames, agents, wantInds, wantFrame)
	}
	if populated < 2 {
		t.Fatalf("all %d associations hashed onto one shard of %d", agents, len(r.ShardStats()))
	}
}

// TestShardBudgetRefusesWithBusyFrame pins the overload contract: an
// association arriving when every shard is full is turned away with an
// explicit TypeBusy frame naming the exhausted budget and carrying a
// retry-after hint — not a silent close — and the refusal is counted without
// disturbing the association already served.
func TestShardBudgetRefusesWithBusyFrame(t *testing.T) {
	r, addr := servedRIC(t, Config{Shards: 1, MaxAssocPerShard: 1, ReportPeriodMs: 1})

	first := startAgent(t, addr, &seqRAN{}, AgentConfig{Cell: 1})
	if first.Period() == 0 {
		t.Fatal("first association not subscribed")
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
	if s.RefusedAssociations != 1 || s.LiveAssociations != 1 {
		t.Fatalf("refused %d live %d, want 1 / 1", s.RefusedAssociations, s.LiveAssociations)
	}
	// The served association is undisturbed.
	if err := first.Tick(0); err != nil {
		t.Fatal(err)
	}
	waitIndications(t, r, 1)
}

// TestShardStatsCoverEveryShard pins the observability shape: ShardStats
// returns exactly Config.Shards entries, ordered and labelled by shard ID.
func TestShardStatsCoverEveryShard(t *testing.T) {
	r := MustNew(Config{Shards: 5})
	stats := r.ShardStats()
	if len(stats) != 5 {
		t.Fatalf("ShardStats returned %d entries, want 5", len(stats))
	}
	for i, s := range stats {
		if s.Shard != i {
			t.Fatalf("entry %d labelled shard %d", i, s.Shard)
		}
		if s.Associations != 0 || s.LiveAssociations != 0 {
			t.Fatalf("fresh shard %d reports activity: %+v", i, s)
		}
	}
}
