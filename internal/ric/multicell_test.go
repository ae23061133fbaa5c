package ric

import (
	"sync"
	"testing"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/wabi"
)

// TestOneRICManyGNBs runs one near-RT RIC serving two gNBs concurrently —
// the multivendor scenario the paper motivates: the same xApp bytecode
// controls both cells regardless of whose equipment they are.
func TestOneRICManyGNBs(t *testing.T) {
	r := MustNew(Config{ReportPeriodMs: 10})
	if _, err := r.AddXAppWAT("sla", plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
		t.Fatal(err)
	}

	lis, err := e2.Listen("127.0.0.1:0", e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	stop := make(chan struct{})
	var serveWG sync.WaitGroup
	serveWG.Add(2)
	go func() {
		for i := 0; i < 2; i++ {
			conn, err := lis.Accept()
			if err != nil {
				t.Error(err)
				return
			}
			go func() {
				defer serveWG.Done()
				_ = r.ServeConn(conn, stop)
			}()
		}
	}()

	type cell struct {
		gnb   *core.GNB
		agent *Agent
		slice uint32
	}
	mkCell := func(cellID uint32) *cell {
		gnb, err := core.NewGNB(ran.CellConfig{})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := core.NewPluginScheduler("rr", wabi.Policy{})
		if err != nil {
			t.Fatal(err)
		}
		// Over-ambitious target so the SLA xApp always has work.
		if _, err := gnb.Slices.AddSlice(1, "tenant", 100e6, rr, nil); err != nil {
			t.Fatal(err)
		}
		ue := ran.NewUE(1, 1, 20)
		ue.Traffic = ran.NewCBR(3e6)
		if err := gnb.AttachUE(ue); err != nil {
			t.Fatal(err)
		}
		conn, err := e2.Dial(lis.Addr().String(), e2.BinaryCodec{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		agent, err := NewAgent(conn, gnb, AgentConfig{Cell: cellID})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := agent.Start(); err != nil {
			t.Fatal(err)
		}
		return &cell{gnb: gnb, agent: agent, slice: 1}
	}

	cells := []*cell{mkCell(1), mkCell(2)}

	// Drive both cells; both slices are far under target, so the SLA xApp
	// should boost both weights.
	deadline := time.After(5 * time.Second)
	for slot := 0; ; slot++ {
		boosted := 0
		for _, c := range cells {
			c.gnb.Step()
			if err := c.agent.Tick(uint64(slot)); err != nil {
				t.Fatal(err)
			}
			s, _ := c.gnb.Slices.Slice(c.slice)
			if s.Weight() == 2.0 {
				boosted++
			}
		}
		if boosted == 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("xApp guidance did not reach both cells (boosted=%d)", boosted)
		default:
		}
		if slot%100 == 0 {
			time.Sleep(time.Millisecond)
		}
	}

	// Both cells' history lands in the shared KPM store under distinct IDs.
	time.Sleep(10 * time.Millisecond)
	seen := map[uint32]bool{}
	for _, id := range r.KPM.Cells() {
		seen[id] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("KPM store cells = %v", r.KPM.Cells())
	}

	// Teardown: the zero-Config RIC queued every indication it was offered,
	// and each left its queue through exactly one ledger column.
	close(stop)
	serveWG.Wait()
	if st, ok := r.OverloadStats(); !ok || st.Offered == 0 || !st.LedgerConserved() {
		t.Fatalf("shed ledger after teardown (ok=%v): %+v", ok, st)
	}
}
