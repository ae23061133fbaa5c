package ric

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/wabi"
	"waran/internal/wasm"
	"waran/internal/wat"
)

// greedyFirstWAT is a trivial third-party scheduler: grant the entire
// budget to the first UE in the request. Distinct from every built-in
// policy so the test can prove the uploaded bytecode is what runs.
const greedyFirstWAT = `(module
  (import "waran" "input_length" (func $input_length (result i32)))
  (import "waran" "input_read"   (func $input_read (param i32 i32 i32) (result i32)))
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (func (export "schedule") (result i32)
    (local $n i32) (local $budget i32) (local $need i64) (local $per i64) (local $g i32)
    (local.set $n (call $input_length))
    (drop (call $input_read (i32.const 1024) (i32.const 0) (local.get $n)))
    (local.set $budget (i32.load (i32.const 1036)))
    (if (i32.eqz (i32.load (i32.const 1040)))  ;; no UEs
      (then
        (i32.store (i32.const 0) (i32.const 0))
        (call $output_write (i32.const 0) (i32.const 4))
        (return (i32.const 0))))
    ;; Cap the grant at the first UE's need so it stays valid.
    (local.set $per (i64.extend_i32_u (i32.load (i32.const 1052))))
    (if (i64.eqz (local.get $per))
      (then (local.set $g (i32.const 0)))
      (else
        (local.set $need
          (i64.div_u
            (i64.sub
              (i64.add
                (i64.mul (i64.extend_i32_u (i32.load (i32.const 1056))) (i64.const 8))
                (local.get $per))
              (i64.const 1))
            (local.get $per)))
        (local.set $g (i32.wrap_i64 (local.get $need)))
        (if (i32.gt_u (local.get $g) (local.get $budget))
          (then (local.set $g (local.get $budget))))))
    (if (result i32) (i32.eqz (local.get $g))
      (then
        (i32.store (i32.const 0) (i32.const 0))
        (call $output_write (i32.const 0) (i32.const 4))
        (i32.const 0))
      (else
        (i32.store (i32.const 0) (i32.const 1))
        (i32.store (i32.const 4) (i32.load (i32.const 1044))) ;; first UE id
        (i32.store (i32.const 8) (local.get $g))
        (call $output_write (i32.const 0) (i32.const 12))
        (i32.const 0))))
)`

// TestBytecodeUploadOverE2 pushes a brand-new scheduler, compiled to Wasm
// bytecode, through the E2-lite association into a live gNB — the paper's
// Fig. 1 deployment flow — and verifies the slice now runs it.
func TestBytecodeUploadOverE2(t *testing.T) {
	gnb, err := core.NewGNB(ran.CellConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := core.NewPluginScheduler("rr", wabi.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := gnb.Slices.AddSlice(1, "tenant", 10e6, rr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		ue := ran.NewUE(uint32(i), 1, 24)
		ue.Traffic = ran.NewCBR(6e6)
		if err := gnb.AttachUE(ue); err != nil {
			t.Fatal(err)
		}
	}

	lis, err := e2.Listen("127.0.0.1:0", e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	var wg sync.WaitGroup
	var serverConn *e2.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := lis.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		serverConn = c
	}()
	gnbConn, err := e2.Dial(lis.Addr().String(), e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer gnbConn.Close()
	wg.Wait()
	defer serverConn.Close()

	agent, err := NewAgent(gnbConn, gnb, AgentConfig{Cell: 1})
	if err != nil {
		t.Fatal(err)
	}
	// "RIC side": subscribe so the agent enters its control loop.
	if err := serverConn.Send(&e2.Message{
		Type: e2.TypeSubscriptionRequest, RequestID: 1,
		Subscription: &e2.SubscriptionRequest{ReportPeriodMs: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	agentDone, err := agent.Start()
	if err != nil {
		t.Fatal(err)
	}
	if m, err := serverConn.Recv(); err != nil || m.Type != e2.TypeSubscriptionResponse {
		t.Fatalf("handshake: %v %v", m, err)
	}

	// Compile the third-party scheduler to bytecode and push it.
	blob, err := wat.CompileToBinary(greedyFirstWAT)
	if err != nil {
		t.Fatal(err)
	}
	if err := serverConn.Send(&e2.Message{
		Type: e2.TypeControlRequest, RequestID: 2, RANFunction: e2.RANFunctionRC,
		Control: &e2.ControlRequest{
			Action:  e2.ActionUploadScheduler,
			SliceID: 1,
			Text:    "greedy-first-v1",
			Blob:    blob,
		},
	}); err != nil {
		t.Fatal(err)
	}
	ack, err := serverConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != e2.TypeControlAck || !ack.ControlAck.Accepted {
		t.Fatalf("upload refused: %+v", ack.ControlAck)
	}
	if got := s.SchedulerName(); got != "pool:greedy-first-v1" {
		t.Fatalf("active scheduler = %q", got)
	}

	// Prove the uploaded policy is live: only UE 1 (first in the request)
	// gets grants from now on.
	gnb.RunSlots(200, nil)
	ue1, _ := gnb.UE(1)
	ue2, _ := gnb.UE(2)
	if ue1.DeliveredBits == 0 {
		t.Fatal("uploaded scheduler served nothing")
	}
	if ue2.DeliveredBits > ue1.DeliveredBits/10 {
		t.Fatalf("uploaded greedy policy not in effect: ue1=%d ue2=%d",
			ue1.DeliveredBits, ue2.DeliveredBits)
	}

	// Garbage bytecode is rejected with a negative ack, gNB unharmed.
	if err := serverConn.Send(&e2.Message{
		Type: e2.TypeControlRequest, RequestID: 3, RANFunction: e2.RANFunctionRC,
		Control: &e2.ControlRequest{
			Action: e2.ActionUploadScheduler, SliceID: 1, Blob: []byte("not wasm"),
		},
	}); err != nil {
		t.Fatal(err)
	}
	ack, err = serverConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.ControlAck.Accepted {
		t.Fatal("garbage bytecode accepted")
	}
	if got := s.SchedulerName(); got != "pool:greedy-first-v1" {
		t.Fatalf("scheduler changed after rejected upload: %q", got)
	}

	gnbConn.Close()
	select {
	case <-agentDone:
	case <-time.After(2 * time.Second):
		t.Fatal("agent did not shut down")
	}
}

// TestControlBlobRoundTripsAllCodecs ensures the bytecode payload survives
// every codec.
func TestControlBlobRoundTripsAllCodecs(t *testing.T) {
	blob := []byte{0x00, 0x61, 0x73, 0x6D, 1, 2, 3, 0xFF, 0}
	msg := &e2.Message{
		Type: e2.TypeControlRequest, RequestID: 1,
		Control: &e2.ControlRequest{
			Action: e2.ActionUploadScheduler, SliceID: 2, Text: "v2", Blob: blob,
		},
	}
	for _, codec := range []e2.Codec{e2.BinaryCodec{}, e2.VarintCodec{}, e2.JSONCodec{}} {
		wire, err := codec.Encode(msg)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		got, err := codec.Decode(wire)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		if !reflect.DeepEqual(got.Control, msg.Control) {
			t.Fatalf("%s: blob lost: %+v", codec.Name(), got.Control)
		}
	}
}

// TestAddXAppBytecodeUsesModuleCache: the operator upload path resolves
// identical bytecode through the RIC's content-addressed cache, so
// installing the same blob under many names compiles it once — and bad
// bytecode is rejected without poisoning the cache.
func TestAddXAppBytecodeUsesModuleCache(t *testing.T) {
	r := MustNew(Config{})
	blob, err := wat.CompileToBinary(plugins.TrafficSteerXAppWAT)
	if err != nil {
		t.Fatal(err)
	}
	before := wasm.CompileCount()
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("steer-%d", i)
		if _, err := r.AddXAppBytecode(name, append([]byte(nil), blob...), wabi.Policy{}); err != nil {
			t.Fatalf("install %s: %v", name, err)
		}
	}
	if got := wasm.CompileCount() - before; got != 1 {
		t.Fatalf("4 uploads of identical bytecode compiled %d times, want 1", got)
	}
	if st := r.Modules.Stats(); st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses, want 3/1", st.Hits, st.Misses)
	}
	if _, err := r.AddXAppBytecode("bad", []byte{1, 2, 3}, wabi.Policy{}); err == nil {
		t.Fatal("garbage bytecode accepted as xApp")
	}
	if r.Modules.Contains([]byte{1, 2, 3}) {
		t.Fatal("failed compile cached")
	}
}
