package ric

import (
	"fmt"
	"testing"

	"waran/internal/e2"
	"waran/internal/wabi"
)

// busyGuestWAT builds a guest whose entries share one re-entrancy guard: a
// busy flag set on entry and cleared on exit. A call that finds the flag set
// fails with error code 7; an input longer than 1 KiB spins until the fuel
// runs out, which leaves the flag set in that instance for good. A normal
// call writes out, a WAT fragment, as its output. An instance that is called
// again after a fuel trip therefore fails every later call.
func busyGuestWAT(out string, entries ...string) string {
	var exports string
	for _, e := range entries {
		exports += fmt.Sprintf("  (func (export %q) (result i32) (call $guarded))\n", e)
	}
	return `(module
  (import "waran" "input_length" (func $input_length (result i32)))
  (import "waran" "input_read"   (func $input_read (param i32 i32 i32) (result i32)))
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (import "waran" "error_set"    (func $error_set (param i32 i32)))
  (memory (export "memory") 1)
  (data (i32.const 0) "busy")
  (global $busy (mut i32) (i32.const 0))
  (func $guarded (result i32)
    (local $n i32)
    (if (global.get $busy) (then
      (call $error_set (i32.const 0) (i32.const 4))
      (return (i32.const 7))))
    (global.set $busy (i32.const 1))
    (local.set $n (call $input_length))
    (if (i32.gt_u (local.get $n) (i32.const 1024)) (then (loop $spin (br $spin))))
    (drop (call $input_read (i32.const 1024) (i32.const 0) (local.get $n)))
    ` + out + `
    (global.set $busy (i32.const 0))
    (i32.const 0))
` + exports + `)`
}

// TestXAppServesAfterFuelTrip: an xApp that runs out of fuel once serves its
// next normal indication — the instance that tripped is discarded, never
// called again, and a fresh one answers.
func TestXAppServesAfterFuelTrip(t *testing.T) {
	r := MustNew(Config{})
	// A normal call answers with an empty control list (a zero u16 count).
	x, err := r.AddXAppWAT("busy", busyGuestWAT("(call $output_write (i32.const 8) (i32.const 2))", XAppEntry), wabi.Policy{Fuel: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	normal := mkInd(1, 0, 0, 5e6)
	long := &e2.Indication{Cell: 1}
	for i := 0; i < 200; i++ {
		long.UEs = append(long.UEs, e2.UEMeasurement{UEID: uint32(i + 1), SliceID: 1})
	}
	r.HandleIndication(normal)
	r.HandleIndication(long)
	if st := x.Stats(); st.Faults != 1 || x.Breaker().FailureCount(wabi.FailFuel) != 1 {
		t.Fatalf("long indication: stats %+v, want one fuel fault", st)
	}
	for i := 0; i < 3; i++ {
		r.HandleIndication(normal)
	}
	if st := x.Stats(); st.Invocations != 5 || st.Faults != 1 {
		t.Fatalf("after the trip: stats %+v, want 5 invocations and still one fault", st)
	}
}

// TestPluginCodecDecodesAfterTrap: a communication plugin whose decode
// traps once decodes the next frame.
func TestPluginCodecDecodesAfterTrap(t *testing.T) {
	echo := "(call $output_write (i32.const 1024) (local.get $n))"
	c, err := NewPluginCodecWAT("busy", busyGuestWAT(echo, "encode", "decode"), e2.BinaryCodec{})
	if err != nil {
		t.Fatal(err)
	}
	msg := &e2.Message{Type: e2.TypeHeartbeat, RequestID: 9}
	frame, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode(make([]byte, 4096)); wabi.ClassOf(err) != wabi.FailFuel {
		t.Fatalf("long frame: err %v, want a fuel trip", err)
	}
	got, err := c.Decode(frame)
	if err != nil {
		t.Fatalf("frame after the trap: %v", err)
	}
	if got.Type != msg.Type || got.RequestID != msg.RequestID {
		t.Fatalf("decoded %s #%d, want %s #%d", got.Type, got.RequestID, msg.Type, msg.RequestID)
	}
}
