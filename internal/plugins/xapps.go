package plugins

// xApp plugins for the near-RT RIC (§4B): each exports "on_indication",
// receiving an encoded e2 indication body as call input and returning an
// encoded control list (see internal/e2/body.go for both layouts).
//
// Guest memory layout: indication copied to 1024; control list assembled
// at 32768 (u16 count, then control bodies).

// TrafficSteerXAppWAT emits a handover request toward "cell-2" for every UE
// whose MCS has fallen to the configured floor (<= 4) — the paper's traffic
// steering example: the RIC host calls the plugin's exported function, the
// internal decision process runs, and the decision of which UEs need
// handovers is returned to the host.
const TrafficSteerXAppWAT = `(module
  (import "waran" "input_length" (func $input_length (result i32)))
  (import "waran" "input_read"   (func $input_read (param i32 i32 i32) (result i32)))
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1)
  (data (i32.const 0) "cell-2")
  (global $outp (mut i32) (i32.const 0))
  (global $cnt (mut i32) (i32.const 0))

  ;; emit_handover appends one ActionHandover control body for the UE.
  (func $emit_handover (param $ue i32)
    (local $p i32)
    (local.set $p (global.get $outp))
    (i32.store8 (local.get $p) (i32.const 3))            ;; ActionHandover
    (i32.store offset=1 (local.get $p) (i32.const 0))     ;; sliceID
    (i32.store offset=5 (local.get $p) (local.get $ue))   ;; ueID
    (f64.store offset=9 (local.get $p) (f64.const 0))     ;; value
    (i32.store16 offset=17 (local.get $p) (i32.const 6))  ;; len("cell-2")
    (memory.copy (i32.add (local.get $p) (i32.const 19)) (i32.const 0) (i32.const 6))
    (i32.store offset=25 (local.get $p) (i32.const 0))    ;; blobLen = 0
    (global.set $outp (i32.add (local.get $p) (i32.const 29)))
    (global.set $cnt (i32.add (global.get $cnt) (i32.const 1))))

  (func (export "on_indication") (result i32)
    (local $n i32) (local $nue i32) (local $i i32) (local $rec i32)
    (local.set $n (call $input_length))
    (drop (call $input_read (i32.const 1024) (i32.const 0) (local.get $n)))
    (local.set $nue (i32.load16_u (i32.const 1036)))      ;; nUE at base+12
    (global.set $outp (i32.const 32770))                  ;; after u16 count
    (global.set $cnt (i32.const 0))
    (block $done
      (loop $top
        (br_if $done (i32.ge_u (local.get $i) (local.get $nue)))
        (local.set $rec (i32.add (i32.const 1038) (i32.mul (local.get $i) (i32.const 24))))
        (if (i32.le_s (i32.load offset=8 (local.get $rec)) (i32.const 4)) ;; MCS floor
          (then (call $emit_handover (i32.load (local.get $rec)))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $top)))
    (i32.store16 (i32.const 32768) (global.get $cnt))
    (call $output_write (i32.const 32768) (i32.sub (global.get $outp) (i32.const 32768)))
    (i32.const 0))
)`

// SLAAssureXAppWAT is the slice SLA assurance xApp: slices served below 90%
// of their contracted rate get their inter-slice weight boosted to 2.0;
// slices comfortably above 110% are relaxed back to 1.0.
const SLAAssureXAppWAT = `(module
  (import "waran" "input_length" (func $input_length (result i32)))
  (import "waran" "input_read"   (func $input_read (param i32 i32 i32) (result i32)))
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (import "waran" "log"          (func $log (param i32 i32)))
  (memory (export "memory") 1)
  (data (i32.const 0) "boosting under-SLA slice")
  (global $outp (mut i32) (i32.const 0))
  (global $cnt (mut i32) (i32.const 0))

  ;; emit_weight appends one ActionSetSliceWeight control body.
  (func $emit_weight (param $slice i32) (param $w f64)
    (local $p i32)
    (local.set $p (global.get $outp))
    (i32.store8 (local.get $p) (i32.const 2))             ;; ActionSetSliceWeight
    (i32.store offset=1 (local.get $p) (local.get $slice))
    (i32.store offset=5 (local.get $p) (i32.const 0))      ;; ueID
    (f64.store offset=9 (local.get $p) (local.get $w))
    (i32.store16 offset=17 (local.get $p) (i32.const 0))   ;; empty text
    (i32.store offset=19 (local.get $p) (i32.const 0))     ;; blobLen = 0
    (global.set $outp (i32.add (local.get $p) (i32.const 23)))
    (global.set $cnt (i32.add (global.get $cnt) (i32.const 1))))

  (func (export "on_indication") (result i32)
    (local $n i32) (local $nue i32) (local $nsl i32) (local $i i32)
    (local $base i32) (local $rec i32)
    (local $target f64) (local $served f64)
    (local.set $n (call $input_length))
    (drop (call $input_read (i32.const 1024) (i32.const 0) (local.get $n)))
    (local.set $nue (i32.load16_u (i32.const 1036)))
    ;; slice section starts after the UE vector
    (local.set $base (i32.add (i32.add (i32.const 1024) (i32.const 14))
                              (i32.mul (local.get $nue) (i32.const 24))))
    (local.set $nsl (i32.load16_u (local.get $base)))
    (local.set $base (i32.add (local.get $base) (i32.const 2)))
    (global.set $outp (i32.const 32770))
    (global.set $cnt (i32.const 0))
    (block $done
      (loop $top
        (br_if $done (i32.ge_u (local.get $i) (local.get $nsl)))
        (local.set $rec (i32.add (local.get $base) (i32.mul (local.get $i) (i32.const 24))))
        (local.set $target (f64.load offset=4 (local.get $rec)))
        (local.set $served (f64.load offset=12 (local.get $rec)))
        (if (f64.gt (local.get $target) (f64.const 0))
          (then
            (if (f64.lt (local.get $served) (f64.mul (local.get $target) (f64.const 0.9)))
              (then
                (call $log (i32.const 0) (i32.const 24))
                (call $emit_weight (i32.load (local.get $rec)) (f64.const 2)))
              (else
                (if (f64.gt (local.get $served) (f64.mul (local.get $target) (f64.const 1.1)))
                  (then (call $emit_weight (i32.load (local.get $rec)) (f64.const 1))))))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $top)))
    (i32.store16 (i32.const 32768) (global.get $cnt))
    (call $output_write (i32.const 32768) (i32.sub (global.get $outp) (i32.const 32768)))
    (i32.const 0))
)`

// PingXAppWAT demonstrates inter-xApp messaging through RIC host functions:
// on every indication it sends a counter to the "pong" xApp's mailbox.
const PingXAppWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (import "ric" "xapp_send" (func $xapp_send (param i32 i32 i32 i32) (result i32)))
  (memory (export "memory") 1)
  (data (i32.const 0) "pong")
  (global $counter (mut i32) (i32.const 0))
  (func (export "on_indication") (result i32)
    (global.set $counter (i32.add (global.get $counter) (i32.const 1)))
    (i32.store (i32.const 16) (global.get $counter))
    (drop (call $xapp_send (i32.const 0) (i32.const 4) (i32.const 16) (i32.const 4)))
    ;; empty control list
    (i32.store16 (i32.const 32) (i32.const 0))
    (call $output_write (i32.const 32) (i32.const 2))
    (i32.const 0))
)`

// PongXAppWAT drains its mailbox each indication and remembers the last
// counter received (in its last_counter global).
const PongXAppWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (import "ric" "xapp_recv" (func $xapp_recv (param i32 i32) (result i32)))
  (memory (export "memory") 1)
  (global $last (mut i32) (i32.const 0))
  (export "last_counter" (global $last))
  (func (export "on_indication") (result i32)
    (local $n i32)
    (block $done
      (loop $drain
        (local.set $n (call $xapp_recv (i32.const 64) (i32.const 16)))
        (br_if $done (i32.eqz (local.get $n)))
        (global.set $last (i32.load (i32.const 64)))
        (br $drain)))
    (i32.store16 (i32.const 32) (i32.const 0))
    (call $output_write (i32.const 32) (i32.const 2))
    (i32.const 0))
)`
