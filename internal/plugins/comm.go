package plugins

// Communication plugins (§3B, §4B): Wasm shims that adapt between vendor
// wire formats without touching either vendor's closed firmware. Each
// exports "encode" (host representation -> vendor wire format) and "decode"
// (vendor wire -> host representation) over the wabi byte ABI.

// Widen8To12CommWAT is the paper's introduction example made concrete:
// vendor A emits 8-bit fields where vendor B expects 12-bit fields. The
// shim widens each byte b to a little-endian u16 carrying b << 4 (encode)
// and narrows it back (decode), letting the two devices interoperate with
// no firmware change on either side.
const Widen8To12CommWAT = `(module
  (import "waran" "input_length" (func $input_length (result i32)))
  (import "waran" "input_read"   (func $input_read (param i32 i32 i32) (result i32)))
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (import "waran" "error_set"    (func $error_set (param i32 i32)))
  (memory (export "memory") 4 64)
  (data (i32.const 0) "decode: odd-length 12-bit frame")

  (func $ensure (param $need i32)
    (block $ok
      (loop $grow
        (br_if $ok (i32.le_u (local.get $need) (i32.mul (memory.size) (i32.const 65536))))
        (drop (memory.grow (i32.const 4)))
        (br $grow))))

  ;; encode: each input byte becomes u16le = byte << 4 (8-bit -> 12-bit).
  (func (export "encode") (result i32)
    (local $n i32) (local $i i32) (local $out i32)
    (local.set $n (call $input_length))
    (call $ensure (i32.add (i32.const 65536) (i32.mul (local.get $n) (i32.const 3))))
    (drop (call $input_read (i32.const 1024) (i32.const 0) (local.get $n)))
    (local.set $out (i32.add (i32.const 1024) (local.get $n)))
    (block $done
      (loop $top
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (i32.store16
          (i32.add (local.get $out) (i32.shl (local.get $i) (i32.const 1)))
          (i32.shl (i32.load8_u (i32.add (i32.const 1024) (local.get $i))) (i32.const 4)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $top)))
    (call $output_write (local.get $out) (i32.shl (local.get $n) (i32.const 1)))
    (i32.const 0))

  ;; decode: each u16le becomes value >> 4 truncated to a byte.
  (func (export "decode") (result i32)
    (local $n i32) (local $i i32) (local $half i32) (local $out i32)
    (local.set $n (call $input_length))
    (if (i32.and (local.get $n) (i32.const 1))
      (then
        (call $error_set (i32.const 0) (i32.const 31))
        (return (i32.const 1))))
    (call $ensure (i32.add (i32.const 65536) (i32.mul (local.get $n) (i32.const 3))))
    (drop (call $input_read (i32.const 1024) (i32.const 0) (local.get $n)))
    (local.set $half (i32.shr_u (local.get $n) (i32.const 1)))
    (local.set $out (i32.add (i32.const 1024) (local.get $n)))
    (block $done
      (loop $top
        (br_if $done (i32.ge_u (local.get $i) (local.get $half)))
        (i32.store8
          (i32.add (local.get $out) (local.get $i))
          (i32.shr_u
            (i32.load16_u (i32.add (i32.const 1024) (i32.shl (local.get $i) (i32.const 1))))
            (i32.const 4)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $top)))
    (call $output_write (local.get $out) (local.get $half))
    (i32.const 0))
)`
