package plugins

// Zero-copy ABI test plugins. GrowZCWAT exercises the allocator-backed
// negotiation contract (regions carved from grown memory, so every fresh
// instance must re-negotiate); the HostileZC* plugins lie through the
// response region in each way the host's region validation must catch.
// None of those export the classic "schedule" entry: they are zero-copy-only
// guests, which also pins the capability-resolution rules. scribbleZCWAT is
// the one dual-path guest: it misbehaves on its own request region, and the
// differential test needs its codec path as the reference.

// GrowZCWAT negotiates its regions from memory grown during negotiation,
// the way an allocator-backed guest (Rust, TinyGo) would: the module starts
// with one 64 KiB page and carves both regions out of a page it grows on
// first use. A fresh instance of this module starts back at one page, so a
// host that reused a stale region layout after an instance swap would write
// past the end of memory — the failure TestPoolZeroCopyTrapThenReuse pins.
// Its decision rule is trivially checkable: grant exactly 1 PRB to the
// first UE in the request, or nothing when the request is empty.
const GrowZCWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1 4)
  (global $base (mut i32) (i32.const 0))

  ;; alloc lazily grows one page and returns its base address.
  (func $alloc (result i32)
    (if (i32.eqz (global.get $base))
      (then
        (global.set $base
          (i32.mul (memory.grow (i32.const 1)) (i32.const 65536)))))
    (global.get $base))

  (func (export "zc_req_region") (result i32) (call $alloc))
  (func (export "zc_resp_region") (result i32)
    (i32.add (call $alloc) (i32.const 16384)))

  (func (export "schedule_zc") (result i32)
    (local $req i32) (local $resp i32)
    (local.set $req (call $alloc))
    (local.set $resp (i32.add (local.get $req) (i32.const 16384)))
    (if (i32.eqz (i32.load offset=16 (local.get $req)))  ;; nUE == 0
      (then
        (i32.store (local.get $resp) (i32.const 0))
        (return (i32.const 0))))
    (i32.store (local.get $resp) (i32.const 1))
    (i32.store offset=4 (local.get $resp) (i32.load offset=20 (local.get $req)))
    (i32.store offset=8 (local.get $resp) (i32.const 1))
    (i32.const 0))
)`

// HostileZCCountWAT seals an allocation count whose table would run past
// the end of the response region — the zero-copy analogue of a hostile
// length prefix. The host must reject it as out-of-bounds without reading a
// single record.
const HostileZCCountWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1 4)
  (func (export "zc_req_region") (result i32) (i32.const 1024))
  (func (export "zc_resp_region") (result i32) (i32.const 40960))
  (func (export "schedule_zc") (result i32)
    (i32.store (i32.const 40960) (i32.const 600))
    (i32.const 0))
)`

// HostileZCOverlapWAT grants the same UE twice — overlapping result
// regions, rejected by the host's duplicate check.
const HostileZCOverlapWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1 4)
  (func (export "zc_req_region") (result i32) (i32.const 1024))
  (func (export "zc_resp_region") (result i32) (i32.const 40960))
  (func (export "schedule_zc") (result i32)
    (i32.store (i32.const 40960) (i32.const 2))
    (i32.store (i32.const 40964) (i32.load (i32.const 1044)))  ;; first UE id
    (i32.store (i32.const 40968) (i32.const 1))
    (i32.store (i32.const 40972) (i32.load (i32.const 1044)))  ;; again
    (i32.store (i32.const 40976) (i32.const 1))
    (i32.const 0))
)`

// HostileZCNoSealWAT returns success without ever writing its response
// count. The host pre-poisons the count word before every call, so the only
// thing it can read back is a guaranteed out-of-bounds claim — never a
// stale table from a previous slot.
const HostileZCNoSealWAT = `(module
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1 4)
  (func (export "zc_req_region") (result i32) (i32.const 1024))
  (func (export "zc_resp_region") (result i32) (i32.const 40960))
  (func (export "schedule_zc") (result i32) (i32.const 0))
)`

// scribbleZCWAT reads its request and then overwrites it: the header's UE
// count and the whole first UE record become all-ones bytes. Its request
// buffer doubles as the zero-copy request region, so over zero-copy the
// scribble lands in host-visible memory; a host that skipped rewriting
// records it believed unchanged would feed the guest its own scribble next
// slot. The decision rule is GrowZCWAT's (1 PRB to the first UE), exported
// over both the serializing and the zero-copy entry.
const scribbleZCWAT = `(module
  (import "waran" "input_length" (func $input_length (result i32)))
  (import "waran" "input_read"   (func $input_read (param i32 i32 i32) (result i32)))
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (memory (export "memory") 1 4)
  (func (export "zc_req_region") (result i32) (i32.const 1024))
  (func (export "zc_resp_region") (result i32) (i32.const 40960))

  (func $core
    (if (i32.eqz (i32.load (i32.const 1040)))  ;; nUE == 0
      (then (i32.store (i32.const 40960) (i32.const 0)))
      (else
        (i32.store (i32.const 40960) (i32.const 1))
        (i32.store (i32.const 40964) (i32.load (i32.const 1044)))  ;; first UE id
        (i32.store (i32.const 40968) (i32.const 1))))
    (i32.store (i32.const 1040) (i32.const -1))
    (i64.store (i32.const 1044) (i64.const -1))
    (i64.store (i32.const 1052) (i64.const -1))
    (i64.store (i32.const 1060) (i64.const -1)))

  (func (export "schedule") (result i32)
    (drop (call $input_read (i32.const 1024) (i32.const 0) (call $input_length)))
    (call $core)
    (call $output_write
      (i32.const 40960)
      (i32.add (i32.const 4) (i32.mul (i32.load (i32.const 40960)) (i32.const 8))))
    (i32.const 0))
  (func (export "schedule_zc") (result i32)
    (call $core)
    (i32.const 0))
)`

// ZCFaultWAT returns the named zero-copy test plugin source.
func ZCFaultWAT(name string) (string, bool) {
	switch name {
	case "zc-grow":
		return GrowZCWAT, true
	case "zc-oob-count":
		return HostileZCCountWAT, true
	case "zc-overlap":
		return HostileZCOverlapWAT, true
	case "zc-no-seal":
		return HostileZCNoSealWAT, true
	case "zc-scribble":
		return scribbleZCWAT, true
	default:
		return "", false
	}
}
