package plugins

import (
	"fmt"
	"strings"

	"waran/internal/wabi"
)

// The chaos guest is a built-in scheduler behind a seeded prologue that
// decides, per request, whether the call schedules or faults — and the
// fault is the guest's own bytecode, so the sandbox contains it like any
// hostile plugin's. The decision hashes (seed, slice, slot) from the request
// header, so it does not depend on which instance serves the call or on the
// order in which cells call; ChaosFault recomputes it in Go.
//
// Requests for a slot before cleanBefore always run the scheduler: that is
// what makes a sleeper, which passes shadow replay of earlier slots and turns
// hostile at cleanBefore. From that slot on, the hash's two low bits pick:
//
//	0, 1  trap: 0xa5 over the first half of the response region, then
//	      unreachable — a guest dying midway through its response;
//	2     fuel: spin until the meter trips;
//	3     bad output: seal an allocation count of 2^29, more than any
//	      response region holds (on the codec path the 8-byte stride wraps
//	      it to a 4-byte output whose count the decoder refuses).
const chaosPrologue = `
  (func $mix (param $x i64) (result i64)
    (local.set $x (i64.mul (i64.xor (local.get $x) (i64.shr_u (local.get $x) (i64.const 33)))
      (i64.const 0xff51afd7ed558ccd)))
    (local.set $x (i64.mul (i64.xor (local.get $x) (i64.shr_u (local.get $x) (i64.const 33)))
      (i64.const 0xc4ceb9fe1a85ec53)))
    (i64.xor (local.get $x) (i64.shr_u (local.get $x) (i64.const 33))))

  (func $core (export "schedule_zc") (result i32)
    (if (i64.lt_u (i64.load (i32.const 1028)) (i64.const %d))
      (then (return (call $inner))))
    (block $bad
      (block $spin
        (block $trap
          (br_table $trap $trap $spin $bad
            (i32.wrap_i64 (i64.and (i64.const 3)
              (call $mix (i64.xor (i64.const %d)
                (call $mix (i64.xor
                  (i64.shl (i64.extend_i32_u (i32.load (i32.const 1024))) (i64.const 48))
                  (i64.load (i32.const 1028))))))))))
        (memory.fill (i32.const 40960) (i32.const 0xa5) (i32.const 2050))
        (unreachable))
      (loop $forever (br $forever)))
    (i32.store (i32.const 40960) (i32.const 0x20000000))
    (i32.const 0))
`

// ChaosWAT returns the chaos guest around the named built-in scheduler
// ("rr", "pf" or "mt") for seed, clean for requests before slot cleanBefore.
func ChaosWAT(inner string, seed, cleanBefore uint64) (string, bool) {
	src, ok := SchedulerWAT(inner)
	if !ok {
		return "", false
	}
	// The scheduler's decision body stays; the prologue takes its export,
	// and the copy entry "schedule" calls the prologue too.
	src = strings.Replace(src, `(func $core (export "schedule_zc")`, `(func $inner`, 1)
	return strings.TrimSuffix(src, ")") + fmt.Sprintf(chaosPrologue, cleanBefore, seed) + ")", true
}

// ChaosFault is the chaos guest's schedule recomputed in Go: the failure
// class the guest built with seed and cleanBefore produces for a request of
// slice sliceID at slot (FailNone: it runs the scheduler).
func ChaosFault(seed, cleanBefore uint64, sliceID uint32, slot uint64) wabi.FailureClass {
	if slot < cleanBefore {
		return wabi.FailNone
	}
	switch chaosMix(seed^chaosMix(uint64(sliceID)<<48^slot)) & 3 {
	case 0, 1:
		return wabi.FailTrap
	case 2:
		return wabi.FailFuel
	default:
		return wabi.FailBadOutput
	}
}

// chaosMix is the prologue's $mix: the 64-bit finalizer of MurmurHash3.
func chaosMix(x uint64) uint64 {
	x = (x ^ x>>33) * 0xff51afd7ed558ccd
	x = (x ^ x>>33) * 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}
