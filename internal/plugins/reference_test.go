package plugins

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"waran/internal/sched"
	"waran/internal/wabi"
)

// The three scheduler guests as they shipped before the one-pass rewrite
// (collect indices, insertion-sort them through leaf accessors, fill), kept
// verbatim as the reference: TestReferenceGuestEquivalence requires the same
// decisions from old guest, new guest and native policy on seeded random
// requests through both ABIs.

const refPrelude = `
  (import "waran" "input_length" (func $input_length (result i32)))
  (import "waran" "input_read"   (func $input_read (param i32 i32 i32) (result i32)))
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (import "waran" "error_set"    (func $error_set (param i32 i32)))
  (import "waran" "log"          (func $log (param i32 i32)))
  (memory (export "memory") 1 4)
  (global $outn (mut i32) (i32.const 0))

  ;; load_input copies the request into guest memory and returns the UE count.
  (func $load_input (result i32)
    (local $n i32)
    (local.set $n (call $input_length))
    (drop (call $input_read (i32.const 1024) (i32.const 0) (local.get $n)))
    (i32.load (i32.const 1040)))

  (func $budget (result i32) (i32.load (i32.const 1036)))
  (func $slot (result i64) (i64.load (i32.const 1028)))

  ;; ue_ptr returns the address of UE record i.
  (func $ue_ptr (param $i i32) (result i32)
    (i32.add (i32.const 1044) (i32.mul (local.get $i) (i32.const 24))))

  (func $ue_id (param $i i32) (result i32)
    (i32.load (call $ue_ptr (local.get $i))))
  (func $ue_per (param $i i32) (result i32)
    (i32.load offset=8 (call $ue_ptr (local.get $i))))
  (func $ue_buf (param $i i32) (result i32)
    (i32.load offset=12 (call $ue_ptr (local.get $i))))
  (func $ue_avg (param $i i32) (result f64)
    (f64.load offset=16 (call $ue_ptr (local.get $i))))

  ;; need returns the PRBs required to drain UE i's buffer this slot.
  (func $need (param $i i32) (result i32)
    (local $per i64) (local $buf i64)
    (local.set $per (i64.extend_i32_u (call $ue_per (local.get $i))))
    (if (result i32) (i64.eqz (local.get $per))
      (then (i32.const 0))
      (else (i32.wrap_i64
        (i64.div_u
          (i64.sub
            (i64.add
              (i64.mul (i64.extend_i32_u (call $ue_buf (local.get $i))) (i64.const 8))
              (local.get $per))
            (i64.const 1))
          (local.get $per))))))

  ;; active reports whether UE i has queued data and usable channel.
  (func $active (param $i i32) (result i32)
    (i32.and
      (i32.ne (call $ue_buf (local.get $i)) (i32.const 0))
      (i32.ne (call $ue_per (local.get $i)) (i32.const 0))))

  (func $ord_get (param $k i32) (result i32)
    (i32.load (i32.add (i32.const 20480) (i32.shl (local.get $k) (i32.const 2)))))
  (func $ord_set (param $k i32) (param $v i32)
    (i32.store (i32.add (i32.const 20480) (i32.shl (local.get $k) (i32.const 2))) (local.get $v)))

  ;; collect_active fills the order array with indices of active UEs and
  ;; returns the count.
  (func $collect_active (param $n i32) (result i32)
    (local $i i32) (local $m i32)
    (block $done
      (loop $top
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (if (call $active (local.get $i))
          (then
            (call $ord_set (local.get $m) (local.get $i))
            (local.set $m (i32.add (local.get $m) (i32.const 1)))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $top)))
    (local.get $m))

  ;; emit appends one allocation record to the response buffer.
  (func $emit (param $id i32) (param $prbs i32)
    (local $p i32)
    (local.set $p (i32.add (i32.const 40964) (i32.mul (global.get $outn) (i32.const 8))))
    (i32.store (local.get $p) (local.get $id))
    (i32.store offset=4 (local.get $p) (local.get $prbs))
    (global.set $outn (i32.add (global.get $outn) (i32.const 1))))

  ;; seal finalizes the response in place: the count word makes the
  ;; allocation table valid for a host reading the response region directly.
  (func $seal
    (i32.store (i32.const 40960) (global.get $outn)))

  ;; publish copies the sealed response out through the serializing ABI.
  (func $publish
    (call $output_write
      (i32.const 40960)
      (i32.add (i32.const 4) (i32.mul (i32.load (i32.const 40960)) (i32.const 8)))))

  ;; Zero-copy region negotiation: the request buffer and response buffer
  ;; are the shared-memory windows.
  (func (export "zc_req_region") (result i32) (i32.const 1024))
  (func (export "zc_resp_region") (result i32) (i32.const 40960))

  ;; fill grants each UE in order-array sequence its full need until the
  ;; budget runs out (the greedy tail shared by MT and PF).
  (func $fill (param $m i32) (param $budget i32)
    (local $k i32) (local $i i32) (local $g i32)
    (block $done
      (loop $top
        (br_if $done (i32.ge_u (local.get $k) (local.get $m)))
        (br_if $done (i32.eqz (local.get $budget)))
        (local.set $i (call $ord_get (local.get $k)))
        (local.set $g (call $need (local.get $i)))
        (if (i32.gt_u (local.get $g) (local.get $budget))
          (then (local.set $g (local.get $budget))))
        (if (i32.ne (local.get $g) (i32.const 0))
          (then
            (call $emit (call $ue_id (local.get $i)) (local.get $g))
            (local.set $budget (i32.sub (local.get $budget) (local.get $g)))))
        (local.set $k (i32.add (local.get $k) (i32.const 1)))
        (br $top))))
`

// refSort generates a stable insertion sort over the order array using the
// named comparator ("less(a,b) = a sorts before b").
func refSort(name, lessFunc string) string {
	return fmt.Sprintf(`
  (func %s (param $m i32)
    (local $i i32) (local $j i32) (local $key i32)
    (local.set $i (i32.const 1))
    (block $done
      (loop $outer
        (br_if $done (i32.ge_u (local.get $i) (local.get $m)))
        (local.set $key (call $ord_get (local.get $i)))
        (local.set $j (local.get $i))
        (block $placed
          (loop $shift
            (br_if $placed (i32.eqz (local.get $j)))
            (br_if $placed (i32.eqz
              (call %s (local.get $key) (call $ord_get (i32.sub (local.get $j) (i32.const 1))))))
            (call $ord_set (local.get $j) (call $ord_get (i32.sub (local.get $j) (i32.const 1))))
            (local.set $j (i32.sub (local.get $j) (i32.const 1)))
            (br $shift)))
        (call $ord_set (local.get $j) (local.get $key))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $outer))))
`, name, lessFunc)
}

// refMaxThroughputWAT is the MT intra-slice scheduler: best channel first.
var refMaxThroughputWAT = "(module " + refPrelude + `
  ;; mt_less: higher bits-per-PRB first; ties broken by lower UE id.
  (func $mt_less (param $a i32) (param $b i32) (result i32)
    (local $ea i32) (local $eb i32)
    (local.set $ea (call $ue_per (local.get $a)))
    (local.set $eb (call $ue_per (local.get $b)))
    (if (result i32) (i32.gt_u (local.get $ea) (local.get $eb))
      (then (i32.const 1))
      (else (if (result i32) (i32.eq (local.get $ea) (local.get $eb))
        (then (i32.lt_u (call $ue_id (local.get $a)) (call $ue_id (local.get $b))))
        (else (i32.const 0))))))
` + refSort("$mt_sort", "$mt_less") + `
  (func $core (param $n i32)
    (local $m i32)
    (global.set $outn (i32.const 0))
    (local.set $m (call $collect_active (local.get $n)))
    (call $mt_sort (local.get $m))
    (call $fill (local.get $m) (call $budget))
    (call $seal))

  (func (export "schedule") (result i32)
    (call $core (call $load_input))
    (call $publish)
    (i32.const 0))

  (func (export "schedule_zc") (result i32)
    (call $core (i32.load (i32.const 1040)))
    (i32.const 0))
)`

// refProportionalFairWAT is the PF intra-slice scheduler: rank by
// instantaneous-rate over long-term average throughput.
var refProportionalFairWAT = "(module " + refPrelude + `
  (func $metric_get (param $i i32) (result f64)
    (f64.load (i32.add (i32.const 24576) (i32.shl (local.get $i) (i32.const 3)))))
  (func $metric_set (param $i i32) (param $v f64)
    (f64.store (i32.add (i32.const 24576) (i32.shl (local.get $i) (i32.const 3))) (local.get $v)))

  ;; compute_metrics stores bitsPerPRB / max(avg, 1000) for every UE.
  (func $compute_metrics (param $n i32)
    (local $i i32) (local $avg f64)
    (block $done
      (loop $top
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $avg (call $ue_avg (local.get $i)))
        (if (f64.lt (local.get $avg) (f64.const 1000))
          (then (local.set $avg (f64.const 1000))))
        (call $metric_set (local.get $i)
          (f64.div
            (f64.convert_i32_u (call $ue_per (local.get $i)))
            (local.get $avg)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $top))))

  ;; pf_less: higher metric first; ties broken by lower UE id.
  (func $pf_less (param $a i32) (param $b i32) (result i32)
    (local $ma f64) (local $mb f64)
    (local.set $ma (call $metric_get (local.get $a)))
    (local.set $mb (call $metric_get (local.get $b)))
    (if (result i32) (f64.gt (local.get $ma) (local.get $mb))
      (then (i32.const 1))
      (else (if (result i32) (f64.eq (local.get $ma) (local.get $mb))
        (then (i32.lt_u (call $ue_id (local.get $a)) (call $ue_id (local.get $b))))
        (else (i32.const 0))))))
` + refSort("$pf_sort", "$pf_less") + `
  (func $core (param $n i32)
    (local $m i32)
    (global.set $outn (i32.const 0))
    (call $compute_metrics (local.get $n))
    (local.set $m (call $collect_active (local.get $n)))
    (call $pf_sort (local.get $m))
    (call $fill (local.get $m) (call $budget))
    (call $seal))

  (func (export "schedule") (result i32)
    (call $core (call $load_input))
    (call $publish)
    (i32.const 0))

  (func (export "schedule_zc") (result i32)
    (call $core (i32.load (i32.const 1040)))
    (i32.const 0))
)`

// refRoundRobinWAT is the RR intra-slice scheduler: equal rotating shares,
// capped at buffer need, with spill.
var refRoundRobinWAT = "(module " + refPrelude + `
  (func $grant_get (param $k i32) (result i32)
    (i32.load (i32.add (i32.const 32768) (i32.shl (local.get $k) (i32.const 2)))))
  (func $grant_set (param $k i32) (param $v i32)
    (i32.store (i32.add (i32.const 32768) (i32.shl (local.get $k) (i32.const 2))) (local.get $v)))
  (func $need_get (param $k i32) (result i32)
    (i32.load (i32.add (i32.const 36864) (i32.shl (local.get $k) (i32.const 2)))))
  (func $need_set (param $k i32) (param $v i32)
    (i32.store (i32.add (i32.const 36864) (i32.shl (local.get $k) (i32.const 2))) (local.get $v)))

  (func $core (param $n i32)
    (local $m i32) (local $budget i32) (local $start i32)
    (local $i i32) (local $ix i32) (local $progressed i32)
    (global.set $outn (i32.const 0))
    (local.set $m (call $collect_active (local.get $n)))
    (local.set $budget (call $budget))
    (if (i32.or (i32.eqz (local.get $m)) (i32.eqz (local.get $budget)))
      (then
        (call $seal)
        (return)))

    ;; Cache per-position need, zero grants.
    (local.set $i (i32.const 0))
    (block $cdone
      (loop $cache
        (br_if $cdone (i32.ge_u (local.get $i) (local.get $m)))
        (call $need_set (local.get $i) (call $need (call $ord_get (local.get $i))))
        (call $grant_set (local.get $i) (i32.const 0))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $cache)))

    (local.set $start
      (i32.wrap_i64 (i64.rem_u (call $slot) (i64.extend_i32_u (local.get $m)))))

    ;; Rotating one-PRB rounds until the budget or all needs are exhausted.
    (block $rdone
      (loop $rounds
        (local.set $progressed (i32.const 0))
        (local.set $i (i32.const 0))
        (block $idone
          (loop $inner
            (br_if $idone (i32.ge_u (local.get $i) (local.get $m)))
            (br_if $idone (i32.eqz (local.get $budget)))
            (local.set $ix
              (i32.rem_u (i32.add (local.get $start) (local.get $i)) (local.get $m)))
            (if (i32.lt_u (call $grant_get (local.get $ix)) (call $need_get (local.get $ix)))
              (then
                (call $grant_set (local.get $ix)
                  (i32.add (call $grant_get (local.get $ix)) (i32.const 1)))
                (local.set $budget (i32.sub (local.get $budget) (i32.const 1)))
                (local.set $progressed (i32.const 1))))
            (local.set $i (i32.add (local.get $i) (i32.const 1)))
            (br $inner)))
        (br_if $rdone (i32.eqz (local.get $progressed)))
        (br_if $rdone (i32.eqz (local.get $budget)))
        (br $rounds)))

    ;; Emit grants in active order.
    (local.set $i (i32.const 0))
    (block $edone
      (loop $emitl
        (br_if $edone (i32.ge_u (local.get $i) (local.get $m)))
        (if (i32.ne (call $grant_get (local.get $i)) (i32.const 0))
          (then (call $emit
            (call $ue_id (call $ord_get (local.get $i)))
            (call $grant_get (local.get $i)))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $emitl)))
    (call $seal))

  (func (export "schedule") (result i32)
    (call $core (call $load_input))
    (call $publish)
    (i32.const 0))

  (func (export "schedule_zc") (result i32)
    (call $core (i32.load (i32.const 1040)))
    (i32.const 0))
)`

func refSchedulerWAT(name string) string {
	switch name {
	case "rr":
		return refRoundRobinWAT
	case "pf":
		return refProportionalFairWAT
	default:
		return refMaxThroughputWAT
	}
}

// corpusRequest draws one request of the equivalence corpus: 0–64 UEs with
// the 0 / 1 / 512 extremes, empty buffers and dead channels, duplicate UE
// IDs, keys tied across UEs (few distinct rates and averages), ±Inf
// averages, budgets 0–52 and budgets beyond the total need. nanAvg and
// hugeNeed report the inputs whose decision the rewrite moved on purpose — a
// NaN average (PF's floor) and a need past 2^32 PRBs (saturation) — which
// only native judges.
func corpusRequest(rng *rand.Rand, trial int) (req *sched.Request, nanAvg, hugeNeed bool) {
	nUE := rng.Intn(65)
	switch trial % 500 {
	case 0:
		nUE = 0
	case 1:
		nUE = 1
	case 2:
		nUE = 512
	}
	req = &sched.Request{
		SliceID:   uint32(rng.Intn(8)),
		Slot:      rng.Uint64() >> uint(rng.Intn(64)),
		PRBBudget: uint32(rng.Intn(53)),
	}
	if rng.Intn(8) == 0 {
		req.PRBBudget = uint32(53 + rng.Intn(4000)) // above Σ need when buffers are small or UEs few
	}
	tied := rng.Intn(3) == 0 // draw rates and averages from a handful of values
	small := rng.Intn(3) == 0
	for i := 0; i < nUE; i++ {
		u := sched.UEInfo{ID: uint32(100 + i), MCS: int32(rng.Intn(29))}
		if rng.Intn(16) == 0 && i > 0 {
			u.ID = req.UEs[rng.Intn(i)].ID
		}
		if tied {
			u.MCS = int32(16 + 4*rng.Intn(3))
		}
		if rng.Intn(10) > 0 {
			u.BitsPerPRB = uint32(40 + 60*u.MCS)
		}
		switch {
		case rng.Intn(10) == 0:
		case small:
			u.BufferBytes = uint32(1 + rng.Intn(400)) // a PRB or two each
		default:
			u.BufferBytes = uint32(rng.Intn(200_000))
		}
		u.AvgTputBps = float64(rng.Intn(30_000_000))
		if tied {
			u.AvgTputBps = float64(1+rng.Intn(3)) * 1e6
		}
		switch rng.Intn(48) {
		case 0:
			u.AvgTputBps = math.Inf(1)
		case 1:
			u.AvgTputBps = math.Inf(-1)
		case 2:
			u.AvgTputBps = -5e6
		case 3:
			if trial%4 == 0 {
				u.AvgTputBps = math.NaN()
				nanAvg = true
			}
		case 4:
			if trial%4 == 1 {
				u.BitsPerPRB = uint32(1 + rng.Intn(7))
				u.BufferBytes = math.MaxUint32 - uint32(rng.Intn(1<<28))
				hugeNeed = true
			}
		}
		req.UEs = append(req.UEs, u)
	}
	return req, nanAvg, hugeNeed
}

// guestDecision runs one decision and returns the guest's allocation list.
// A request with duplicate UE IDs can draw two grants for one ID, which both
// response decoders reject as overlapping; the list is then read from the
// guest's response buffer, where either ABI leaves it sealed.
func guestDecision(s *sched.PluginScheduler, req *sched.Request, resp *sched.Response) ([]sched.Allocation, error) {
	_, err := sched.ScheduleInto(s, req, resp)
	var bo *sched.BadOutputError
	if err == nil || !errors.As(err, &bo) || bo.Kind != sched.BadOutputOverlap {
		return resp.Allocs, err
	}
	mem := s.Plugin().Instance().Memory()
	n, err := mem.ReadUint32(40960)
	if err != nil {
		return nil, err
	}
	allocs := make([]sched.Allocation, n)
	for i := range allocs {
		id, err1 := mem.ReadUint32(40964 + 8*uint32(i))
		prbs, err2 := mem.ReadUint32(40968 + 8*uint32(i))
		if err := errors.Join(err1, err2); err != nil {
			return nil, err
		}
		allocs[i] = sched.Allocation{UEID: id, PRBs: prbs}
	}
	return allocs, nil
}

// TestReferenceGuestEquivalence is the rewrite's gate: over 10 000 seeded
// requests, through both ABIs, the shipped guest, the guest it replaced and
// the native policy return the same allocation list. The old guest sits
// out the inputs whose decision changed on purpose.
func TestReferenceGuestEquivalence(t *testing.T) {
	trials := 10_000
	if testing.Short() || raceEnabled {
		trials = 1_000
	}
	for _, name := range []string{"rr", "pf", "mt"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			native, _ := sched.ByName(name)
			refMod, err := wabi.CompileWAT(refSchedulerWAT(name))
			if err != nil {
				t.Fatalf("compile reference %s: %v", name, err)
			}
			type leg struct {
				name string
				s    *sched.PluginScheduler
				old  bool
			}
			legs := []leg{
				{"new/codec", newSchedABI(t, name, sched.ABICodec, wabi.Env{}), false},
				{"new/zerocopy", newSchedABI(t, name, sched.ABIZeroCopy, wabi.Env{}), false},
				{"old/codec", newModuleSchedABI(t, name, refMod, sched.ABICodec, wabi.Env{}), true},
				{"old/zerocopy", newModuleSchedABI(t, name, refMod, sched.ABIZeroCopy, wabi.Env{}), true},
			}
			rng := rand.New(rand.NewSource(22))
			var want, got sched.Response
			oldLegs := 0
			for trial := 0; trial < trials; trial++ {
				req, nanAvg, hugeNeed := corpusRequest(rng, trial)
				if _, err := sched.ScheduleInto(native, req, &want); err != nil {
					t.Fatalf("trial %d: native: %v", trial, err)
				}
				for _, l := range legs {
					if l.old && (hugeNeed || nanAvg && name == "pf") {
						continue
					}
					if l.old {
						oldLegs++
					}
					allocs, err := guestDecision(l.s, req, &got)
					if err != nil {
						t.Fatalf("trial %d: %s: %v", trial, l.name, err)
					}
					if !allocsEqual(allocs, want.Allocs) {
						t.Fatalf("trial %d (%d UEs, budget %d): %s diverges from native\n%s: %v\nnative: %v",
							trial, len(req.UEs), req.PRBBudget, l.name, l.name, allocs, want.Allocs)
					}
				}
			}
			if oldLegs < trials*3/2 {
				t.Fatalf("old guest judged only %d of %d legs", oldLegs, 2*trials)
			}
		})
	}
}
