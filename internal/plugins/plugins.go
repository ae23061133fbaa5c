// Package plugins holds the WebAssembly plugin corpus shipped with WA-RAN:
// the three MVNO intra-slice schedulers the paper evaluates (round-robin,
// proportional fair, max throughput), written in the WebAssembly text
// format against the wabi ABI and the binary scheduling codec, plus the
// fault-injection plugins used by the §5D memory-safety matrix and the
// Fig. 5c leak experiment.
//
// The scheduler plugins are differentially tested against the native Go
// policies in internal/sched: for any request, plugin and native decisions
// must be identical.
package plugins

import (
	"fmt"
	"sync"

	"waran/internal/wabi"
)

// Shared WAT fragments: plugin memory layout and ABI plumbing.
//
//	0     .. 1023   scratch
//	1024  .. 20479  request buffer (header 20 B + 24 B per UE, ≤512 UEs)
//	20480 .. 28671  entry array   (16 B per active UE: f64 key | u32 id | u32 need)
//	40960 .. 45059  response buffer
//
// The request and response buffers double as the zero-copy regions
// (zc_req_region/zc_resp_region): the serializing path copies the request
// into the same buffer via input_read that the zero-copy host writes
// directly, so one decision body serves both ABIs unchanged. Each
// scheduler's decision logic is its $core function, exported as
// "schedule_zc": it reads the request buffer and seals the response count in
// place; "schedule" wraps it with the input_read/output_write copy plumbing.
//
// Every guest is the same two steps. $collect walks the request once by
// pointer and caches, per active UE, everything the decision needs — the
// ranking key (the prelude's first %s), the id and the PRB need — so
// nothing after it touches a UE record or calls a per-field accessor. $core
// (the second %s) then spends the budget over the entries and appends its
// grants at $out.
const watPrelude = `
  (import "waran" "input_length" (func $input_length (result i32)))
  (import "waran" "input_read"   (func $input_read (param i32 i32 i32) (result i32)))
  (import "waran" "output_write" (func $output_write (param i32 i32)))
  (import "waran" "error_set"    (func $error_set (param i32 i32)))
  (import "waran" "log"          (func $log (param i32 i32)))
  (memory (export "memory") 1 4)

  ;; Zero-copy region negotiation: the request buffer and response buffer
  ;; are the shared-memory windows.
  (func (export "zc_req_region") (result i32) (i32.const 1024))
  (func (export "zc_resp_region") (result i32) (i32.const 40960))

  ;; collect appends one entry per UE with queued data and a usable channel,
  ;; in request order, and returns the address past the last one. need is
  ;; the PRBs that drain the buffer, ceil(8*buf / per), saturated at 2^32-1.
  (func $collect (result i32)
    (local $p i32) (local $end i32) (local $e i32)
    (local $per i32) (local $buf i32) (local $need i64)
    (local.set $p (i32.const 1044))
    (local.set $end
      (i32.add (i32.const 1044) (i32.mul (i32.load (i32.const 1040)) (i32.const 24))))
    (local.set $e (i32.const 20480))
    (block $done
      (loop $top
        (br_if $done (i32.ge_u (local.get $p) (local.get $end)))
        (block $idle
          (br_if $idle (i32.eqz (local.tee $per (i32.load offset=8 (local.get $p)))))
          (br_if $idle (i32.eqz (local.tee $buf (i32.load offset=12 (local.get $p)))))
          (f64.store (local.get $e) %s)
          (i32.store offset=8 (local.get $e) (i32.load (local.get $p)))
          (local.set $need
            (i64.div_u
              (i64.add
                (i64.shl (i64.extend_i32_u (local.get $buf)) (i64.const 3))
                (i64.extend_i32_u (i32.sub (local.get $per) (i32.const 1))))
              (i64.extend_i32_u (local.get $per))))
          (i32.store offset=12 (local.get $e)
            (select
              (i32.const -1)
              (i32.wrap_i64 (local.get $need))
              (i64.gt_u (local.get $need) (i64.const 0xFFFFFFFF))))
          (local.set $e (i32.add (local.get $e) (i32.const 16))))
        (local.set $p (i32.add (local.get $p) (i32.const 24)))
        (br $top)))
    (local.get $e))
%s
  (func (export "schedule") (result i32)
    (drop (call $input_read (i32.const 1024) (i32.const 0) (call $input_length)))
    (drop (call $core))
    (call $output_write
      (i32.const 40960)
      (i32.add (i32.const 4) (i32.shl (i32.load (i32.const 40960)) (i32.const 3))))
    (i32.const 0))
`

// watRanked is the body MT and PF share: serve the best remaining entry —
// highest key, then lowest UE id, then earliest in the request — its full
// need until the budget is spent. That is the order a stable sort by
// (key desc, id asc) produces, found by selection because the budget
// usually covers one or two UEs: O(entries × grants) instead of a sort of
// all of them. A served entry's key drops to -2, below the scan's starting
// bound of -1 and every real key (all ≥ 0), so one compare rejects served
// and outranked entries alike.
const watRanked = `
  (func $core (export "schedule_zc") (result i32)
    (local $end i32) (local $budget i32) (local $out i32)
    (local $e i32) (local $best i32) (local $g i32)
    (local $k f64) (local $bk f64)
    (local.set $end (call $collect))
    (local.set $budget (i32.load (i32.const 1036)))
    (local.set $out (i32.const 40964))
    (block $done
      (br_if $done (i32.eq (local.get $end) (i32.const 20480)))
      (loop $next
        (br_if $done (i32.eqz (local.get $budget)))
        (local.set $best (i32.const 0))
        (local.set $bk (f64.const -1))
        (local.set $e (i32.const 20480))
        (loop $scan
          (block $worse
            (br_if $worse (f64.lt (local.tee $k (f64.load (local.get $e))) (local.get $bk)))
            (if (f64.eq (local.get $k) (local.get $bk))
              (then (br_if $worse
                (i32.ge_u (i32.load offset=8 (local.get $e)) (i32.load offset=8 (local.get $best))))))
            (local.set $best (local.get $e))
            (local.set $bk (local.get $k)))
          (local.set $e (i32.add (local.get $e) (i32.const 16)))
          (br_if $scan (i32.lt_u (local.get $e) (local.get $end))))
        (br_if $done (i32.eqz (local.get $best)))
        (local.set $g (i32.load offset=12 (local.get $best)))
        (if (i32.gt_u (local.get $g) (local.get $budget))
          (then (local.set $g (local.get $budget))))
        (i32.store (local.get $out) (i32.load offset=8 (local.get $best)))
        (i32.store offset=4 (local.get $out) (local.get $g))
        (local.set $out (i32.add (local.get $out) (i32.const 8)))
        (local.set $budget (i32.sub (local.get $budget) (local.get $g)))
        (f64.store (local.get $best) (f64.const -2))
        (br $next)))
    (i32.store (i32.const 40960)
      (i32.shr_u (i32.sub (local.get $out) (i32.const 40964)) (i32.const 3)))
    (i32.const 0))
`

// watScheduler assembles a scheduler guest from the f64 ranking key $collect
// caches per entry (an expression over $p, the UE record, and $per) and the
// body that spends the budget.
func watScheduler(key, body string) string {
	return "(module " + fmt.Sprintf(watPrelude, key, body) + ")"
}

// MaxThroughputWAT is the MT intra-slice scheduler: best channel first
// (key: bits per PRB, which a float64 holds exactly).
var MaxThroughputWAT = watScheduler(`(f64.convert_i32_u (local.get $per))`, watRanked)

// ProportionalFairWAT is the PF intra-slice scheduler: rank by
// instantaneous-rate over long-term average throughput, the average floored
// at 1000 b/s — also when it is NaN, so no key ever is.
var ProportionalFairWAT = watScheduler(`
            (f64.div
              (f64.convert_i32_u (local.get $per))
              (select
                (f64.load offset=16 (local.get $p))
                (f64.const 1000)
                (f64.ge (f64.load offset=16 (local.get $p)) (f64.const 1000))))`, watRanked)

// RoundRobinWAT is the RR intra-slice scheduler: equal rotating shares,
// capped at buffer need, with spill. The entry's key slot holds the running
// grant (a u32, zeroed by the 0.0 key); the rounds are one cyclic walk from
// the slot's starting entry, one PRB per unsatisfied entry, until the
// budget is spent or a whole lap grants nothing.
var RoundRobinWAT = watScheduler(`(f64.const 0)`, `
  (func $core (export "schedule_zc") (result i32)
    (local $end i32) (local $m i32) (local $budget i32) (local $out i32)
    (local $e i32) (local $g i32) (local $idle i32)
    (local.set $end (call $collect))
    (local.set $m (i32.shr_u (i32.sub (local.get $end) (i32.const 20480)) (i32.const 4)))
    (local.set $budget (i32.load (i32.const 1036)))
    (local.set $out (i32.const 40964))
    (block $done
      (br_if $done (i32.eqz (local.get $m)))
      (br_if $done (i32.eqz (local.get $budget)))
      (local.set $e
        (i32.add
          (i32.const 20480)
          (i32.shl
            (i32.wrap_i64
              (i64.rem_u (i64.load (i32.const 1028)) (i64.extend_i32_u (local.get $m))))
            (i32.const 4))))
      (block $spent
        (loop $step
          (if (i32.lt_u (local.tee $g (i32.load (local.get $e))) (i32.load offset=12 (local.get $e)))
            (then
              (i32.store (local.get $e) (i32.add (local.get $g) (i32.const 1)))
              (local.set $budget (i32.sub (local.get $budget) (i32.const 1)))
              (br_if $spent (i32.eqz (local.get $budget)))
              (local.set $idle (i32.const 0)))
            (else
              (local.set $idle (i32.add (local.get $idle) (i32.const 1)))
              (br_if $spent (i32.eq (local.get $idle) (local.get $m)))))
          (local.set $e (i32.add (local.get $e) (i32.const 16)))
          (if (i32.eq (local.get $e) (local.get $end))
            (then (local.set $e (i32.const 20480))))
          (br $step)))
      ;; Emit grants in request order.
      (local.set $e (i32.const 20480))
      (loop $emit
        (if (local.tee $g (i32.load (local.get $e)))
          (then
            (i32.store (local.get $out) (i32.load offset=8 (local.get $e)))
            (i32.store offset=4 (local.get $out) (local.get $g))
            (local.set $out (i32.add (local.get $out) (i32.const 8)))))
        (local.set $e (i32.add (local.get $e) (i32.const 16)))
        (br_if $emit (i32.lt_u (local.get $e) (local.get $end)))))
    (i32.store (i32.const 40960)
      (i32.shr_u (i32.sub (local.get $out) (i32.const 40964)) (i32.const 3)))
    (i32.const 0))
`)

// SchedulerWAT returns the WAT source of the named built-in scheduler
// plugin ("rr", "pf" or "mt").
func SchedulerWAT(name string) (string, bool) {
	switch name {
	case "rr", "round-robin":
		return RoundRobinWAT, true
	case "pf", "proportional-fair":
		return ProportionalFairWAT, true
	case "mt", "max-throughput":
		return MaxThroughputWAT, true
	default:
		return "", false
	}
}

var (
	compiledMu sync.Mutex
	compiled   = map[string]*wabi.Module{}
)

// CompileScheduler compiles (with caching) one of the built-in scheduler
// plugins by name.
func CompileScheduler(name string) (*wabi.Module, error) {
	compiledMu.Lock()
	defer compiledMu.Unlock()
	if m, ok := compiled[name]; ok {
		return m, nil
	}
	src, ok := SchedulerWAT(name)
	if !ok {
		return nil, fmt.Errorf("plugins: unknown scheduler %q", name)
	}
	m, err := wabi.CompileWAT(src)
	if err != nil {
		return nil, fmt.Errorf("plugins: compile %q: %w", name, err)
	}
	compiled[name] = m
	return m, nil
}
