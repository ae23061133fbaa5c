package ric

// The brownout rule (DESIGN.md §17): overload is a backlog, so the level
// follows how long indications wait in the queue, after CoDel (Nichols and
// Jacobson, "Controlling Queue Delay", ACM Queue 2012). Nothing here reads a
// clock or starts a goroutine (TestAssocCoreIsSansIO checks it), so the rule
// runs on synthetic time.

import (
	"math"
	"sync/atomic"
	"time"
)

const (
	// sojournTarget is the standing wait that asks for degraded: the
	// near-RT control loop's 10 ms floor.
	sojournTarget = 10 * time.Millisecond
	// sojournInterval is how long a minimum is folded before it is judged,
	// and how long one request holds its level: CoDel's 100 ms.
	sojournInterval = 100 * time.Millisecond
)

// sojournWindow is one dispatcher's fold: the least sojourn seen since the
// open interval began. The dispatcher goroutine owns it, so it needs no
// lock. The zero window closes at the first dequeue and asks for nothing.
type sojournWindow struct {
	end time.Time     // the open interval closes at the first dequeue from here on
	min time.Duration // least sojourn folded into the open interval
}

// fold adds the sojourn of one indication dequeued at now, and returns the
// level the interval asks for when this dequeue closes it (BrownoutNormal
// otherwise). A least sojourn above stale asks for critical; stale <= 0
// asks for degraded at most.
func (w *sojournWindow) fold(now time.Time, sojourn, stale time.Duration) BrownoutLevel {
	w.min = min(w.min, sojourn)
	if now.Before(w.end) {
		return BrownoutNormal
	}
	ask := BrownoutNormal
	switch {
	case stale > 0 && w.min > stale:
		ask = BrownoutCritical
	case w.min > sojournTarget:
		ask = BrownoutDegraded
	}
	w.end, w.min = now.Add(sojournInterval), time.Duration(math.MaxInt64)
	return ask
}

// brownout is the RIC-wide level: two deadlines that requests push out, and
// the level a reader last saw. Deadlines are nanoseconds since epoch.
type brownout struct {
	epoch         time.Time
	criticalUntil atomic.Int64
	degradedUntil atomic.Int64
	seen          atomic.Int32 // a BrownoutLevel
}

// request holds lvl for one interval from now; normal asks for nothing.
// Critical holds for one interval and degraded for one more, so a calm RIC
// steps down one level per interval. A request never shortens a deadline
// another dispatcher set.
func (b *brownout) request(lvl BrownoutLevel, now time.Time) {
	t := int64(now.Sub(b.epoch))
	switch lvl {
	case BrownoutCritical:
		raise(&b.criticalUntil, t+int64(sojournInterval))
		raise(&b.degradedUntil, t+2*int64(sojournInterval))
	case BrownoutDegraded:
		raise(&b.degradedUntil, t+int64(sojournInterval))
	}
}

// raise moves a forward to v unless it is already past it.
func raise(a *atomic.Int64, v int64) {
	for cur := a.Load(); cur < v && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}

// at returns the level in force at now.
func (b *brownout) at(now time.Time) BrownoutLevel {
	t := int64(now.Sub(b.epoch))
	switch {
	case t < b.criticalUntil.Load():
		return BrownoutCritical
	case t < b.degradedUntil.Load():
		return BrownoutDegraded
	}
	return BrownoutNormal
}

// observe returns the level in force at now and, when this reader is the
// first to see it differ from the last level seen, the level it replaces.
// Only a change costs a compare-and-swap, so a steady level is read-only.
func (b *brownout) observe(now time.Time) (lvl, prev BrownoutLevel, changed bool) {
	lvl = b.at(now)
	prev = BrownoutLevel(b.seen.Load())
	return lvl, prev, prev != lvl && b.seen.CompareAndSwap(int32(prev), int32(lvl))
}
