package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names a layer boundary the harness can see from outside the
// program. The string is "<package>.<what>", the layer names of README.md.
type spanKind uint8

const (
	kindSlot        spanKind = iota // root: one CellGroup.StepAll call
	kindLoop                        // root: Snapshot call -> last Apply return
	kindSchedule                    // sched.IntraSlice.Schedule (decorator)
	kindInterSlice                  // sched.InterSlice.Divide (decorator)
	kindSnapshot                    // ric.RANControl.Snapshot (wrapper)
	kindApply                       // ric.RANControl.Apply (wrapper)
	kindE2Encode                    // e2.Codec.Encode/AppendEncode (decorator)
	kindE2Decode                    // e2.Codec.Decode (decorator)
	kindE2Write                     // net.Conn.Write (decorator)
	kindRICDispatch                 // RIC side: indication decoded -> first control encode
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"core.step_all", "bench.loop", "sched.schedule", "sched.interslice",
	"core.snapshot", "core.apply", "e2.encode", "e2.decode", "e2.write", "ric.dispatch",
}

func (k spanKind) String() string { return spanKindNames[k] }

// isRoot reports whether spans of this kind are the per-operation root that
// the other spans of the same op hang under.
func (k spanKind) isRoot() bool { return k == kindSlot || k == kindLoop }

// span is one timed interval at a layer boundary. Spans of one operation
// (a group slot or a control loop) share Op; every non-root span's parent is
// the root span of its Op on its lane's recorder.
type span struct {
	Op         uint64
	Start, End int64 // ns since the recorder's epoch
	Lane       uint16
	Kind       spanKind
}

// maxSpansPerLane bounds the memory a traced run holds (32 B per span). When
// any lane fills, every lane stops recording: the table is then computed from
// the operations traced up to that point, a prefix of the arm, instead of
// from operations with some of their spans missing.
const maxSpansPerLane = 1 << 20

// lane is one cell's (or one association's) span buffer. Several goroutines
// of the program write to one lane (agent receive loop, RIC receive loop,
// the driver), so adds take the lane lock; it is never contended for long.
type lane struct {
	id    uint16
	epoch time.Time
	full  *atomic.Bool // the recorder's: set once any lane has filled

	mu    sync.Mutex
	spans []span
	op    uint64 // current operation id, stamped on every non-root add
}

func (l *lane) now() int64 { return int64(time.Since(l.epoch)) }

// setOp names the operation subsequent spans belong to.
func (l *lane) setOp(op uint64) {
	l.mu.Lock()
	l.op = op
	l.mu.Unlock()
}

// add records one span under the lane's current operation.
func (l *lane) add(kind spanKind, start, end int64) {
	l.mu.Lock()
	l.addLocked(kind, l.op, start, end)
	l.mu.Unlock()
}

// addOp records one span under an explicit operation id.
func (l *lane) addOp(kind spanKind, op uint64, start, end int64) {
	l.mu.Lock()
	l.addLocked(kind, op, start, end)
	l.mu.Unlock()
}

func (l *lane) addLocked(kind spanKind, op uint64, start, end int64) {
	if l.full.Load() {
		return
	}
	l.spans = append(l.spans, span{Op: op, Start: start, End: end, Lane: l.id, Kind: kind})
	if len(l.spans) >= maxSpansPerLane {
		l.full.Store(true)
	}
}

// recorder keeps the spans of one traced run in memory; they are processed
// and written out only after the timed phase ends.
type recorder struct {
	epoch time.Time
	lanes []*lane
	full  atomic.Bool
}

func newRecorder(lanes int) *recorder {
	r := &recorder{epoch: time.Now()}
	for i := 0; i < lanes; i++ {
		r.lanes = append(r.lanes, &lane{id: uint16(i), epoch: r.epoch, full: &r.full, spans: make([]span, 0, 1<<14)})
	}
	return r
}

// all returns every recorded span, lanes concatenated.
func (r *recorder) all() []span {
	var out []span
	for _, l := range r.lanes {
		l.mu.Lock()
		out = append(out, l.spans...)
		l.mu.Unlock()
	}
	return out
}

// attribution is the wall time of a set of operations split by layer.
type attribution struct {
	Ops      int
	RootWall float64               // total root span time, ns
	RootSelf float64               // root time no child covers, ns
	Share    [numSpanKinds]float64 // wall time attributed to each child kind, ns
	Busy     [numSpanKinds]float64 // plain sum of child durations, ns
	Count    [numSpanKinds]int
}

// closureError is |sum of attributed self times - root wall| / root wall:
// 0 when the tree accounts for every nanosecond of every operation.
func (a attribution) closureError() float64 {
	if a.RootWall == 0 {
		return 0
	}
	sum := a.RootSelf
	for _, s := range a.Share {
		sum += s
	}
	d := sum - a.RootWall
	if d < 0 {
		d = -d
	}
	return d / a.RootWall
}

// missing names the kinds among want with fewer spans than operations: a
// decorator that was never installed.
func (a attribution) missing(want ...spanKind) []string {
	var out []string
	for _, k := range want {
		if a.Count[k] < a.Ops || a.Ops == 0 {
			out = append(out, k.String())
		}
	}
	return out
}

// attribute computes layer self times for every operation that has a root
// span. groupByLane says whether children hang under the root of their own
// lane (control loops, one root per association) or under one root shared by
// all lanes (group slots, where the root is recorded on lane 0).
//
// Self time follows the choosing-metrics definition: a root's self time is
// its duration minus the part its children cover. Children of one root may
// overlap (cells stepped in parallel); an instant covered by k children is
// split k ways so that attributed times still sum to the root's wall.
// Children are clipped to their root; those wholly outside it are ignored.
func attribute(spans []span, groupByLane bool) attribution {
	type key struct {
		op   uint64
		lane uint16
	}
	keyOf := func(s span) key {
		if groupByLane {
			return key{s.Op, s.Lane}
		}
		return key{s.Op, 0}
	}
	roots := make(map[key]span)
	children := make(map[key][]span)
	for _, s := range spans {
		if s.Kind.isRoot() {
			roots[keyOf(s)] = s
		} else {
			children[keyOf(s)] = append(children[keyOf(s)], s)
		}
	}
	var a attribution
	for k, root := range roots {
		a.Ops++
		a.RootWall += float64(root.End - root.Start)
		self, share := splitWall(root, children[k])
		a.RootSelf += self
		for kind, v := range share {
			a.Share[kind] += v
		}
		for _, c := range children[k] {
			if c.End <= root.Start || c.Start >= root.End {
				continue
			}
			a.Busy[c.Kind] += float64(c.End - c.Start)
			a.Count[c.Kind]++
		}
	}
	return a
}

// splitWall apportions one root's wall time between itself and its children.
func splitWall(root span, kids []span) (self float64, share [numSpanKinds]float64) {
	type edge struct {
		at    int64
		open  bool
		child int
	}
	var edges []edge
	for i, c := range kids {
		lo, hi := c.Start, c.End
		if lo < root.Start {
			lo = root.Start
		}
		if hi > root.End {
			hi = root.End
		}
		if hi <= lo {
			continue
		}
		edges = append(edges, edge{lo, true, i}, edge{hi, false, i})
	}
	// Closes sort before opens at the same instant so back-to-back children
	// never count as overlapping.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return !edges[i].open && edges[j].open
	})
	active := make(map[int]bool)
	at := root.Start
	for _, e := range edges {
		if d := float64(e.at - at); d > 0 {
			if len(active) == 0 {
				self += d
			} else {
				for i := range active {
					share[kids[i].Kind] += d / float64(len(active))
				}
			}
		}
		at = e.at
		if e.open {
			active[e.child] = true
		} else {
			delete(active, e.child)
		}
	}
	if d := float64(root.End - at); d > 0 {
		self += d
	}
	return self, share
}

// spanFileLimit caps the spans written out; the table is computed from all
// of them, the file is for looking at individual operations.
const spanFileLimit = 20000

type spanJSON struct {
	Op      uint64 `json:"op"`
	Lane    uint16 `json:"lane"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeSpans writes the first spanFileLimit spans (in start order) and the
// per-layer table of a traced run under dir.
func writeSpans(dir, name string, spans []span, rootKind spanKind, table map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if len(spans) > spanFileLimit {
		spans = spans[:spanFileLimit]
	}
	out := struct {
		Table map[string]float64 `json:"per_layer"`
		Spans []spanJSON         `json:"spans"`
	}{Table: table}
	for _, s := range spans {
		j := spanJSON{Op: s.Op, Lane: s.Lane, Name: s.Kind.String(), StartNs: s.Start, EndNs: s.End}
		if !s.Kind.isRoot() {
			j.Parent = rootKind.String()
		}
		out.Spans = append(out.Spans, j)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".spans.json"), b, 0o644)
}
