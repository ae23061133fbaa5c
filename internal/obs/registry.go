package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a concurrency-safe collection of named instruments. Names
// follow Prometheus conventions (waran_<subsystem>_<what>[_total|_us]);
// the same name may be registered many times with different labels (one
// series per cell, slice, pool, ...). Registration order is preserved in
// exposition so related series stay adjacent.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byKey   map[string]*entry
	snapSeq atomic.Uint64 // metric-exempt: snapshot-header sequence, not telemetry
}

type entry struct {
	name   string
	labels []Label
	help   string
	inst   Instrument
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry)}
}

// seriesKey is the unique identity of one registered series.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// Register adds an externally owned instrument under name+labels. It fails
// if the exact series is already registered.
func (r *Registry) Register(name, help string, inst Instrument, labels ...Label) error {
	if name == "" {
		return fmt.Errorf("obs: instrument name must not be empty")
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byKey[key]; dup {
		return fmt.Errorf("obs: series %s already registered", key)
	}
	e := &entry{name: name, labels: labels, help: help, inst: inst}
	r.byKey[key] = e
	r.entries = append(r.entries, e)
	return nil
}

// MustRegister is Register, panicking on error — duplicate registration is
// a wiring bug, not a runtime condition.
func (r *Registry) MustRegister(name, help string, inst Instrument, labels ...Label) {
	if err := r.Register(name, help, inst, labels...); err != nil {
		panic(err)
	}
}

// lookupOrRegister returns the existing instrument for the series or
// installs the one produced by mk.
func (r *Registry) lookupOrRegister(name, help string, mk func() Instrument, labels []Label) Instrument {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[key]; ok {
		return e.inst
	}
	e := &entry{name: name, labels: labels, help: help, inst: mk()}
	r.byKey[key] = e
	r.entries = append(r.entries, e)
	return e.inst
}

// Counter returns the counter registered under name+labels, creating it on
// first use. It panics if the series exists with a different kind.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	inst := r.lookupOrRegister(name, help, func() Instrument { return &Counter{} }, labels)
	c, ok := inst.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: series %s is a %s, not a counter", seriesKey(name, labels), inst.InstrumentKind()))
	}
	return c
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use. It panics if the series exists with a different kind.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	inst := r.lookupOrRegister(name, help, func() Instrument { return &Gauge{} }, labels)
	g, ok := inst.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: series %s is a %s, not a gauge", seriesKey(name, labels), inst.InstrumentKind()))
	}
	return g
}

// Histogram returns the histogram registered under name+labels, creating it
// on first use. It panics if the series exists with a different kind.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	inst := r.lookupOrRegister(name, help, func() Instrument { return NewHistogram() }, labels)
	h, ok := inst.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: series %s is a %s, not a histogram", seriesKey(name, labels), inst.InstrumentKind()))
	}
	return h
}

// Len reports the number of registered series.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// snapshotEntries copies the entry list so collection runs without holding
// the registry lock (instruments synchronize themselves).
func (r *Registry) snapshotEntries() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*entry(nil), r.entries...)
}

// SnapshotHeaderKey is the reserved Snapshot key carrying the snapshot
// header. It starts with "_" so it can never collide with a series key
// (instrument names follow Prometheus conventions, waran_*).
const SnapshotHeaderKey = "_snapshot"

// SnapshotHeader stamps one Snapshot call: wall-clock time plus a
// per-registry monotonic sequence, so two snapshots embedded in a
// diagnostic bundle can be ordered, diffed and rate-computed even when the
// wall clock steps.
type SnapshotHeader struct {
	UnixNanos int64  `json:"unix_nanos"`
	Seq       uint64 `json:"seq"`
}

// Snapshot returns every series' flat JSON value keyed by its full series
// name (labels included), ready to embed in experiment output, plus a
// SnapshotHeader under SnapshotHeaderKey. The header never appears in
// Prometheus exposition (WritePrometheus does not consume Snapshot).
func (r *Registry) Snapshot() map[string]any {
	entries := r.snapshotEntries()
	out := make(map[string]any, len(entries)+1)
	out[SnapshotHeaderKey] = SnapshotHeader{
		UnixNanos: time.Now().UnixNano(),
		Seq:       r.snapSeq.Add(1),
	}
	for _, e := range entries {
		out[seriesKey(e.name, e.labels)] = e.inst.JSONValue()
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). HELP/TYPE headers are emitted once per metric
// name; untyped multi-sample instruments get HELP only, since their samples
// carry suffixed names.
func (r *Registry) WritePrometheus(w io.Writer) error {
	entries := r.snapshotEntries()
	headerDone := make(map[string]bool, len(entries))
	for _, e := range entries {
		if !headerDone[e.name] {
			headerDone[e.name] = true
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, sanitizeHelp(e.help)); err != nil {
					return err
				}
			}
			if kind := e.inst.InstrumentKind(); kind != KindUntyped {
				if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, kind); err != nil {
					return err
				}
			}
		}
		for _, s := range e.inst.Samples() {
			labels := e.labels
			if len(s.Labels) > 0 {
				labels = append(append([]Label(nil), e.labels...), s.Labels...)
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				e.name+s.Suffix, renderLabels(labels), formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sanitizeHelp(help string) string {
	return strings.NewReplacer("\n", " ", "\\", `\\`).Replace(help)
}
