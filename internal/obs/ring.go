package obs

import "sync"

// SliceTrace is one slice's share of a slot: which scheduler ran, what it
// granted, and what it cost.
type SliceTrace struct {
	Slice    string `json:"slice"`
	Sched    string `json:"sched"`
	PRBs     int    `json:"prbs"`
	Bits     int    `json:"bits"`
	Fallback bool   `json:"fallback,omitempty"`
	FuelUsed int64  `json:"fuel_used,omitempty"`
	WallUs   int64  `json:"wall_us"`
}

// SlotEvent is the structured trace of one slot on one cell — everything
// the deadline analysis needs to explain a late slot after the fact.
type SlotEvent struct {
	Slot       uint64       `json:"slot"`
	Cell       int          `json:"cell"`
	WallUs     int64        `json:"wall_us"`
	DeadlineUs int64        `json:"deadline_us,omitempty"`
	Overrun    bool         `json:"overrun,omitempty"`
	Fallback   bool         `json:"fallback,omitempty"`
	Slices     []SliceTrace `json:"slices,omitempty"`
}

// TraceRing is a fixed-size ring buffer of SlotEvents, safe for concurrent
// producers (one per cell worker) and readers (the /debug/slots scrape).
// Memory is bounded: once full, each Add evicts the oldest event. The ring
// owns its storage: Add copies the event's Slices into the evicted entry's
// array and Last copies them out, so a producer may reuse one SlotEvent
// every slot and a reader keeps what it was handed.
type TraceRing struct {
	mu   sync.Mutex
	buf  []SlotEvent
	next int
	full bool
}

// NewTraceRing creates a ring holding the last n slot events (n >= 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{buf: make([]SlotEvent, n)}
}

// Add records a copy of one slot event, evicting the oldest when full.
func (r *TraceRing) Add(ev SlotEvent) {
	r.mu.Lock()
	ev.Slices = append(r.buf[r.next].Slices[:0], ev.Slices...)
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Len reports how many events are currently buffered.
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Last returns copies of up to n most recent events, oldest first.
func (r *TraceRing) Last(n int) []SlotEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	have := len(r.buf)
	if !r.full {
		have = r.next
	}
	if n <= 0 || n > have {
		n = have
	}
	out := make([]SlotEvent, n)
	for i := 0; i < n; i++ {
		idx := r.next - n + i
		if idx < 0 {
			idx += len(r.buf)
		}
		out[i] = r.buf[idx]
		out[i].Slices = append([]SliceTrace(nil), r.buf[idx].Slices...)
	}
	return out
}
