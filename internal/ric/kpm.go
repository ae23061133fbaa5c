package ric

import (
	"sync"
	"time"

	"waran/internal/e2"
)

// KPMStore is the RIC's measurement database: a bounded ring of indications
// per cell, with per-UE and per-slice history queries. The non-RT RIC's
// analytics (rApps) would read from here; in this repo it backs the RIC's
// observability and tests.
type KPMStore struct {
	mu    sync.RWMutex
	limit int
	cells map[uint32]kpmRing
}

// kpmRing is one cell's history: buf grows to the store's limit and is then
// overwritten in place, head naming the oldest entry — an evicted indication
// is unreachable the moment its slot is reused.
type kpmRing struct {
	buf  []*StampedIndication
	head int
}

// at returns the i-th oldest entry, 0 <= i < len(r.buf).
func (r kpmRing) at(i int) *StampedIndication {
	return r.buf[(r.head+i)%len(r.buf)]
}

// StampedIndication pairs an indication with its arrival time.
type StampedIndication struct {
	At         time.Time
	Indication *e2.Indication
}

// DefaultKPMHistory is the per-cell ring size when limit is 0.
const DefaultKPMHistory = 1024

// NewKPMStore creates a store retaining up to limit indications per cell.
func NewKPMStore(limit int) *KPMStore {
	if limit <= 0 {
		limit = DefaultKPMHistory
	}
	return &KPMStore{limit: limit, cells: make(map[uint32]kpmRing)}
}

// Record stores one indication, evicting the cell's oldest once limit are
// held.
func (k *KPMStore) Record(at time.Time, ind *e2.Indication) {
	si := &StampedIndication{At: at, Indication: ind}
	k.mu.Lock()
	defer k.mu.Unlock()
	r := k.cells[ind.Cell]
	if r.buf == nil {
		r.buf = make([]*StampedIndication, 0, k.limit)
	}
	if len(r.buf) < k.limit {
		r.buf = append(r.buf, si)
	} else {
		r.buf[r.head] = si
		r.head = (r.head + 1) % k.limit
	}
	k.cells[ind.Cell] = r
}

// Cells lists cell IDs with recorded history.
func (k *KPMStore) Cells() []uint32 {
	k.mu.RLock()
	defer k.mu.RUnlock()
	out := make([]uint32, 0, len(k.cells))
	for id := range k.cells {
		out = append(out, id)
	}
	return out
}

// Latest returns the most recent indication for a cell.
func (k *KPMStore) Latest(cell uint32) (*StampedIndication, bool) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	r := k.cells[cell]
	if len(r.buf) == 0 {
		return nil, false
	}
	return r.at(len(r.buf) - 1), true
}

// History returns up to n most recent indications for a cell, oldest first.
func (k *KPMStore) History(cell uint32, n int) []*StampedIndication {
	k.mu.RLock()
	defer k.mu.RUnlock()
	r := k.cells[cell]
	all := len(r.buf)
	if n <= 0 || n > all {
		n = all
	}
	out := make([]*StampedIndication, n)
	for i := range out {
		out[i] = r.at(all - n + i)
	}
	return out
}

// UETputSeries extracts a UE's reported throughput across a cell's history,
// oldest first.
func (k *KPMStore) UETputSeries(cell, ueID uint32) []float64 {
	k.mu.RLock()
	defer k.mu.RUnlock()
	var out []float64
	r := k.cells[cell]
	for i := range r.buf {
		for _, u := range r.at(i).Indication.UEs {
			if u.UEID == ueID {
				out = append(out, u.TputBps)
				break
			}
		}
	}
	return out
}

// SliceSLACompliance reports what fraction of a slice's recorded samples
// met at least frac of its target rate (e.g. frac=0.9 for "within 90%").
func (k *KPMStore) SliceSLACompliance(cell, sliceID uint32, frac float64) (met, total int) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	r := k.cells[cell]
	for i := range r.buf {
		for _, s := range r.at(i).Indication.Slices {
			if s.SliceID != sliceID || s.TargetBps <= 0 {
				continue
			}
			total++
			if s.ServedBps >= frac*s.TargetBps {
				met++
			}
		}
	}
	return met, total
}
