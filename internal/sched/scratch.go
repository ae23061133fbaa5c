package sched

import "sync"

// scratch is the working memory one scheduling decision or validation needs:
// a UE-ID index, the per-UE entries the native policies rank, and
// round-robin's running grants. Requests must not carry pointers (callers
// copy them by value) and the native schedulers are plain values, so the
// memory is borrowed from a pool for the duration of one call and holds
// nothing afterwards.
type scratch struct {
	ids    IDIndex // Reset by its user; putScratch drops an outsized table
	ents   []ueEntry
	grants []uint32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(s *scratch) {
	s.ids.trim()
	scratchPool.Put(s)
}

// ueEntry is one active UE as the native policies see it: how many PRBs
// drain its buffer and its ranking metric. It is 16 bytes because MT and PF
// sort it by value.
type ueEntry struct {
	metric float64
	id     uint32
	need   uint32
}

// active resets s.ents to the UEs of req with queued data, in request order,
// with each UE's PRB need computed once and its metric taken from rank (nil:
// the policy does not rank).
func (s *scratch) active(req *Request, rank func(*UEInfo) float64) []ueEntry {
	ents := s.ents[:0]
	for i := range req.UEs {
		if u := &req.UEs[i]; u.BufferBytes > 0 && u.BitsPerPRB > 0 {
			e := ueEntry{id: u.ID, need: prbsNeeded(u)}
			if rank != nil {
				e.metric = rank(u)
			}
			ents = append(ents, e)
		}
	}
	s.ents = ents
	return ents
}
