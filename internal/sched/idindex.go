package sched

import "math/rand/v2"

// IDIndex maps UE IDs to small values (a position, a flag) for the span of
// one decision or one slot: open addressing with linear probing over a
// power-of-two table, at most half full. Every slot carries the generation
// that wrote it, so Reset is O(1) and nothing is ever cleared; only a
// generation counter that wraps clears the table, once per 2³² resets.
//
// The hash is multiply-shift with an odd multiplier drawn once per process,
// so a plugin that picks the IDs of its grants cannot aim them at one
// cluster. The zero value is an empty index.
type IDIndex struct {
	slots []idSlot
	gen   uint32 // the live generation; slots of any other are empty
	n     int    // live entries
	shift uint   // 64 - log2(len(slots))
	mul   uint64 // the hash multiplier, odd
}

type idSlot struct {
	gen uint32
	id  uint32
	val uint32
}

// minIndexSlots is the smallest table: a 3-UE slice fits with room.
const minIndexSlots = 8

// maxRetainedSlots is the table a ZCMaxUEs request needs. Reset shrinks a
// larger table once its entries fit in this one, and the pooled scratch
// drops it on return, so one outsized request does not pin its table.
var maxRetainedSlots = indexSlots(ZCMaxUEs)

// idHashMul is the per-process multiplier, forced odd.
var idHashMul = rand.Uint64() | 1

// indexSlots is the table size for n entries: a power of two at least 2n.
func indexSlots(n int) int {
	size := minIndexSlots
	for size < 2*n {
		size <<= 1
	}
	return size
}

// Reset empties the index and sizes it for n entries; more may be added, at
// the cost of growing the table.
func (x *IDIndex) Reset(n int) {
	size := indexSlots(n)
	if len(x.slots) < size || (len(x.slots) > size && len(x.slots) > maxRetainedSlots) {
		x.alloc(max(size, min(len(x.slots), maxRetainedSlots)))
		return
	}
	x.n = 0
	x.gen++
	if x.gen == 0 { // wrapped: a stale stamp could now read as live
		clear(x.slots)
		x.gen = 1
	}
}

// alloc replaces the table with an empty one of size slots.
func (x *IDIndex) alloc(size int) {
	if x.mul == 0 {
		x.mul = idHashMul
	}
	x.slots = make([]idSlot, size)
	x.gen, x.n = 1, 0
	x.shift = 64
	for s := size; s > 1; s >>= 1 {
		x.shift--
	}
}

// home is id's first probe.
func (x *IDIndex) home(id uint32) int { return int((uint64(id) * x.mul) >> x.shift) }

// find returns the slot holding id, or the empty slot where it would go.
func (x *IDIndex) find(id uint32) (*idSlot, bool) {
	mask := len(x.slots) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.gen != x.gen {
			return s, false
		}
		if s.id == id {
			return s, true
		}
	}
}

// Add maps id to v unless id is already present. It returns the value id
// maps to afterwards — v, or the first one added — and whether id was
// already present.
func (x *IDIndex) Add(id, v uint32) (uint32, bool) {
	if x.slots == nil {
		x.Reset(0)
	}
	s, ok := x.find(id)
	if ok {
		return s.val, true
	}
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
		s, _ = x.find(id)
	}
	*s = idSlot{gen: x.gen, id: id, val: v}
	x.n++
	return v, false
}

// grow doubles the table and re-adds the live entries.
func (x *IDIndex) grow() {
	old, gen := x.slots, x.gen
	x.alloc(2 * len(old))
	for _, s := range old {
		if s.gen == gen {
			t, _ := x.find(s.id)
			*t = idSlot{gen: x.gen, id: s.id, val: s.val}
			x.n++
		}
	}
}

// Get returns the value id maps to.
func (x *IDIndex) Get(id uint32) (uint32, bool) {
	if x.n == 0 {
		return 0, false
	}
	s, ok := x.find(id)
	if !ok {
		return 0, false
	}
	return s.val, true
}

// Swap sets the value of a present id to v and returns the value it
// replaced. An absent id is left absent.
func (x *IDIndex) Swap(id, v uint32) (uint32, bool) {
	if x.n == 0 {
		return 0, false
	}
	s, ok := x.find(id)
	if !ok {
		return 0, false
	}
	old := s.val
	s.val = v
	return old, true
}

// trim drops a table larger than maxRetainedSlots.
func (x *IDIndex) trim() {
	if len(x.slots) > maxRetainedSlots {
		x.slots, x.n = nil, 0
	}
}
