package wasm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Memory is a sandboxed linear memory. Every guest access is bounds checked;
// the host accessors return explicit errors instead of trapping. Growth is
// capped by the module's declared maximum and, more restrictively, by the
// host-imposed cap from Config — this is what keeps a leaky plugin from
// inflating the gNB's memory footprint (Fig. 5c of the paper).
type Memory struct {
	data     []byte
	maxPages uint32
}

// NewMemory creates a memory with min pages, growable up to maxPages.
func NewMemory(minPages, maxPages uint32) *Memory {
	if maxPages > MaxPages {
		maxPages = MaxPages
	}
	return &Memory{
		data:     make([]byte, int(minPages)*PageSize),
		maxPages: maxPages,
	}
}

// Size returns the current size in pages.
func (m *Memory) Size() uint32 { return uint32(len(m.data) / PageSize) }

// Len returns the current size in bytes.
func (m *Memory) Len() int { return len(m.data) }

// MaxPages returns the growth cap in pages.
func (m *Memory) MaxPages() uint32 { return m.maxPages }

// Grow extends the memory by delta pages, returning the previous size in
// pages and whether the growth succeeded. All size arithmetic stays in
// 64 bits end-to-end: a hostile delta near 2^32 must neither wrap the page
// count past maxPages nor overflow the byte length handed to make on
// 32-bit hosts.
func (m *Memory) Grow(delta uint32) (uint32, bool) {
	prev := m.Size()
	if delta == 0 {
		return prev, true
	}
	newPages := uint64(prev) + uint64(delta) // cannot wrap in uint64
	if newPages > uint64(m.maxPages) {
		return prev, false
	}
	newBytes := newPages * uint64(PageSize)
	if newBytes > uint64(math.MaxInt) {
		return prev, false
	}
	grown := make([]byte, int(newBytes))
	copy(grown, m.data)
	m.data = grown
	return prev, true
}

// Read copies n bytes starting at offset into a fresh slice.
func (m *Memory) Read(offset, n uint32) ([]byte, error) {
	if err := m.check(offset, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, m.data[offset:])
	return out, nil
}

// AppendRead appends the n bytes starting at offset to dst, so a host that
// keeps its own buffer copies guest memory out without allocating.
func (m *Memory) AppendRead(dst []byte, offset, n uint32) ([]byte, error) {
	if err := m.check(offset, n); err != nil {
		return dst, err
	}
	return append(dst, m.data[offset:offset+n]...), nil
}

// Write copies b into memory at offset.
func (m *Memory) Write(offset uint32, b []byte) error {
	if err := m.check(offset, uint32(len(b))); err != nil {
		return err
	}
	copy(m.data[offset:], b)
	return nil
}

// ReadUint32 reads a little-endian u32 at offset.
func (m *Memory) ReadUint32(offset uint32) (uint32, error) {
	if err := m.check(offset, 4); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(m.data[offset:]), nil
}

// WriteUint32 writes a little-endian u32 at offset.
func (m *Memory) WriteUint32(offset uint32, v uint32) error {
	if err := m.check(offset, 4); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(m.data[offset:], v)
	return nil
}

func (m *Memory) check(offset, n uint32) error {
	if uint64(offset)+uint64(n) > uint64(len(m.data)) {
		return fmt.Errorf("wasm: memory access [%d, %d) outside size %d", offset, uint64(offset)+uint64(n), len(m.data))
	}
	return nil
}

// Reset shrinks memory back to minPages and zeroes it. Used by instance
// pools that reuse a sandbox between plugin invocations.
func (m *Memory) Reset(minPages uint32) {
	want := int(minPages) * PageSize
	if cap(m.data) >= want {
		m.data = m.data[:want]
	} else {
		m.data = make([]byte, want)
	}
	clear(m.data)
}

// guest-side accessors used by the interpreter: they trap instead of
// returning errors.

func (m *Memory) mustRange(addr uint64, n uint64) []byte {
	if addr+n > uint64(len(m.data)) {
		panic(newTrap(TrapOutOfBoundsMemory))
	}
	return m.data[addr : addr+n]
}
