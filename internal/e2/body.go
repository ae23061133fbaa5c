package e2

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Body-level encoding of indications and control requests in the binary
// codec's layout. These are the payloads crossing the xApp plugin boundary:
// the RIC host hands each xApp an encoded indication and receives back an
// encoded control list, so plugins written in any language parse one
// documented fixed layout.
//
// Indication body layout (little endian):
//
//	u64 slot | u32 cell | u16 nUE
//	per UE:    u32 ueID | u32 sliceID | u32 mcs | u32 bufferBytes | f64 tputBps   (24 B)
//	u16 nSlice
//	per slice: u32 sliceID | f64 targetBps | f64 servedBps | u32 usedPRBs        (24 B)
//
// Control request body layout:
//
//	u8 action | u32 sliceID | u32 ueID | f64 value | u16 len | text |
//	u32 blobLen | blob
//
// Control list layout: u16 count, then count control request bodies.

// AppendIndicationBody appends the encoded indication to b.
func AppendIndicationBody(b []byte, ind *Indication) []byte {
	w := &bwriter{b: b}
	w.u64(ind.Slot)
	w.u32(ind.Cell)
	w.u16(uint16(len(ind.UEs)))
	for _, u := range ind.UEs {
		w.u32(u.UEID)
		w.u32(u.SliceID)
		w.u32(uint32(u.MCS))
		w.u32(u.BufferBytes)
		w.f64(u.TputBps)
	}
	w.u16(uint16(len(ind.Slices)))
	for _, s := range ind.Slices {
		w.u32(s.SliceID)
		w.f64(s.TargetBps)
		w.f64(s.ServedBps)
		w.u32(s.UsedPRBs)
	}
	return w.b
}

// Encoded sizes the decoders check a declared count against before they
// allocate for it, so a forged count costs nothing: one UE or slice row,
// an indication body with no rows, and a control body with empty text and
// blob.
const (
	ueRowBytes         = 24
	sliceRowBytes      = 24
	minIndicationBytes = 8 + 4 + 2 + 2
	minControlBytes    = 1 + 4 + 4 + 8 + 2 + 4
)

// DecodeIndicationBody parses an encoded indication.
func DecodeIndicationBody(b []byte) (*Indication, error) {
	r := &breader{b: b}
	ind := &Indication{}
	if err := readIndicationBodyInto(r, ind); err != nil {
		return nil, err
	}
	if r.left() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in indication", ErrMalformed, r.left())
	}
	return ind, nil
}

// readIndicationBodyInto decodes an indication body into ind, its rows into
// slices of exactly the declared length (nil for none).
func readIndicationBodyInto(r *breader, ind *Indication) error {
	var err error
	if ind.Slot, err = r.u64(); err != nil {
		return err
	}
	if ind.Cell, err = r.u32(); err != nil {
		return err
	}
	nUE, err := r.u16()
	if err != nil {
		return err
	}
	rows, err := r.take(int(nUE) * ueRowBytes)
	if err != nil {
		return err
	}
	if nUE > 0 {
		ind.UEs = make([]UEMeasurement, nUE)
	}
	for i := range ind.UEs {
		row := rows[i*ueRowBytes:]
		ind.UEs[i] = UEMeasurement{
			UEID:        binary.LittleEndian.Uint32(row),
			SliceID:     binary.LittleEndian.Uint32(row[4:]),
			MCS:         int32(binary.LittleEndian.Uint32(row[8:])),
			BufferBytes: binary.LittleEndian.Uint32(row[12:]),
			TputBps:     math.Float64frombits(binary.LittleEndian.Uint64(row[16:])),
		}
	}
	nSl, err := r.u16()
	if err != nil {
		return err
	}
	if rows, err = r.take(int(nSl) * sliceRowBytes); err != nil {
		return err
	}
	if nSl > 0 {
		ind.Slices = make([]SliceMeasurement, nSl)
	}
	for i := range ind.Slices {
		row := rows[i*sliceRowBytes:]
		ind.Slices[i] = SliceMeasurement{
			SliceID:   binary.LittleEndian.Uint32(row),
			TargetBps: math.Float64frombits(binary.LittleEndian.Uint64(row[4:])),
			ServedBps: math.Float64frombits(binary.LittleEndian.Uint64(row[12:])),
			UsedPRBs:  binary.LittleEndian.Uint32(row[20:]),
		}
	}
	return nil
}

// AppendControlBody appends one encoded control request to b.
func AppendControlBody(b []byte, c *ControlRequest) []byte {
	w := &bwriter{b: b}
	w.u8(uint8(c.Action))
	w.u32(c.SliceID)
	w.u32(c.UEID)
	w.f64(c.Value)
	w.str(c.Text)
	w.u32(uint32(len(c.Blob)))
	w.b = append(w.b, c.Blob...)
	return w.b
}

// readControlBodyInto decodes one control request body into c.
func readControlBodyInto(r *breader, c *ControlRequest) error {
	a, err := r.u8()
	if err != nil {
		return err
	}
	c.Action = ControlAction(a)
	if c.SliceID, err = r.u32(); err != nil {
		return err
	}
	if c.UEID, err = r.u32(); err != nil {
		return err
	}
	if c.Value, err = r.f64(); err != nil {
		return err
	}
	if c.Text, err = r.str(); err != nil {
		return err
	}
	blobLen, err := r.u32()
	if err != nil {
		return err
	}
	blob, err := r.take(int(blobLen))
	if err != nil {
		return err
	}
	if blobLen > 0 {
		c.Blob = append([]byte(nil), blob...)
	}
	return nil
}

// AppendControlList appends an encoded control list to b.
func AppendControlList(b []byte, list []ControlRequest) []byte {
	w := &bwriter{b: b}
	w.u16(uint16(len(list)))
	for i := range list {
		w.b = AppendControlBody(w.b, &list[i])
	}
	return w.b
}

// DecodeControlListAppend parses an encoded control list onto the end of
// dst, so a caller that reuses its list decodes without allocating for it.
// The decoded requests keep nothing of b. On error dst comes back as it was.
func DecodeControlListAppend(dst []ControlRequest, b []byte) ([]ControlRequest, error) {
	r := &breader{b: b}
	n, err := r.u16()
	if err != nil {
		return dst, err
	}
	if r.left() < int(n)*minControlBytes {
		return dst, ErrMalformed
	}
	base := len(dst)
	list := slices.Grow(dst, int(n))[:base+int(n)]
	for i := base; i < len(list); i++ {
		list[i] = ControlRequest{}
		if err := readControlBodyInto(r, &list[i]); err != nil {
			clear(list[base:])
			return dst, err
		}
	}
	if r.left() != 0 {
		clear(list[base:])
		return dst, fmt.Errorf("%w: %d trailing bytes in control list", ErrMalformed, r.left())
	}
	return list, nil
}
