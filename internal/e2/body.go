package e2

import "slices"

// Indication and control request bodies in the compact layout (codec.go).
// In the fixed-width layout these are also the payloads crossing the xApp
// plugin boundary: the RIC host hands each xApp an encoded indication and
// receives back an encoded control list, so plugins written in any
// language parse one documented fixed layout.
//
// Indication body (fixed-width sizes):
//
//	u64 slot | u32 cell | u16 nUE
//	per UE:    u32 ueID | u32 sliceID | u32 mcs | u32 bufferBytes | f64 tputBps   (24 B)
//	u16 nSlice
//	per slice: u32 sliceID | f64 targetBps | f64 servedBps | u32 usedPRBs        (24 B)
//
// Control request body:
//
//	u8 action | u32 sliceID | u32 ueID | f64 value | str text | blob
//
// Control list: u16 count, then count control request bodies.

// Least encoded sizes, with fixed-width integers and with uvarints, that
// the decoders check a declared count against before they allocate for
// it, so a forged count costs nothing: one UE or slice row, an indication
// body with no rows, and a control body with empty text and blob.
const (
	ueRowBytes, ueRowVarint                 = 24, 4 + 8
	sliceRowBytes, sliceRowVarint           = 24, 1 + 8 + 8 + 1
	minIndicationBytes, minIndicationVarint = 8 + 4 + 2 + 2, 4
	minControlBytes                         = 1 + 4 + 4 + 8 + 2 + 4
)

func (w *bwriter) indication(ind *Indication) {
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
}

// indication decodes an indication body into ind, its rows into slices of
// exactly the declared length (nil for none).
func (r *breader) indication(ind *Indication) {
	ind.Slot, ind.Cell = r.u64(), r.u32()
	if n := r.count(ueRowBytes, ueRowVarint); n > 0 {
		ind.UEs = make([]UEMeasurement, n)
		for i := range ind.UEs {
			ind.UEs[i] = UEMeasurement{UEID: r.u32(), SliceID: r.u32(), MCS: int32(r.u32()),
				BufferBytes: r.u32(), TputBps: r.f64()}
		}
	}
	if n := r.count(sliceRowBytes, sliceRowVarint); n > 0 {
		ind.Slices = make([]SliceMeasurement, n)
		for i := range ind.Slices {
			ind.Slices[i] = SliceMeasurement{SliceID: r.u32(), TargetBps: r.f64(),
				ServedBps: r.f64(), UsedPRBs: r.u32()}
		}
	}
}

func (w *bwriter) control(c *ControlRequest) {
	w.u8(uint8(c.Action))
	w.u32(c.SliceID)
	w.u32(c.UEID)
	w.f64(c.Value)
	w.str(c.Text)
	w.blob(c.Blob)
}

// control decodes one control request body over *c.
func (r *breader) control(c *ControlRequest) {
	*c = ControlRequest{Action: ControlAction(r.u8()), SliceID: r.u32(), UEID: r.u32(),
		Value: r.f64(), Text: r.str(), Blob: r.blob()}
}

// AppendIndicationBody appends the fixed-width indication body to b.
func AppendIndicationBody(b []byte, ind *Indication) []byte {
	w := bwriter{b: b}
	w.indication(ind)
	return w.b
}

// DecodeControlListAppend parses a fixed-width control list onto the end
// of dst, so a caller that reuses its list decodes without allocating for
// it. The decoded requests keep nothing of b. On error dst comes back as it
// was.
func DecodeControlListAppend(dst []ControlRequest, b []byte) ([]ControlRequest, error) {
	r := breader{b: b}
	base := len(dst)
	n := r.count(minControlBytes, minControlBytes)
	list := slices.Grow(dst, n)[:base+n]
	for i := base; i < len(list); i++ {
		r.control(&list[i])
	}
	if err := r.done("control list"); err != nil {
		clear(list[base:])
		return dst, err
	}
	return list, nil
}
