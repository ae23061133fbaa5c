package flight

import (
	"encoding/binary"
	"math"
)

// The journal wire codec: a compact, length-delimited binary form of Event
// used by /debug/flight/journal?format=binary so operators can stream large
// journal windows without JSON overhead. The format is append-only versioned
// by the class numbering (see Class): every field is a uvarint except the
// class byte and the two strings, which are uvarint-length-prefixed bytes.
//
// Per event:
//
//	uvarint seq
//	uvarint time_ns   (unix nanos, always positive in practice)
//	byte    class
//	uvarint len(plane)  || plane bytes
//	uint32  cell (uvarint)
//	uvarint slot
//	uvarint len(detail) || detail bytes
//	uint64  value (IEEE-754 bits, uvarint)

// AppendEvent appends the binary form of ev to dst and returns the extended
// slice.
func AppendEvent(dst []byte, ev *Event) []byte {
	dst = binary.AppendUvarint(dst, ev.Seq)
	dst = binary.AppendUvarint(dst, uint64(ev.TimeNs))
	dst = append(dst, byte(ev.Class))
	dst = binary.AppendUvarint(dst, uint64(len(ev.Plane)))
	dst = append(dst, ev.Plane...)
	dst = binary.AppendUvarint(dst, uint64(ev.Cell))
	dst = binary.AppendUvarint(dst, ev.Slot)
	dst = binary.AppendUvarint(dst, uint64(len(ev.Detail)))
	dst = append(dst, ev.Detail...)
	dst = binary.AppendUvarint(dst, math.Float64bits(ev.Value))
	return dst
}

// EncodeJournal serializes events back-to-back in the binary codec.
func EncodeJournal(events []Event) []byte {
	var dst []byte
	for i := range events {
		dst = AppendEvent(dst, &events[i])
	}
	return dst
}
