package flight

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"unicode/utf8"
)

func TestEventCodecRoundTrip(t *testing.T) {
	events := []Event{
		{Seq: 1, TimeNs: 1234, Class: EvShed, Plane: PlaneRIC, Detail: "overflow", Value: 3.5},
		{Seq: 2, TimeNs: 5678, Class: EvBreakerOpen, Plane: PlaneGNB, Cell: 7, Slot: 99, Detail: "xapp=slow"},
		{Seq: 3, TimeNs: 1, Class: EvBrownoutShift, Plane: PlaneRIC, Detail: "normal->degraded"},
		{Seq: 1 << 60, TimeNs: 1 << 62, Class: EvBundleCaptured, Value: -1.25},
	}
	buf := EncodeJournal(events)
	got, err := DecodeJournal(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestDecodeEventRejectsMalformed(t *testing.T) {
	ev := Event{Seq: 1, TimeNs: 2, Class: EvShed, Plane: PlaneRIC, Detail: "x"}
	full := AppendEvent(nil, &ev)
	// Every truncation must fail cleanly, never panic.
	for i := 0; i < len(full); i++ {
		if _, _, err := DecodeEvent(full[:i]); err == nil {
			t.Fatalf("truncated at %d decoded without error", i)
		}
	}
	// Out-of-range class byte.
	bad := AppendEvent(nil, &Event{Seq: 1, TimeNs: 2, Class: EvShed})
	// seq=1 (1 byte), time=2 (1 byte), class at offset 2
	bad[2] = 0xff
	if _, _, err := DecodeEvent(bad); err == nil {
		t.Fatal("out-of-range class decoded without error")
	}
	// Oversized string length prefix.
	huge := []byte{1, 1, byte(EvShed), 0xff, 0xff, 0xff, 0x7f}
	if _, _, err := DecodeEvent(huge); err == nil {
		t.Fatal("oversized string length decoded without error")
	}
}

// FuzzEventCodec fuzzes both directions: arbitrary bytes must decode
// without panicking, and every event the encoder can produce must round
// trip exactly.
func FuzzEventCodec(f *testing.F) {
	f.Add([]byte{}, uint64(1), int64(5), uint8(EvShed), "ric", uint32(1), uint64(2), "overflow", 1.5)
	f.Add([]byte{0xff, 0x00, 0x01}, uint64(0), int64(0), uint8(0), "", uint32(0), uint64(0), "", 0.0)
	f.Fuzz(func(t *testing.T, raw []byte, seq uint64, tns int64, class uint8, plane string, cell uint32, slot uint64, detail string, value float64) {
		// Direction 1: hostile bytes never panic the decoder.
		if evs, err := DecodeJournal(raw); err == nil {
			// Whatever decoded must re-encode and decode to the same thing.
			again, err := DecodeJournal(EncodeJournal(evs))
			if err != nil {
				t.Fatalf("re-decode of valid journal failed: %v", err)
			}
			if len(again) != len(evs) {
				t.Fatalf("re-decode length %d != %d", len(again), len(evs))
			}
			for i := range evs {
				if again[i] != evs[i] {
					t.Fatalf("re-decode event %d mismatch", i)
				}
			}
		}

		// Direction 2: structured round trip for encodable events.
		if Class(class) >= numClasses || tns < 0 {
			return
		}
		if !utf8.ValidString(plane) || !utf8.ValidString(detail) {
			return
		}
		if len(plane) > maxCodecString || len(detail) > maxCodecString {
			return
		}
		if value != value { // NaN payload bits may not round trip ==
			return
		}
		ev := Event{Seq: seq, TimeNs: tns, Class: Class(class), Plane: plane, Cell: cell, Slot: slot, Detail: detail, Value: value}
		got, n, err := DecodeEvent(AppendEvent(nil, &ev))
		if err != nil {
			t.Fatalf("round trip decode: %v (%+v)", err, ev)
		}
		if n != len(AppendEvent(nil, &ev)) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(AppendEvent(nil, &ev)))
		}
		if got != ev {
			t.Fatalf("round trip: got %+v, want %+v", got, ev)
		}
	})
}

// DecodeJournal decodes a back-to-back event stream produced by
// EncodeJournal, stopping at the first malformed event.
func DecodeJournal(b []byte) ([]Event, error) {
	var out []Event
	for len(b) > 0 {
		ev, n, err := DecodeEvent(b)
		if err != nil {
			return out, err
		}
		out = append(out, ev)
		b = b[n:]
	}
	return out, nil
}

// The journal decoder: the oracle the round-trip and fuzz tests hold the
// encoder to. It is hardened against malformed input: string lengths are
// bounded, the class range is validated, and every read checks the
// remaining buffer.

// maxCodecString bounds decoded string lengths so a corrupt length prefix
// cannot become a giant allocation.
const maxCodecString = 1 << 12

// ErrCodecTruncated reports a buffer that ended mid-event.
var ErrCodecTruncated = errors.New("flight: truncated event")

// DecodeEvent decodes one event from the front of b, returning the event
// and the number of bytes consumed.
func DecodeEvent(b []byte) (Event, int, error) {
	var ev Event
	off := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, ErrCodecTruncated
		}
		off += n
		return v, nil
	}
	str := func() (string, error) {
		ln, err := next()
		if err != nil {
			return "", err
		}
		if ln > maxCodecString {
			return "", fmt.Errorf("flight: string length %d exceeds codec bound", ln)
		}
		if uint64(len(b)-off) < ln {
			return "", ErrCodecTruncated
		}
		s := string(b[off : off+int(ln)])
		off += int(ln)
		if !utf8.ValidString(s) {
			return "", fmt.Errorf("flight: string is not valid UTF-8")
		}
		return s, nil
	}

	seq, err := next()
	if err != nil {
		return ev, 0, err
	}
	tns, err := next()
	if err != nil {
		return ev, 0, err
	}
	if tns > math.MaxInt64 {
		return ev, 0, fmt.Errorf("flight: timestamp overflows int64")
	}
	if off >= len(b) {
		return ev, 0, ErrCodecTruncated
	}
	class := Class(b[off])
	off++
	if class >= numClasses {
		return ev, 0, fmt.Errorf("flight: event class %d out of range", class)
	}
	plane, err := str()
	if err != nil {
		return ev, 0, err
	}
	cell, err := next()
	if err != nil {
		return ev, 0, err
	}
	if cell > math.MaxUint32 {
		return ev, 0, fmt.Errorf("flight: cell %d overflows uint32", cell)
	}
	slot, err := next()
	if err != nil {
		return ev, 0, err
	}
	detail, err := str()
	if err != nil {
		return ev, 0, err
	}
	bits, err := next()
	if err != nil {
		return ev, 0, err
	}
	ev = Event{
		Seq: seq, TimeNs: int64(tns), Class: class, Plane: plane,
		Cell: uint32(cell), Slot: slot, Detail: detail,
		Value: math.Float64frombits(bits),
	}
	return ev, off, nil
}
