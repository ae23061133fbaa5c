package e2

import (
	"strings"
	"testing"
	"time"

	"waran/internal/obs/trace"
)

func busyCodecs() []Codec {
	return []Codec{BinaryCodec{}, VarintCodec{}, JSONCodec{}}
}

func TestBusyRoundTrip(t *testing.T) {
	cases := []*Message{
		NewBusyMessage(500*time.Millisecond, "admission"),
		NewBusyMessage(0, ""),
		NewBusyMessage(MaxRetryAfter, "shard 3 budget exhausted"),
		{Type: TypeBusy, RequestID: 7, RANFunction: RANFunctionKPM,
			Busy: &BusyBody{RetryAfterMs: 42, Reason: "brownout L2"}},
	}
	for _, c := range busyCodecs() {
		for _, m := range cases {
			b, err := c.Encode(m)
			if err != nil {
				t.Fatalf("%s: encode: %v", c.Name(), err)
			}
			got, err := c.Decode(b)
			if err != nil {
				t.Fatalf("%s: decode: %v", c.Name(), err)
			}
			if got.Type != TypeBusy || got.Busy == nil {
				t.Fatalf("%s: round-trip lost busy body: %+v", c.Name(), got)
			}
			if got.Busy.RetryAfterMs != m.Busy.RetryAfterMs || got.Busy.Reason != m.Busy.Reason {
				t.Fatalf("%s: busy body mismatch: got %+v want %+v", c.Name(), got.Busy, m.Busy)
			}
			if got.RequestID != m.RequestID || got.RANFunction != m.RANFunction {
				t.Fatalf("%s: header mismatch: got %+v want %+v", c.Name(), got, m)
			}
		}
	}
}

func TestBusyRoundTripTraced(t *testing.T) {
	m := NewBusyMessage(250*time.Millisecond, "admission")
	m.Trace = trace.Context{TraceID: 0xfeed, SpanID: 3}
	for _, c := range busyCodecs() {
		b, err := c.Encode(m)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.Name(), err)
		}
		got, err := c.Decode(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.Name(), err)
		}
		if got.Trace != m.Trace {
			t.Fatalf("%s: trace context lost: got %+v want %+v", c.Name(), got.Trace, m.Trace)
		}
	}
}

func TestBusyValidate(t *testing.T) {
	if err := (&Message{Type: TypeBusy}).Validate(); err == nil {
		t.Fatal("busy without body validated")
	}
	m := NewBusyMessage(time.Second, "x")
	m.Error = &ErrorBody{Reason: "also"}
	if err := m.Validate(); err == nil {
		t.Fatal("busy with two bodies validated")
	}
}

func TestBusyRetryAfterClamped(t *testing.T) {
	b := &BusyBody{RetryAfterMs: 1 << 31}
	if got := b.RetryAfter(); got != MaxRetryAfter {
		t.Fatalf("RetryAfter not clamped: %v", got)
	}
	if m := NewBusyMessage(24*time.Hour, "x"); m.Busy.RetryAfter() != MaxRetryAfter {
		t.Fatalf("NewBusyMessage not clamped: %v", m.Busy.RetryAfter())
	}
	if m := NewBusyMessage(-time.Second, "x"); m.Busy.RetryAfterMs != 0 {
		t.Fatalf("negative retry-after not floored: %v", m.Busy.RetryAfterMs)
	}
}

func TestBusyErrorMessage(t *testing.T) {
	e := &BusyError{RetryAfter: 500 * time.Millisecond, Reason: "admission"}
	if !strings.Contains(e.Error(), "busy") || !strings.Contains(e.Error(), "admission") {
		t.Fatalf("unhelpful BusyError: %q", e.Error())
	}
}

// FuzzBusyRoundTrip fuzzes the TypeBusy body across all three codecs: every
// encodable busy frame must decode back to itself, traced or not.
func FuzzBusyRoundTrip(f *testing.F) {
	f.Add(uint32(500), "admission", uint32(1), uint32(2), false)
	f.Add(uint32(0), "", uint32(0), uint32(0), true)
	f.Add(uint32(1<<31), strings.Repeat("r", 300), uint32(7), uint32(3), true)
	f.Fuzz(func(t *testing.T, retryMs uint32, reason string, rid, rf uint32, traced bool) {
		// The binary codec truncates strings at 64 KiB and JSON replaces
		// invalid UTF-8; keep the input inside what every codec round-trips.
		reason = strings.ToValidUTF8(reason, "?")
		if len(reason) > 1024 {
			reason = reason[:1024]
			reason = strings.ToValidUTF8(reason, "?")
		}
		m := &Message{
			Type: TypeBusy, RequestID: rid, RANFunction: rf,
			Busy: &BusyBody{RetryAfterMs: retryMs, Reason: reason},
		}
		if traced {
			m.Trace = trace.Context{TraceID: uint64(rid)<<32 | uint64(rf) | 1, SpanID: 1}
		}
		for _, c := range busyCodecs() {
			b, err := c.Encode(m)
			if err != nil {
				t.Fatalf("%s: encode: %v", c.Name(), err)
			}
			got, err := c.Decode(b)
			if err != nil {
				t.Fatalf("%s: decode: %v", c.Name(), err)
			}
			if got.Busy == nil || *got.Busy != *m.Busy {
				t.Fatalf("%s: busy body mismatch: got %+v want %+v", c.Name(), got.Busy, m.Busy)
			}
			if got.Trace != m.Trace {
				t.Fatalf("%s: trace mismatch", c.Name())
			}
		}
	})
}
