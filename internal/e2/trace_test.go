package e2

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"waran/internal/obs/trace"
)

// traceCodecs are the three wire codecs the trace trailer must traverse.
func traceCodecs() []Codec {
	return []Codec{BinaryCodec{}, JSONCodec{}, VarintCodec{}}
}

func TestTraceContextRoundTrips(t *testing.T) {
	ctx := trace.Context{TraceID: 0xDEADBEEFCAFE, SpanID: 42}
	for _, codec := range traceCodecs() {
		for i, msg := range sampleMessages() {
			m := *msg
			m.Trace = ctx
			wire, err := codec.Encode(&m)
			if err != nil {
				t.Fatalf("%s message %d: encode: %v", codec.Name(), i, err)
			}
			got, err := codec.Decode(wire)
			if err != nil {
				t.Fatalf("%s message %d: decode: %v", codec.Name(), i, err)
			}
			if got.Trace != ctx {
				t.Errorf("%s message %d: trace %+v, want %+v", codec.Name(), i, got.Trace, ctx)
			}
		}
	}
}

// TestUntracedEncodingUnchanged pins the compatibility contract: a message
// without a trace context encodes to exactly the pre-trace wire format — no
// marker, no reserved bytes — so untraced peers are byte-for-byte unaffected.
func TestUntracedEncodingUnchanged(t *testing.T) {
	for _, codec := range []Codec{BinaryCodec{}, VarintCodec{}} {
		for i, msg := range sampleMessages() {
			wire, err := codec.Encode(msg)
			if err != nil {
				t.Fatalf("%s message %d: encode: %v", codec.Name(), i, err)
			}
			traced := *msg
			traced.Trace = trace.Context{TraceID: 7, SpanID: 9}
			wireT, err := codec.Encode(&traced)
			if err != nil {
				t.Fatalf("%s message %d: traced encode: %v", codec.Name(), i, err)
			}
			if len(wireT) != len(wire)+traceTrailerLen {
				t.Fatalf("%s message %d: traced adds %d bytes, want %d",
					codec.Name(), i, len(wireT)-len(wire), traceTrailerLen)
			}
			if !bytes.Equal(wireT[:len(wire)], wire) {
				t.Errorf("%s message %d: traced prefix differs from untraced encoding", codec.Name(), i)
			}
		}
	}
}

// TestOldJSONDecoderSkipsTrace decodes a traced JSON frame with a pre-trace
// message replica: the unknown "trace" field must be silently ignored.
func TestOldJSONDecoderSkipsTrace(t *testing.T) {
	m := &Message{Type: TypeHeartbeat, Trace: trace.Context{TraceID: 3, SpanID: 4}}
	wire, err := JSONCodec{}.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	var old struct {
		Type MessageType `json:"type"`
	}
	if err := json.Unmarshal(wire, &old); err != nil {
		t.Fatalf("pre-trace replica rejected traced frame: %v", err)
	}
	if old.Type != TypeHeartbeat {
		t.Fatalf("type %v, want heartbeat", old.Type)
	}
}

func TestTraceTrailerRejectsCorruption(t *testing.T) {
	base, _ := BinaryCodec{}.Encode(&Message{Type: TypeHeartbeat})
	traced, _ := BinaryCodec{}.Encode(&Message{
		Type: TypeHeartbeat, Trace: trace.Context{TraceID: 1, SpanID: 2},
	})
	cases := map[string][]byte{
		"truncated trailer": traced[:len(traced)-1],
		"bad marker":        append(append([]byte(nil), base...), make([]byte, traceTrailerLen)...),
		"extra byte":        append(append([]byte(nil), traced...), 0xFF),
	}
	for name, wire := range cases {
		if _, err := (BinaryCodec{}).Decode(wire); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
}

// FuzzMessageHeaderRoundTrip drives arbitrary bytes through all three
// codecs and checks the trace-trailer contract on everything that decodes:
// the untraced encoding is a strict byte prefix of the traced one (old
// decoders see the exact pre-trace format), decoders tolerate absence, and
// a traced frame round-trips its context. It also checks the Codec
// no-retain contract: a message decoded from bytes that are overwritten
// afterwards re-encodes exactly as one decoded from a pristine copy.
func FuzzMessageHeaderRoundTrip(f *testing.F) {
	for _, msg := range sampleMessages() {
		for _, codec := range traceCodecs() {
			if wire, err := codec.Encode(msg); err == nil {
				f.Add(wire, uint64(1), uint64(2))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, tid, sid uint64) {
		ctx := trace.Context{TraceID: tid | 1, SpanID: sid}
		for _, codec := range traceCodecs() {
			m, ref, ok := decodeOverwritten(codec, data)
			if !ok {
				continue
			}
			got, err := codec.Encode(m)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", codec.Name(), err)
			}
			want, err := codec.Encode(ref)
			if err != nil {
				t.Fatalf("%s: encode of the pristine decode: %v", codec.Name(), err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: the decoded message changed when its input was overwritten", codec.Name())
			}
			m.Trace = trace.Context{}
			wireU, err := codec.Encode(m)
			if err != nil {
				t.Fatalf("%s: untraced re-encode: %v", codec.Name(), err)
			}
			gotU, err := codec.Decode(wireU)
			if err != nil {
				t.Fatalf("%s: untraced decode: %v", codec.Name(), err)
			}
			if gotU.Trace.Valid() {
				t.Fatalf("%s: untraced frame decoded a trace %+v", codec.Name(), gotU.Trace)
			}

			m.Trace = ctx
			wireT, err := codec.Encode(m)
			if err != nil {
				t.Fatalf("%s: traced encode: %v", codec.Name(), err)
			}
			gotT, err := codec.Decode(wireT)
			if err != nil {
				t.Fatalf("%s: traced decode: %v", codec.Name(), err)
			}
			if gotT.Trace != ctx {
				t.Fatalf("%s: trace %+v, want %+v", codec.Name(), gotT.Trace, ctx)
			}
			if codec.Name() != "json" {
				if !bytes.HasPrefix(wireT, wireU) || len(wireT) != len(wireU)+traceTrailerLen {
					t.Fatalf("%s: traced frame is not untraced + %d-byte trailer", codec.Name(), traceTrailerLen)
				}
			}
		}
	})
}
