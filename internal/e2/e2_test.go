package e2

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

func allCodecs(t *testing.T) []Codec {
	t.Helper()
	return []Codec{BinaryCodec{}, JSONCodec{}, VarintCodec{}}
}

func sampleMessages() []*Message {
	return []*Message{
		{Type: TypeHeartbeat},
		{
			Type: TypeSubscriptionRequest, RequestID: 1, RANFunction: RANFunctionKPM,
			Subscription: &SubscriptionRequest{ReportPeriodMs: 100, SliceIDs: []uint32{1, 2}},
		},
		{
			Type: TypeSubscriptionResponse, RequestID: 1,
			SubscriptionResp: &SubscriptionResponse{Accepted: true, Reason: ""},
		},
		{
			Type: TypeSubscriptionResponse, RequestID: 2,
			SubscriptionResp: &SubscriptionResponse{Accepted: false, Reason: "overloaded"},
		},
		{
			Type: TypeIndication, RequestID: 9, RANFunction: RANFunctionKPM,
			Indication: &Indication{
				Slot: 1 << 33, Cell: 7,
				UEs: []UEMeasurement{
					{UEID: 1, SliceID: 2, MCS: 28, BufferBytes: 4096, TputBps: 21.5e6},
					{UEID: 2, SliceID: 2, MCS: 0, BufferBytes: 0, TputBps: 0},
				},
				Slices: []SliceMeasurement{
					{SliceID: 2, TargetBps: 12e6, ServedBps: 11.8e6, UsedPRBs: 30},
				},
			},
		},
		{
			Type: TypeControlRequest, RequestID: 3, RANFunction: RANFunctionRC,
			Control: &ControlRequest{Action: ActionHandover, UEID: 5, Text: "cell-2"},
		},
		{
			Type: TypeControlRequest, RequestID: 4, RANFunction: RANFunctionRC,
			Control: &ControlRequest{Action: ActionSetSliceTarget, SliceID: 1, Value: 17e6},
		},
		{
			Type: TypeControlAck, RequestID: 3,
			ControlAck: &ControlAck{Accepted: false, Reason: "unknown UE"},
		},
		{
			Type: TypeError, Error: &ErrorBody{Reason: "protocol violation"},
		},
		{
			Type: TypeIndicationBatch, RequestID: 9, RANFunction: RANFunctionKPM,
			Batch: &IndicationBatch{Indications: []Indication{
				{
					Slot: 100, Cell: 7,
					UEs: []UEMeasurement{
						{UEID: 1, SliceID: 2, MCS: 28, BufferBytes: 4096, TputBps: 21.5e6},
					},
					Slices: []SliceMeasurement{
						{SliceID: 2, TargetBps: 12e6, ServedBps: 11.8e6, UsedPRBs: 30},
					},
				},
				{
					Slot: 101, Cell: 7,
					UEs: []UEMeasurement{
						{UEID: 1, SliceID: 2, MCS: 27, BufferBytes: 1024, TputBps: 20.1e6},
						{UEID: 2, SliceID: 2, MCS: 4, BufferBytes: 0, TputBps: 0},
					},
					Slices: []SliceMeasurement{
						{SliceID: 2, TargetBps: 12e6, ServedBps: 12.0e6, UsedPRBs: 28},
					},
				},
			}},
		},
	}
}

func TestCodecRoundTrips(t *testing.T) {
	for _, codec := range allCodecs(t) {
		for i, msg := range sampleMessages() {
			wire, err := codec.Encode(msg)
			if err != nil {
				t.Fatalf("%s message %d: encode: %v", codec.Name(), i, err)
			}
			got, err := codec.Decode(wire)
			if err != nil {
				t.Fatalf("%s message %d: decode: %v", codec.Name(), i, err)
			}
			if !reflect.DeepEqual(got, msg) {
				t.Errorf("%s message %d mismatch:\ngot  %+v\nwant %+v", codec.Name(), i, got, msg)
			}
		}
	}
}

func TestCodecSizes(t *testing.T) {
	ind := sampleMessages()[4]
	bin, _ := BinaryCodec{}.Encode(ind)
	vr, _ := VarintCodec{}.Encode(ind)
	js, _ := JSONCodec{}.Encode(ind)
	if len(vr) >= len(js) || len(bin) >= len(js) {
		t.Fatalf("compact codecs not smaller than JSON: bin=%d varint=%d json=%d",
			len(bin), len(vr), len(js))
	}
}

func TestValidateRejectsInconsistentBodies(t *testing.T) {
	bad := []*Message{
		{Type: TypeIndication},                                                 // missing body
		{Type: TypeHeartbeat, Error: &ErrorBody{}},                             // heartbeat with body
		{Type: TypeControlRequest, Indication: &Indication{}},                  // wrong body
		{Type: MessageType(77), Error: &ErrorBody{Reason: "x"}},                // unknown type
		{Type: TypeIndication, Indication: &Indication{}, Error: &ErrorBody{}}, // two bodies
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("message %d accepted: %+v", i, m)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, codec := range allCodecs(t) {
		for _, b := range [][]byte{nil, {0}, {99, 1, 2, 3}, []byte("garbage!!"), make([]byte, 64)} {
			if _, err := codec.Decode(b); err == nil {
				// JSON null decodes; ensure Validate catches it.
				if codec.Name() == "json" {
					continue
				}
				t.Errorf("%s decoded garbage %v", codec.Name(), b)
			}
		}
	}
}

func TestBinaryDecodeRejectsTrailingBytes(t *testing.T) {
	wire, _ := BinaryCodec{}.Encode(&Message{Type: TypeHeartbeat})
	wire = append(wire, 0xFF)
	if _, err := (BinaryCodec{}).Decode(wire); !errors.Is(err, ErrMalformed) {
		t.Fatalf("got %v", err)
	}
}

func TestCodecByName(t *testing.T) {
	for _, name := range []string{"binary", "json", "varint"} {
		c, ok := CodecByName(name)
		if !ok || c.Name() != name {
			t.Errorf("CodecByName(%q) = %v, %v", name, c, ok)
		}
	}
	if _, ok := CodecByName("asn1"); ok {
		t.Error("unknown codec resolved")
	}
}

func randomIndication(rng *rand.Rand) *Indication {
	ind := &Indication{Slot: rng.Uint64(), Cell: rng.Uint32()}
	for i := 0; i < rng.Intn(20); i++ {
		ind.UEs = append(ind.UEs, UEMeasurement{
			UEID: rng.Uint32(), SliceID: rng.Uint32(), MCS: int32(rng.Intn(29)),
			BufferBytes: rng.Uint32(), TputBps: rng.Float64() * 1e8,
		})
	}
	for i := 0; i < rng.Intn(6); i++ {
		ind.Slices = append(ind.Slices, SliceMeasurement{
			SliceID: rng.Uint32(), TargetBps: rng.Float64() * 1e8,
			ServedBps: rng.Float64() * 1e8, UsedPRBs: rng.Uint32(),
		})
	}
	return ind
}

// Property: every codec round-trips randomized indications.
func TestQuickIndicationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	codecs := allCodecs(t)
	for trial := 0; trial < 200; trial++ {
		msg := &Message{Type: TypeIndication, RequestID: rng.Uint32(), Indication: randomIndication(rng)}
		for _, codec := range codecs {
			wire, err := codec.Encode(msg)
			if err != nil {
				t.Fatalf("%s: %v", codec.Name(), err)
			}
			got, err := codec.Decode(wire)
			if err != nil {
				t.Fatalf("%s: %v", codec.Name(), err)
			}
			if !reflect.DeepEqual(got, msg) {
				t.Fatalf("%s round trip mismatch", codec.Name())
			}
		}
	}
}

func TestBodyHelpersMatchCodec(t *testing.T) {
	// The body-level helpers (xApp ABI) must produce exactly the binary
	// codec's indication payload.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		ind := randomIndication(rng)
		msg := &Message{Type: TypeIndication, Indication: ind}
		full, err := BinaryCodec{}.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		body := AppendIndicationBody(nil, ind)
		const header = 9 // type u8 + requestID u32 + ranFunction u32
		if !reflect.DeepEqual(full[header:], body) {
			t.Fatal("body helper and codec disagree on layout")
		}
		back, err := DecodeIndicationBody(body)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, ind) {
			t.Fatal("indication body round trip mismatch")
		}
	}
}

func TestControlListRoundTrip(t *testing.T) {
	list := []ControlRequest{
		{Action: ActionHandover, UEID: 3, Text: "cell-9"},
		{Action: ActionSetSliceWeight, SliceID: 1, Value: 2.5},
		{Action: ActionSwapScheduler, SliceID: 4, Text: "pf"},
	}
	b := AppendControlList(nil, list)
	got, err := DecodeControlListAppend(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, list) {
		t.Fatalf("mismatch: %+v", got)
	}
	// Empty list.
	if got, err := DecodeControlListAppend(nil, AppendControlList(nil, nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty list: %v, %v", got, err)
	}
	// Trailing bytes rejected.
	if _, err := DecodeControlListAppend(nil, append(b, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestDecodeControlListAppend: the appending decoder keeps what dst held,
// resets the storage it reuses, and on a malformed list hands dst back as
// it was.
func TestDecodeControlListAppend(t *testing.T) {
	held := ControlRequest{Action: ActionSetSliceTarget, SliceID: 2, Value: 5e6}
	dst := make([]ControlRequest, 1, 4)
	dst[0] = held
	// A stale entry past len, as a reused list carries one.
	dst[:2][1] = ControlRequest{Action: ActionUploadScheduler, Blob: []byte{1}}
	list := []ControlRequest{{Action: ActionSetSliceWeight, SliceID: 1, Value: 2.5}}
	got, err := DecodeControlListAppend(dst, AppendControlList(nil, list))
	if err != nil {
		t.Fatal(err)
	}
	if want := []ControlRequest{held, list[0]}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if &got[0] != &dst[0] {
		t.Fatal("the list was not decoded into dst's storage")
	}
	bad := append(AppendControlList(nil, list), 0)
	again, err := DecodeControlListAppend(got[:1], bad)
	if err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if len(again) != 1 || !reflect.DeepEqual(again[0], held) {
		t.Fatalf("a malformed list left %+v, want dst as it was", again)
	}
}

func TestActionAndTypeStrings(t *testing.T) {
	if ActionHandover.String() != "handover" || ActionSetSliceTarget.String() != "set-slice-target" {
		t.Error("action names wrong")
	}
	if TypeIndication.String() != "indication" {
		t.Error("type name wrong")
	}
	if ControlAction(200).String() == "" || MessageType(200).String() == "" {
		t.Error("unknown enums must still format")
	}
}

// The xApp boundary's other halves: what a guest decodes and what it
// writes back, for the round-trip tests and the wire corpus.

// DecodeIndicationBody parses a fixed-width indication body.
func DecodeIndicationBody(b []byte) (*Indication, error) {
	r := breader{b: b}
	ind := &Indication{}
	r.indication(ind)
	if err := r.done("indication"); err != nil {
		return nil, err
	}
	return ind, nil
}

// AppendControlList appends a fixed-width control list to b.
func AppendControlList(b []byte, list []ControlRequest) []byte {
	w := bwriter{b: b}
	w.u16(uint16(len(list)))
	for i := range list {
		w.control(&list[i])
	}
	return w.b
}
