package e2

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"waran/internal/obs/trace"
)

var update = flag.Bool("update", false, "rewrite the wire corpus in testdata/wire from this run")

// wireTrace is the context the traced corpus cases carry.
var wireTrace = trace.Context{TraceID: 0x0102030405060708, SpanID: 0x1112131415161718}

// wireMessages is one message of every type, with integers wide enough to
// take several varint bytes, plus the edge shapes: zero-row indications, a
// batch whose entries have no rows, and a control with text and blob.
func wireMessages() map[string]*Message {
	ind := Indication{
		Slot: 1<<40 + 3, Cell: 300,
		UEs: []UEMeasurement{
			{UEID: 1, SliceID: 2, MCS: 28, BufferBytes: 70000, TputBps: 21.5e6},
			{UEID: 1 << 31, SliceID: 0xFFFFFFFF, MCS: -1, BufferBytes: 0, TputBps: 0},
		},
		Slices: []SliceMeasurement{
			{SliceID: 2, TargetBps: 12e6, ServedBps: 11.8e6, UsedPRBs: 130},
		},
	}
	return map[string]*Message{
		"heartbeat": {Type: TypeHeartbeat, RequestID: 128},
		"subscription": {
			Type: TypeSubscriptionRequest, RequestID: 1 << 20, RANFunction: RANFunctionKPM,
			Subscription: &SubscriptionRequest{ReportPeriodMs: 1000, SliceIDs: []uint32{1, 200, 1 << 30}},
		},
		"subscription-empty": {
			Type: TypeSubscriptionRequest, RequestID: 1, RANFunction: RANFunctionKPM,
			Subscription: &SubscriptionRequest{ReportPeriodMs: 10},
		},
		"subscription-response": {
			Type: TypeSubscriptionResponse, RequestID: 1 << 20, RANFunction: RANFunctionKPM,
			SubscriptionResp: &SubscriptionResponse{Accepted: true, Reason: "ok"},
		},
		"indication": {Type: TypeIndication, RequestID: 9, RANFunction: RANFunctionKPM, Indication: &ind},
		"indication-no-rows": {
			Type: TypeIndication, RequestID: 10, RANFunction: RANFunctionKPM,
			Indication: &Indication{Slot: 5, Cell: 1},
		},
		"batch": {
			Type: TypeIndicationBatch, RequestID: 11, RANFunction: RANFunctionKPM,
			Batch: &IndicationBatch{Indications: []Indication{ind, {Slot: ind.Slot + 1, Cell: 300, UEs: ind.UEs[:1]}}},
		},
		"batch-no-rows": {
			Type: TypeIndicationBatch, RequestID: 12, RANFunction: RANFunctionKPM,
			Batch: &IndicationBatch{Indications: []Indication{{Slot: 7, Cell: 2}, {Slot: 8, Cell: 2}}},
		},
		"control": {
			Type: TypeControlRequest, RequestID: 101, RANFunction: RANFunctionRC,
			Control: &ControlRequest{Action: ActionSetSliceTarget, SliceID: 3, Value: 17e6},
		},
		"control-text-blob": {
			Type: TypeControlRequest, RequestID: 1 << 16, RANFunction: RANFunctionRC,
			Control: &ControlRequest{Action: ActionUploadScheduler, SliceID: 2, UEID: 500, Value: -1.5,
				Text: "pf-v2", Blob: bytes.Repeat([]byte{0x00, 0x61, 0x73, 0x6d}, 40)},
		},
		"control-ack": {
			Type: TypeControlAck, RequestID: 101, RANFunction: RANFunctionRC,
			ControlAck: &ControlAck{Accepted: false, Reason: "slice 3 unknown"},
		},
		"error": {Type: TypeError, RequestID: 7, Error: &ErrorBody{Reason: "protocol violation"}},
		"busy":  {Type: TypeBusy, Busy: &BusyBody{RetryAfterMs: 500, Reason: "association budget"}},
	}
}

// checkWire compares got with the corpus file name, or rewrites the file
// under -update, and returns the corpus bytes.
func checkWire(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "wire", name+".golden")
	dump := hex.Dump(got)
	if *update {
		if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dump != string(want) {
		t.Errorf("%s differs from %s (rerun with -update if the change is meant):\n%s", name, path, dump)
	}
	return undump(t, string(want))
}

// undump parses a hex.Dump back into its bytes.
func undump(t *testing.T, dump string) []byte {
	t.Helper()
	var out []byte
	for _, line := range strings.Split(strings.TrimSpace(dump), "\n") {
		hexPart, _, _ := strings.Cut(line[10:], "|")
		b, err := hex.DecodeString(strings.Join(strings.Fields(hexPart), ""))
		if err != nil {
			t.Fatalf("corpus line %q: %v", line, err)
		}
		out = append(out, b...)
	}
	return out
}

// TestWireCorpus holds both compact layouts and the xApp boundary to a
// checked-in byte record, traced and untraced: every encoding must match
// it byte for byte, and every record must decode to the message it was
// written from.
func TestWireCorpus(t *testing.T) {
	for name, m := range wireMessages() {
		for _, codec := range []Codec{BinaryCodec{}, VarintCodec{}} {
			for _, tc := range []trace.Context{{}, wireTrace} {
				m.Trace = tc
				file := codec.Name() + "-" + name
				if tc.Valid() {
					file += "-traced"
				}
				wire, err := codec.Encode(m)
				if err != nil {
					t.Fatalf("%s: %v", file, err)
				}
				got, err := codec.Decode(checkWire(t, file, wire))
				if err != nil {
					t.Fatalf("%s: decode the record: %v", file, err)
				}
				if !reflect.DeepEqual(got, m) {
					t.Errorf("%s: the record decodes to\n%+v\nwant %+v", file, got, m)
				}
			}
		}
	}
	ms := wireMessages()
	for _, name := range []string{"indication", "indication-no-rows"} {
		ind := ms[name].Indication
		body := checkWire(t, "body-"+name, AppendIndicationBody(nil, ind))
		if got, err := DecodeIndicationBody(body); err != nil || !reflect.DeepEqual(got, ind) {
			t.Errorf("body-%s decodes to %+v, %v", name, got, err)
		}
	}
	list := []ControlRequest{*ms["control"].Control, *ms["control-text-blob"].Control}
	for name, l := range map[string][]ControlRequest{"control-list": list, "control-list-empty": nil} {
		rec := checkWire(t, name, AppendControlList(nil, l))
		if got, err := DecodeControlListAppend(nil, rec); err != nil || len(got) != len(l) || (len(l) > 0 && !reflect.DeepEqual(got, l)) {
			t.Errorf("%s decodes to %+v, %v", name, got, err)
		}
	}
}

// FuzzWireLayouts feeds arbitrary bytes to both compact layouts. Neither
// may panic, and a frame that decodes must re-encode in either layout to a
// frame that decodes to the same message (compared in its fixed-width
// encoding, so a NaN measurement compares equal to itself).
func FuzzWireLayouts(f *testing.F) {
	layouts := []Codec{BinaryCodec{}, VarintCodec{}}
	for _, m := range wireMessages() {
		for _, c := range layouts {
			if wire, err := c.Encode(m); err == nil {
				f.Add(wire)
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, from := range layouts {
			m, err := from.Decode(b)
			if err != nil {
				continue
			}
			want, err := BinaryCodec{}.Encode(m)
			if err != nil {
				t.Fatalf("%s decoded a message that does not encode: %v", from.Name(), err)
			}
			for _, to := range layouts {
				wire, err := to.Encode(m)
				if err != nil {
					t.Fatalf("%s -> %s: encode: %v", from.Name(), to.Name(), err)
				}
				back, err := to.Decode(wire)
				if err != nil {
					t.Fatalf("%s -> %s: decode: %v", from.Name(), to.Name(), err)
				}
				if got, _ := (BinaryCodec{}).Encode(back); !bytes.Equal(got, want) {
					t.Fatalf("%s -> %s: %+v came back as %+v", from.Name(), to.Name(), m, back)
				}
			}
		}
	})
}

// varintFrame is a varint frame header followed by the given uvarints.
func varintFrame(fields ...uint64) []byte {
	var b []byte
	for _, v := range fields {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestVarintRefusesWideIntegers: a uvarint wider than its field is
// malformed. It is not cut to the field's width, which would turn a type of
// 0x106 into a heartbeat and a request ID of 2^40 into 0.
func TestVarintRefusesWideIntegers(t *testing.T) {
	hb, kpm := uint64(TypeHeartbeat), uint64(RANFunctionKPM)
	for name, b := range map[string][]byte{
		"type":         varintFrame(0x100+hb, 1, kpm),
		"request ID":   varintFrame(hb, 1<<40, kpm),
		"RAN function": varintFrame(hb, 1, 1<<32),
		"busy hint":    append(varintFrame(uint64(TypeBusy), 1, kpm, 1<<33), 0),
		"control action": append(varintFrame(uint64(TypeControlRequest), 1, kpm, 0x101, 1, 1),
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
	} {
		if m, err := (VarintCodec{}).Decode(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: decoded %+v, %v; want ErrMalformed", name, m, err)
		}
	}
}

// TestRowCountsFitTheirField: the compact layout counts rows in a u16, so
// a message with 65 536 UE rows, slice rows or subscription slice IDs is
// refused by every codec's encoder rather than written with a count that
// wrapped to 0, and no decoder hands one on: JSON validates, varint refuses
// a count wider than the u16.
func TestRowCountsFitTheirField(t *testing.T) {
	const over = 1 << 16
	big := Indication{UEs: make([]UEMeasurement, over)}
	for name, m := range map[string]*Message{
		"UE rows":    {Type: TypeIndication, Indication: &big},
		"slice rows": {Type: TypeIndication, Indication: &Indication{Slices: make([]SliceMeasurement, over)}},
		"batch":      {Type: TypeIndicationBatch, Batch: &IndicationBatch{Indications: []Indication{{}, big}}},
		"slice IDs":  {Type: TypeSubscriptionRequest, Subscription: &SubscriptionRequest{SliceIDs: make([]uint32, over)}},
	} {
		for _, c := range []Codec{BinaryCodec{}, VarintCodec{}, JSONCodec{}} {
			if _, err := c.Encode(m); !errors.Is(err, ErrMalformed) {
				t.Errorf("%s: %s encoded it (err %v), want ErrMalformed", name, c.Name(), err)
			}
		}
	}
	js, err := json.Marshal(map[string]any{"type": TypeIndication, "indication": big})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (JSONCodec{}).Decode(js); !errors.Is(err, ErrMalformed) {
		t.Errorf("JSON decoded %d UE rows, err %v", over, err)
	}
	vi := varintFrame(uint64(TypeIndication), 1, uint64(RANFunctionKPM), 5, 1, over)
	for i := 0; i < over; i++ {
		vi = append(vi, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0)
	}
	if _, err := (VarintCodec{}).Decode(append(vi, 0)); !errors.Is(err, ErrMalformed) {
		t.Errorf("varint decoded %d UE rows, err %v", over, err)
	}
}
