package e2

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

func sampleBatch(nInd, nUE, nSlice int, seed int64) *IndicationBatch {
	rng := rand.New(rand.NewSource(seed))
	batch := &IndicationBatch{}
	for i := 0; i < nInd; i++ {
		ind := Indication{Slot: uint64(1000 + i), Cell: rng.Uint32() % 512}
		for u := 0; u < nUE; u++ {
			ind.UEs = append(ind.UEs, UEMeasurement{
				UEID: rng.Uint32(), SliceID: rng.Uint32() % 8, MCS: int32(rng.Intn(29)),
				BufferBytes: rng.Uint32(), TputBps: rng.Float64() * 1e8,
			})
		}
		for s := 0; s < nSlice; s++ {
			ind.Slices = append(ind.Slices, SliceMeasurement{
				SliceID: uint32(s + 1), TargetBps: rng.Float64() * 1e8,
				ServedBps: rng.Float64() * 1e8, UsedPRBs: rng.Uint32() % 100,
			})
		}
		batch.Indications = append(batch.Indications, ind)
	}
	return batch
}

func TestBatchRoundTripAllCodecs(t *testing.T) {
	msg := &Message{
		Type: TypeIndicationBatch, RequestID: 12, RANFunction: RANFunctionKPM,
		Batch: sampleBatch(5, 3, 2, 42),
	}
	for _, codec := range allCodecs(t) {
		wire, err := codec.Encode(msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", codec.Name(), err)
		}
		got, err := codec.Decode(wire)
		if err != nil {
			t.Fatalf("%s: decode: %v", codec.Name(), err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%s: mismatch:\ngot  %+v\nwant %+v", codec.Name(), got, msg)
		}
	}
}

// TestBatchBodyIsConcatenatedIndicationBodies pins the unbatching contract
// at the byte level: the binary batch body is exactly a u16 count followed
// by each per-slot indication body as AppendIndicationBody produces it —
// the same bytes the RIC hands an xApp on the unbatched path.
func TestBatchBodyIsConcatenatedIndicationBodies(t *testing.T) {
	batch := sampleBatch(4, 2, 2, 7)
	body := &bwriter{}
	body.batch(batch)
	got := body.b
	w := &bwriter{}
	w.u16(uint16(len(batch.Indications)))
	want := w.b
	for i := range batch.Indications {
		want = AppendIndicationBody(want, &batch.Indications[i])
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch body is not count + concatenated indication bodies")
	}
}

func TestBatchValidation(t *testing.T) {
	empty := &Message{Type: TypeIndicationBatch, Batch: &IndicationBatch{}}
	if err := empty.Validate(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("empty batch accepted: %v", err)
	}
	over := &Message{Type: TypeIndicationBatch, Batch: &IndicationBatch{
		Indications: make([]Indication, MaxBatchIndications+1),
	}}
	if err := over.Validate(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized batch accepted: %v", err)
	}
	missing := &Message{Type: TypeIndicationBatch}
	if err := missing.Validate(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("missing batch body accepted: %v", err)
	}
	two := &Message{Type: TypeIndicationBatch, Batch: sampleBatch(1, 0, 0, 1), Indication: &Indication{}}
	if err := two.Validate(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("two bodies accepted: %v", err)
	}
}

// TestBatchDecodeRejectsOversizedCount feeds a binary batch frame whose
// count field promises more indications than the limit.
func TestBatchDecodeRejectsOversizedCount(t *testing.T) {
	w := &bwriter{}
	w.u8(uint8(TypeIndicationBatch))
	w.u32(1)
	w.u32(RANFunctionKPM)
	w.u16(uint16(MaxBatchIndications + 1))
	if _, err := (BinaryCodec{}).Decode(w.b); !errors.Is(err, ErrMalformed) {
		t.Fatalf("got %v, want ErrMalformed", err)
	}
}

// FuzzIndicationBatchRoundTrip builds a seeded batch from fuzzed shape
// parameters and drives it through every codec: decode(encode(x)) must be
// structurally identical, the binary body must stay the concatenation of
// per-slot indication bodies, and re-encoding the decoded form must be
// byte-stable.
func FuzzIndicationBatchRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(0), int64(0))
	f.Add(uint8(8), uint8(4), uint8(3), int64(99))
	f.Add(uint8(64), uint8(1), uint8(1), int64(-5))
	f.Fuzz(func(t *testing.T, nInd, nUE, nSlice uint8, seed int64) {
		if nInd == 0 {
			nInd = 1 // empty batches are invalid by contract
		}
		batch := sampleBatch(int(nInd), int(nUE)%16, int(nSlice)%8, seed)
		msg := &Message{Type: TypeIndicationBatch, RequestID: 5, RANFunction: RANFunctionKPM, Batch: batch}
		for _, codec := range traceCodecs() {
			wire, err := codec.Encode(msg)
			if err != nil {
				t.Fatalf("%s: encode: %v", codec.Name(), err)
			}
			got, err := codec.Decode(wire)
			if err != nil {
				t.Fatalf("%s: decode: %v", codec.Name(), err)
			}
			rewire, err := codec.Encode(got)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", codec.Name(), err)
			}
			if !bytes.Equal(wire, rewire) {
				t.Fatalf("%s: re-encode not byte-stable", codec.Name())
			}
			if len(got.Batch.Indications) != len(batch.Indications) {
				t.Fatalf("%s: %d indications, want %d", codec.Name(),
					len(got.Batch.Indications), len(batch.Indications))
			}
			for i := range batch.Indications {
				a := AppendIndicationBody(nil, &got.Batch.Indications[i])
				b := AppendIndicationBody(nil, &batch.Indications[i])
				if !bytes.Equal(a, b) {
					t.Fatalf("%s: indication %d not bit-identical after round trip", codec.Name(), i)
				}
			}
		}
	})
}
