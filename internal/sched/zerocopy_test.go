package sched

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"waran/internal/wabi"
	"waran/internal/wasm"
)

// newTestRegions builds a raw linear memory with a request and response
// window laid out like a negotiated plugin, but with no wasm module behind
// it — the writer and reader are pure byte-layout code, so the differential
// tests can drive them directly against the serializing codec.
func newTestRegions() (*wasm.Memory, *wabi.Regions) {
	mem := wasm.NewMemory(1, 1)
	rg := &wabi.Regions{Layout: wabi.RegionLayout{
		ReqPtr: 4096, ReqLen: ZCRequestRegionLen,
		RespPtr: 20480, RespLen: ZCResponseRegionLen,
	}}
	return mem, rg
}

// regionRequestBytes reads back the live prefix of the request region: the
// bytes a guest parsing the shared layout would consume.
func regionRequestBytes(t *testing.T, mem *wasm.Memory, rg *wabi.Regions, nUE int) []byte {
	t.Helper()
	b, err := mem.Read(rg.Layout.ReqPtr, uint32(binReqHeaderLen+nUE*binReqUELen))
	if err != nil {
		t.Fatalf("read request region: %v", err)
	}
	return b
}

func zcRandomRequest(rng *rand.Rand, nUE int, slot uint64) *Request {
	req := &Request{
		SliceID:   rng.Uint32(),
		Slot:      slot,
		PRBBudget: uint32(rng.Intn(300)),
	}
	for i := 0; i < nUE; i++ {
		avg := float64(rng.Intn(50_000_000))
		switch rng.Intn(12) {
		case 0:
			avg = math.NaN()
		case 1:
			avg = math.Inf(1)
		case 2:
			avg = math.Inf(-1)
		}
		req.UEs = append(req.UEs, UEInfo{
			ID:          rng.Uint32(),
			MCS:         int32(rng.Intn(29)),
			BitsPerPRB:  uint32(rng.Intn(2000)),
			BufferBytes: uint32(rng.Intn(1 << 20)),
			AvgTputBps:  avg,
		})
	}
	return req
}

// TestZCWriteRequestMatchesBinaryEncode pins the tentpole invariant: the
// request region after a zero-copy write is byte-identical to the binary
// codec's encoding of the same request, so a guest parsing the shared
// layout cannot tell the paths apart.
func TestZCWriteRequestMatchesBinaryEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		mem, rg := newTestRegions()
		nUE := rng.Intn(64)
		if trial == 0 {
			nUE = 0 // pin the empty request explicitly
		}
		if trial == 1 {
			nUE = ZCMaxUEs // and the full region
		}
		req := zcRandomRequest(rng, nUE, uint64(trial))
		if err := zcWriteRequest(mem, rg.Layout, req); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := BinaryCodec{}.EncodeRequest(req)
		got := regionRequestBytes(t, mem, rg, nUE)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: region bytes diverge from binary encoding\nregion: %x\ncodec:  %x", trial, got, want)
		}
	}
}

func TestZCWriteRequestRejectsOversize(t *testing.T) {
	mem, rg := newTestRegions()
	req := zcRandomRequest(rand.New(rand.NewSource(2)), ZCMaxUEs+1, 0)
	if err := zcWriteRequest(mem, rg.Layout, req); err == nil {
		t.Fatal("request with ZCMaxUEs+1 UEs accepted")
	}
}

// TestZCDeltaWrite drives a multi-slot sequence of request deltas — random
// UE mutations, the UE list shrinking and growing over bytes earlier slots
// left behind — through one region and checks the live prefix always matches
// a full re-encode bit for bit.
func TestZCDeltaWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mem, rg := newTestRegions()
	req := zcRandomRequest(rng, 32, 0)
	if err := zcWriteRequest(mem, rg.Layout, req); err != nil {
		t.Fatal(err)
	}

	for slot := uint64(1); slot <= 1000; slot++ {
		for i := range req.UEs {
			if rng.Intn(8) == 0 {
				req.UEs[i].BufferBytes = uint32(rng.Intn(1 << 20))
			}
		}
		switch rng.Intn(10) {
		case 0:
			if len(req.UEs) > 1 {
				req.UEs = req.UEs[:len(req.UEs)-1-rng.Intn(len(req.UEs)-1)]
			}
		case 1:
			for len(req.UEs) < 40 {
				req.UEs = append(req.UEs, zcRandomRequest(rng, 1, slot).UEs[0])
			}
		}
		req.Slot = slot

		if err := zcWriteRequest(mem, rg.Layout, req); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		want := BinaryCodec{}.EncodeRequest(req)
		got := regionRequestBytes(t, mem, rg, len(req.UEs))
		if !bytes.Equal(got, want) {
			t.Fatalf("slot %d: rewritten region diverges from full re-encode", slot)
		}
	}
}

// writeResponseRegion lays raw response bytes into the region, zero-padding
// the remainder so stale bytes from earlier test cases cannot leak in.
func writeResponseRegion(t *testing.T, mem *wasm.Memory, rg *wabi.Regions, b []byte) {
	t.Helper()
	if len(b) > int(rg.Layout.RespLen) {
		t.Fatalf("test response %d bytes exceeds region %d", len(b), rg.Layout.RespLen)
	}
	buf := make([]byte, rg.Layout.RespLen)
	copy(buf, b)
	if err := mem.Write(rg.Layout.RespPtr, buf); err != nil {
		t.Fatal(err)
	}
}

func kindOf(t *testing.T, err error) (BadOutputKind, bool) {
	t.Helper()
	var bo *BadOutputError
	if errors.As(err, &bo) {
		return bo.Kind, true
	}
	return 0, false
}

// TestZCReadResponseMatchesBinaryDecode: for any response-region content
// whose claimed table fits the region, reading the region must agree with
// the binary codec decoding the equivalent byte string — same allocations
// on success, same BadOutputKind on rejection.
func TestZCReadResponseMatchesBinaryDecode(t *testing.T) {
	mem, rg := newTestRegions()
	enc := BinaryCodec{}
	cases := []struct {
		name string
		resp *Response
	}{
		{"empty", &Response{Allocs: []Allocation{}}},
		{"one", &Response{Allocs: []Allocation{{UEID: 7, PRBs: 3}}}},
		{"many", &Response{Allocs: []Allocation{{1, 1}, {2, 5}, {3, 0}, {0xffffffff, 9}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := enc.EncodeResponse(tc.resp)
			writeResponseRegion(t, mem, rg, b)
			got := &Response{}
			if err := zcReadResponse(mem, rg.Layout, got); err != nil {
				t.Fatal(err)
			}
			want, err := enc.DecodeResponse(b)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Allocs, want.Allocs) {
				t.Fatalf("zc read %+v, codec %+v", got, want)
			}
		})
	}
}

// TestZCReadResponseHostileKinds is the crafted-hostile-region table: each
// attack must be rejected with the same structural kind the codec assigns.
func TestZCReadResponseHostileKinds(t *testing.T) {
	mem, rg := newTestRegions()
	le := func(vals ...uint32) []byte {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			b[4*i] = byte(v)
			b[4*i+1] = byte(v >> 8)
			b[4*i+2] = byte(v >> 16)
			b[4*i+3] = byte(v >> 24)
		}
		return b
	}
	cases := []struct {
		name string
		b    []byte
		kind BadOutputKind
	}{
		{"poison count untouched", le(zcRespPoison), BadOutputOOB},
		{"count past region", le(ZCMaxAllocs + 1), BadOutputOOB},
		{"count 0xffffffff", le(0xffff_ffff), BadOutputOOB},
		{"overlapping allocations", le(2, 42, 1, 42, 2), BadOutputOverlap},
		{"overlap later", le(3, 1, 1, 2, 1, 1, 5), BadOutputOverlap},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			writeResponseRegion(t, mem, rg, tc.b)
			err := zcReadResponse(mem, rg.Layout, &Response{})
			kind, ok := kindOf(t, err)
			if !ok {
				t.Fatalf("err = %v, want *BadOutputError", err)
			}
			if kind != tc.kind {
				t.Fatalf("kind = %v, want %v", kind, tc.kind)
			}
		})
	}
}

// FuzzABIDifferential is the differential engine for the ABI layer proper,
// no wasm execution involved: random requests must produce bit-identical
// request bytes through the region writer and the serializing encoder, and
// arbitrary response-region content must be accepted/rejected identically
// (same allocations, same BadOutputKind) by the region reader and the
// serializing decoder.
func FuzzABIDifferential(f *testing.F) {
	f.Add(int64(1), uint16(0), []byte{})
	f.Add(int64(2), uint16(5), []byte{1, 0, 0, 0, 7, 0, 0, 0, 3, 0, 0, 0})
	f.Add(int64(3), uint16(512), []byte{0xef, 0xbe, 0xad, 0xde})
	f.Add(int64(4), uint16(33), []byte{2, 0, 0, 0, 42, 0, 0, 0, 1, 0, 0, 0, 42, 0, 0, 0, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, nUE uint16, respBytes []byte) {
		rng := rand.New(rand.NewSource(seed))
		mem, rg := newTestRegions()
		enc := BinaryCodec{}

		// --- Request direction: region writer vs serializing encoder.
		req := zcRandomRequest(rng, int(nUE)%(ZCMaxUEs+1), uint64(seed))
		if err := zcWriteRequest(mem, rg.Layout, req); err != nil {
			t.Fatalf("write: %v", err)
		}
		if got, want := regionRequestBytes(t, mem, rg, len(req.UEs)), enc.EncodeRequest(req); !bytes.Equal(got, want) {
			t.Fatal("fresh write diverges from binary encoding")
		}
		// Mutate a random UE and re-write over the previous slot's bytes: the
		// region must land on the exact same bytes as a full re-encode.
		if len(req.UEs) > 0 {
			i := rng.Intn(len(req.UEs))
			req.UEs[i].AvgTputBps = math.Float64frombits(rng.Uint64())
			req.UEs[i].BufferBytes = rng.Uint32()
		}
		req.Slot++
		if err := zcWriteRequest(mem, rg.Layout, req); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		if got, want := regionRequestBytes(t, mem, rg, len(req.UEs)), enc.EncodeRequest(req); !bytes.Equal(got, want) {
			t.Fatal("rewrite diverges from binary re-encoding")
		}

		// --- Response direction: region reader vs serializing decoder.
		if len(respBytes) > int(rg.Layout.RespLen) {
			respBytes = respBytes[:rg.Layout.RespLen]
		}
		writeResponseRegion(t, mem, rg, respBytes)
		zcResp := &Response{}
		zcErr := zcReadResponse(mem, rg.Layout, zcResp)

		// Equivalence rule: the region's count word names n records; the
		// codec-equivalent input is the first 4+8n region bytes (the region
		// is zero-padded, so short respBytes read as zeros). If the table
		// does not fit the region, both paths must call it out-of-bounds.
		n, err := mem.ReadUint32(rg.Layout.RespPtr)
		if err != nil {
			t.Fatal(err)
		}
		if want := 4 + uint64(n)*binRespAllocLen; n > ZCMaxAllocs || want > uint64(rg.Layout.RespLen) {
			kind, ok := kindOf(t, zcErr)
			if !ok || kind != BadOutputOOB {
				t.Fatalf("oversized claim %d: err = %v, want BadOutputOOB", n, zcErr)
			}
			return
		}
		equiv := make([]byte, 4+int(n)*binRespAllocLen)
		got, err := mem.Read(rg.Layout.RespPtr, uint32(len(equiv)))
		if err != nil {
			t.Fatal(err)
		}
		copy(equiv, got)
		codecResp, codecErr := enc.DecodeResponse(equiv)

		switch {
		case zcErr == nil && codecErr == nil:
			if !slices.Equal(zcResp.Allocs, codecResp.Allocs) {
				t.Fatalf("responses diverge: zc %+v, codec %+v", zcResp, codecResp)
			}
		case zcErr != nil && codecErr != nil:
			zk, zok := kindOf(t, zcErr)
			ck, cok := kindOf(t, codecErr)
			if !zok || !cok || zk != ck {
				t.Fatalf("rejection kinds diverge: zc %v (%v), codec %v (%v)", zk, zcErr, ck, codecErr)
			}
		default:
			t.Fatalf("acceptance diverges: zc err %v, codec err %v", zcErr, codecErr)
		}
	})
}
