package sched

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCodecRequestRoundTrip(t *testing.T) {
	req := &Request{
		SliceID:   3,
		Slot:      1 << 40,
		PRBBudget: 52,
		UEs: []UEInfo{
			{ID: 1, MCS: 28, BitsPerPRB: 802, BufferBytes: 123456, AvgTputBps: 17.5e6},
			{ID: 2, MCS: 0, BitsPerPRB: 0, BufferBytes: 0, AvgTputBps: 0},
		},
	}
	c := BinaryCodec{}
	got, err := c.DecodeRequest(c.EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.SliceID != req.SliceID || got.Slot != req.Slot || got.PRBBudget != req.PRBBudget {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.UEs, req.UEs) {
		t.Fatalf("UEs mismatch:\n%+v\n%+v", got.UEs, req.UEs)
	}
}

func TestCodecResponseRoundTrip(t *testing.T) {
	resp := &Response{Allocs: []Allocation{{UEID: 7, PRBs: 13}, {UEID: 9, PRBs: 0}}}
	c := BinaryCodec{}
	got, err := c.DecodeResponse(c.EncodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Allocs, resp.Allocs) {
		t.Fatalf("mismatch: %+v", got.Allocs)
	}
}

func TestCodecEmptyValues(t *testing.T) {
	c := BinaryCodec{}
	req, err := c.DecodeRequest(c.EncodeRequest(&Request{}))
	if err != nil || len(req.UEs) != 0 {
		t.Fatalf("empty request: %+v, %v", req, err)
	}
	resp, err := c.DecodeResponse(c.EncodeResponse(&Response{}))
	if err != nil || len(resp.Allocs) != 0 {
		t.Fatalf("empty response: %+v, %v", resp, err)
	}
}

func TestBinaryCodecRejectsMalformed(t *testing.T) {
	c := BinaryCodec{}
	if _, err := c.DecodeRequest([]byte{1, 2, 3}); err == nil {
		t.Error("short request accepted")
	}
	if _, err := c.DecodeResponse([]byte{1}); err == nil {
		t.Error("short response accepted")
	}
	// Claimed UE count inconsistent with the buffer length.
	good := c.EncodeRequest(&Request{UEs: []UEInfo{{ID: 1}}})
	if _, err := c.DecodeRequest(good[:len(good)-4]); err == nil {
		t.Error("truncated request accepted")
	}
	// Response claiming 99 allocations in 4 bytes.
	bad := []byte{99, 0, 0, 0}
	if _, err := c.DecodeResponse(bad); err == nil {
		t.Error("inconsistent response accepted")
	}
}

func TestBinaryEncodingIsCompact(t *testing.T) {
	bin := BinaryCodec{}.EncodeRequest(&Request{UEs: make([]UEInfo, 20)})
	if want := 20 + 20*24; len(bin) != want {
		t.Fatalf("binary request = %d bytes, want %d", len(bin), want)
	}
}

// Property: binary codec round-trips arbitrary requests and responses.
func TestQuickBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := BinaryCodec{}
	for trial := 0; trial < 500; trial++ {
		req := randomReq(rng)
		got, err := c.DecodeRequest(c.EncodeRequest(req))
		if err != nil {
			t.Fatal(err)
		}
		if got.SliceID != req.SliceID || got.Slot != req.Slot || got.PRBBudget != req.PRBBudget || len(got.UEs) != len(req.UEs) {
			t.Fatalf("request mismatch")
		}
		for i := range req.UEs {
			if got.UEs[i] != req.UEs[i] {
				t.Fatalf("UE %d mismatch: %+v vs %+v", i, got.UEs[i], req.UEs[i])
			}
		}
	}
	f := func(allocs []Allocation) bool {
		// A repeated UE ID is an overlapping result the decoder must reject
		// (badoutput_test.go), not a round trip: such an input proves nothing.
		seen := make(map[uint32]bool, len(allocs))
		for _, a := range allocs {
			if seen[a.UEID] {
				return true
			}
			seen[a.UEID] = true
		}
		resp := &Response{Allocs: allocs}
		got, err := c.DecodeResponse(c.EncodeResponse(resp))
		if err != nil {
			return false
		}
		if len(got.Allocs) != len(allocs) {
			return false
		}
		for i := range allocs {
			if got.Allocs[i] != allocs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The guest's half of BinaryCodec, for the round-trip tests and the Go
// reference guest.

// DecodeRequest parses a request, as a guest does.
func (BinaryCodec) DecodeRequest(b []byte) (*Request, error) {
	if len(b) < binReqHeaderLen {
		return nil, fmt.Errorf("sched: binary request too short (%d bytes)", len(b))
	}
	le := binary.LittleEndian
	req := &Request{
		SliceID:   le.Uint32(b[0:]),
		Slot:      le.Uint64(b[4:]),
		PRBBudget: le.Uint32(b[12:]),
	}
	n := int(le.Uint32(b[16:]))
	if len(b) != binReqHeaderLen+n*binReqUELen {
		return nil, fmt.Errorf("sched: binary request length %d does not match %d UEs", len(b), n)
	}
	req.UEs = make([]UEInfo, n)
	off := binReqHeaderLen
	for i := 0; i < n; i++ {
		req.UEs[i] = UEInfo{
			ID:          le.Uint32(b[off:]),
			MCS:         int32(le.Uint32(b[off+4:])),
			BitsPerPRB:  le.Uint32(b[off+8:]),
			BufferBytes: le.Uint32(b[off+12:]),
			AvgTputBps:  math.Float64frombits(le.Uint64(b[off+16:])),
		}
		off += binReqUELen
	}
	return req, nil
}

// EncodeResponse lays resp out, as a guest does.
func (BinaryCodec) EncodeResponse(resp *Response) []byte {
	b := make([]byte, 4+binRespAllocLen*len(resp.Allocs))
	le := binary.LittleEndian
	le.PutUint32(b[0:], uint32(len(resp.Allocs)))
	off := 4
	for _, a := range resp.Allocs {
		le.PutUint32(b[off:], a.UEID)
		le.PutUint32(b[off+4:], a.PRBs)
		off += binRespAllocLen
	}
	return b
}
