package sched

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary request layout (little endian):
//
//	u32 sliceID | u64 slot | u32 prbBudget | u32 nUE
//	then per UE: u32 id | i32 mcs | u32 bitsPerPRB | u32 bufferBytes | f64 avgTput
//
// Binary response layout:
//
//	u32 nAlloc, then per allocation: u32 ueID | u32 prbs
const (
	binReqHeaderLen = 4 + 8 + 4 + 4
	binReqUELen     = 4 + 4 + 4 + 4 + 8
	binRespAllocLen = 8
)

// BinaryCodec serializes scheduling requests and responses across the
// plugin boundary in the fixed layout above: the host's half
// (EncodeRequest, DecodeResponse) runs on every slot of a guest without the
// region ABI, and the guest's half (DecodeRequest, EncodeResponse) serves
// the Go reference guest and tests.
type BinaryCodec struct{}

// putBinReqHeader and putBinReqUE lay one request header / one UE record
// into b. The serializing encoder and the zero-copy region writer both go
// through them, so the two paths cannot drift apart on layout.
func putBinReqHeader(b []byte, req *Request) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], req.SliceID)
	le.PutUint64(b[4:], req.Slot)
	le.PutUint32(b[12:], req.PRBBudget)
	le.PutUint32(b[16:], uint32(len(req.UEs)))
}

func putBinReqUE(b []byte, u *UEInfo) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], u.ID)
	le.PutUint32(b[4:], uint32(u.MCS))
	le.PutUint32(b[8:], u.BitsPerPRB)
	le.PutUint32(b[12:], u.BufferBytes)
	le.PutUint64(b[16:], math.Float64bits(u.AvgTputBps))
}

// EncodeRequest lays req out for the guest.
func (BinaryCodec) EncodeRequest(req *Request) []byte {
	b := make([]byte, binReqHeaderLen+binReqUELen*len(req.UEs))
	putBinReqHeader(b, req)
	off := binReqHeaderLen
	for i := range req.UEs {
		putBinReqUE(b[off:off+binReqUELen], &req.UEs[i])
		off += binReqUELen
	}
	return b
}

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

// DecodeResponse parses a guest's response. The response bytes come from an
// untrusted plugin, so every structural failure is a typed *BadOutputError:
// a count prefix pointing past the payload (out-of-bounds region), trailing
// bytes the count does not claim, an absurd count, or two grants naming the
// same UE (overlapping result regions). Arithmetic is done in int64 so a
// hostile count cannot overflow the expected-length computation.
func (BinaryCodec) DecodeResponse(b []byte) (*Response, error) {
	if len(b) < 4 {
		return nil, badOutputf("sched: binary response too short (%d bytes)", len(b))
	}
	le := binary.LittleEndian
	n := le.Uint32(b[0:])
	if n > maxRespAllocs {
		return nil, badOutputKind(BadOutputOOB, "sched: binary response claims %d allocations (max %d)", n, maxRespAllocs)
	}
	if want := 4 + int64(n)*binRespAllocLen; int64(len(b)) != want {
		return nil, badOutputKind(BadOutputOOB, "sched: binary response length %d does not match %d allocations (want %d): allocation region out of bounds",
			len(b), n, want)
	}
	resp := &Response{Allocs: make([]Allocation, n)}
	seen := make(map[uint32]int, n)
	off := 4
	for i := 0; i < int(n); i++ {
		a := Allocation{UEID: le.Uint32(b[off:]), PRBs: le.Uint32(b[off+4:])}
		if j, dup := seen[a.UEID]; dup {
			return nil, badOutputKind(BadOutputOverlap, "sched: binary response allocations %d and %d overlap on UE %d", j, i, a.UEID)
		}
		seen[a.UEID] = i
		resp.Allocs[i] = a
		off += binRespAllocLen
	}
	return resp, nil
}
