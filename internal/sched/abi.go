package sched

import (
	"encoding/binary"
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
// plugin boundary in the fixed layout above. This is the host's half
// (EncodeRequest, DecodeResponse); it runs on every slot of a guest without
// the region ABI.
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
