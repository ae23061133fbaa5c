package e2

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"waran/internal/obs/trace"
)

// Codec serializes E2-lite messages to wire payloads. The choice of codec
// is an operator decision wrapped inside communication plugins (paper §4B):
// the fixed-layout binary codec is the smallest and fastest; the varint
// codec ("protobuf-lite") is compact for small values; JSON is the
// interoperability/debugging option.
type Codec interface {
	Name() string
	Encode(m *Message) ([]byte, error)
	// Decode parses one frame payload. It must not keep b, or any part of
	// it, after it returns: Conn.Recv reads the next frame into the same
	// storage, so every string and byte slice of the message is a copy.
	Decode(b []byte) (*Message, error)
}

// AppendEncoder is the optional allocation-free encoding fast path: codecs
// that implement it encode into the caller's buffer instead of allocating a
// fresh payload per message. Conn.Send uses it to reuse one frame buffer
// per association, which keeps per-indication allocations flat when
// thousands of associations stream KPM reports.
type AppendEncoder interface {
	AppendEncode(dst []byte, m *Message) ([]byte, error)
}

// ---------------------------------------------------------------------------
// BinaryCodec: fixed little-endian layout ("ASN.1-lite" in spirit: compact,
// position-based).

// BinaryCodec is the compact fixed-layout codec.
type BinaryCodec struct{}

// Name implements Codec.
func (BinaryCodec) Name() string { return "binary" }

type bwriter struct{ b []byte }

func (w *bwriter) u8(v uint8)   { w.b = append(w.b, v) }
func (w *bwriter) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *bwriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *bwriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *bwriter) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *bwriter) str(s string) {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF]
	}
	w.u16(uint16(len(s)))
	w.b = append(w.b, s...)
}

type breader struct {
	b   []byte
	pos int
}

func (r *breader) left() int { return len(r.b) - r.pos }

func (r *breader) u8() (uint8, error) {
	if r.left() < 1 {
		return 0, ErrMalformed
	}
	v := r.b[r.pos]
	r.pos++
	return v, nil
}

func (r *breader) u16() (uint16, error) {
	if r.left() < 2 {
		return 0, ErrMalformed
	}
	v := binary.LittleEndian.Uint16(r.b[r.pos:])
	r.pos += 2
	return v, nil
}

func (r *breader) u32() (uint32, error) {
	if r.left() < 4 {
		return 0, ErrMalformed
	}
	v := binary.LittleEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *breader) u64() (uint64, error) {
	if r.left() < 8 {
		return 0, ErrMalformed
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v, nil
}

func (r *breader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

// take consumes the next n bytes, or fails without consuming any when
// fewer are left.
func (r *breader) take(n int) ([]byte, error) {
	if n < 0 || r.left() < n {
		return nil, ErrMalformed
	}
	b := r.b[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *breader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if r.left() < int(n) {
		return "", ErrMalformed
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

// Encode implements Codec.
func (c BinaryCodec) Encode(m *Message) ([]byte, error) { return c.AppendEncode(nil, m) }

// AppendEncode implements AppendEncoder: it encodes into dst's spare
// capacity so the transport can reuse one send buffer per association.
func (BinaryCodec) AppendEncode(dst []byte, m *Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	w := &bwriter{b: dst}
	w.u8(uint8(m.Type))
	w.u32(m.RequestID)
	w.u32(m.RANFunction)
	switch m.Type {
	case TypeSubscriptionRequest:
		w.u32(m.Subscription.ReportPeriodMs)
		w.u16(uint16(len(m.Subscription.SliceIDs)))
		for _, id := range m.Subscription.SliceIDs {
			w.u32(id)
		}
	case TypeSubscriptionResponse:
		w.u8(boolByte(m.SubscriptionResp.Accepted))
		w.str(m.SubscriptionResp.Reason)
	case TypeIndication:
		w.b = AppendIndicationBody(w.b, m.Indication)
	case TypeIndicationBatch:
		w.b = appendBatchBody(w.b, m.Batch)
	case TypeControlRequest:
		w.b = AppendControlBody(w.b, m.Control)
	case TypeControlAck:
		w.u8(boolByte(m.ControlAck.Accepted))
		w.str(m.ControlAck.Reason)
	case TypeError:
		w.str(m.Error.Reason)
	case TypeBusy:
		w.u32(m.Busy.RetryAfterMs)
		w.str(m.Busy.Reason)
	case TypeHeartbeat:
	}
	w.b = appendTraceTrailer(w.b, m.Trace)
	return w.b, nil
}

// Frames whose Message and body BinaryCodec.Decode allocates as one object:
// the near-RT loop's indications, controls and acks, and batches.
type (
	indicationFrame struct {
		msg Message
		ind Indication
	}
	batchFrame struct {
		msg   Message
		batch IndicationBatch
	}
	controlFrame struct {
		msg  Message
		ctrl ControlRequest
	}
	ackFrame struct {
		msg Message
		ack ControlAck
	}
)

// Decode implements Codec. An indication, batch, control or ack frame's
// Message and body are one allocation, and rows are decoded in place into
// storage sized from the frame's counts.
func (BinaryCodec) Decode(b []byte) (*Message, error) {
	r := &breader{b: b}
	t, err := r.u8()
	if err != nil {
		return nil, err
	}
	reqID, err := r.u32()
	if err != nil {
		return nil, err
	}
	ranFn, err := r.u32()
	if err != nil {
		return nil, err
	}
	var m *Message
	switch MessageType(t) {
	case TypeSubscriptionRequest:
		sub := &SubscriptionRequest{}
		if sub.ReportPeriodMs, err = r.u32(); err != nil {
			return nil, err
		}
		n, err := r.u16()
		if err != nil {
			return nil, err
		}
		for i := 0; i < int(n); i++ {
			id, err := r.u32()
			if err != nil {
				return nil, err
			}
			sub.SliceIDs = append(sub.SliceIDs, id)
		}
		m = &Message{Subscription: sub}
	case TypeSubscriptionResponse:
		resp := &SubscriptionResponse{}
		ok, err := r.u8()
		if err != nil {
			return nil, err
		}
		resp.Accepted = ok != 0
		if resp.Reason, err = r.str(); err != nil {
			return nil, err
		}
		m = &Message{SubscriptionResp: resp}
	case TypeIndication:
		f := &indicationFrame{}
		if err := readIndicationBodyInto(r, &f.ind); err != nil {
			return nil, err
		}
		f.msg.Indication = &f.ind
		m = &f.msg
	case TypeIndicationBatch:
		f := &batchFrame{}
		if err := readBatchBodyInto(r, &f.batch); err != nil {
			return nil, err
		}
		f.msg.Batch = &f.batch
		m = &f.msg
	case TypeControlRequest:
		f := &controlFrame{}
		if err := readControlBodyInto(r, &f.ctrl); err != nil {
			return nil, err
		}
		f.msg.Control = &f.ctrl
		m = &f.msg
	case TypeControlAck:
		f := &ackFrame{}
		ok, err := r.u8()
		if err != nil {
			return nil, err
		}
		f.ack.Accepted = ok != 0
		if f.ack.Reason, err = r.str(); err != nil {
			return nil, err
		}
		f.msg.ControlAck = &f.ack
		m = &f.msg
	case TypeError:
		e := &ErrorBody{}
		if e.Reason, err = r.str(); err != nil {
			return nil, err
		}
		m = &Message{Error: e}
	case TypeBusy:
		busy := &BusyBody{}
		if busy.RetryAfterMs, err = r.u32(); err != nil {
			return nil, err
		}
		if busy.Reason, err = r.str(); err != nil {
			return nil, err
		}
		m = &Message{Busy: busy}
	case TypeHeartbeat:
		m = &Message{}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
	m.Type, m.RequestID, m.RANFunction = MessageType(t), reqID, ranFn
	switch r.left() {
	case 0: // untraced frame
	case traceTrailerLen:
		tc, ok := parseTraceTrailer(r.b[r.pos:])
		if !ok {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, r.left())
		}
		m.Trace = tc
	default:
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, r.left())
	}
	return m, nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// JSONCodec.

// JSONCodec encodes messages as JSON objects.
type JSONCodec struct{}

// Name implements Codec.
func (JSONCodec) Name() string { return "json" }

type jsonMessage struct {
	Type        uint8  `json:"type"`
	RequestID   uint32 `json:"request_id"`
	RANFunction uint32 `json:"ran_function"`
	// Trace is the JSON form of the trace context; old decoders built on
	// encoding/json skip the unknown field by construction.
	Trace   *trace.Context        `json:"trace,omitempty"`
	Sub     *SubscriptionRequest  `json:"subscription,omitempty"`
	SubResp *SubscriptionResponse `json:"subscription_response,omitempty"`
	Ind     *Indication           `json:"indication,omitempty"`
	Batch   *IndicationBatch      `json:"indication_batch,omitempty"`
	Ctrl    *ControlRequest       `json:"control,omitempty"`
	Ack     *ControlAck           `json:"control_ack,omitempty"`
	Err     *ErrorBody            `json:"error,omitempty"`
	Busy    *BusyBody             `json:"busy,omitempty"`
}

// Encode implements Codec.
func (JSONCodec) Encode(m *Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	jm := jsonMessage{
		Type: uint8(m.Type), RequestID: m.RequestID, RANFunction: m.RANFunction,
		Sub: m.Subscription, SubResp: m.SubscriptionResp, Ind: m.Indication,
		Batch: m.Batch, Ctrl: m.Control, Ack: m.ControlAck, Err: m.Error,
		Busy: m.Busy,
	}
	if m.Trace.Valid() {
		tc := m.Trace
		jm.Trace = &tc
	}
	return json.Marshal(jm)
}

// Decode implements Codec.
func (JSONCodec) Decode(b []byte) (*Message, error) {
	var jm jsonMessage
	if err := json.Unmarshal(b, &jm); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	m := &Message{
		Type: MessageType(jm.Type), RequestID: jm.RequestID, RANFunction: jm.RANFunction,
		Subscription: jm.Sub, SubscriptionResp: jm.SubResp, Indication: jm.Ind,
		Batch: jm.Batch, Control: jm.Ctrl, ControlAck: jm.Ack, Error: jm.Err,
		Busy: jm.Busy,
	}
	if jm.Trace != nil {
		m.Trace = *jm.Trace
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// VarintCodec: same structure as the binary codec but with unsigned varint
// integers — the "protobuf-lite" option, smallest when values are small.

// VarintCodec is the varint-packed codec.
type VarintCodec struct{}

// Name implements Codec.
func (VarintCodec) Name() string { return "varint" }

type vwriter struct{ b []byte }

func (w *vwriter) uv(v uint64)   { w.b = binary.AppendUvarint(w.b, v) }
func (w *vwriter) f64(v float64) { w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v)) }
func (w *vwriter) str(s string) {
	w.uv(uint64(len(s)))
	w.b = append(w.b, s...)
}

type vreader struct {
	b   []byte
	pos int
}

func (r *vreader) uv() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, ErrMalformed
	}
	r.pos += n
	return v, nil
}

func (r *vreader) f64() (float64, error) {
	if len(r.b)-r.pos < 8 {
		return 0, ErrMalformed
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return math.Float64frombits(v), nil
}

func (r *vreader) str() (string, error) {
	n, err := r.uv()
	if err != nil {
		return "", err
	}
	if uint64(len(r.b)-r.pos) < n {
		return "", ErrMalformed
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

// Encode implements Codec.
func (c VarintCodec) Encode(m *Message) ([]byte, error) { return c.AppendEncode(nil, m) }

// AppendEncode implements AppendEncoder: it encodes into dst's spare
// capacity so the transport can reuse one send buffer per association.
func (VarintCodec) AppendEncode(dst []byte, m *Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	w := &vwriter{b: dst}
	w.uv(uint64(m.Type))
	w.uv(uint64(m.RequestID))
	w.uv(uint64(m.RANFunction))
	switch m.Type {
	case TypeSubscriptionRequest:
		w.uv(uint64(m.Subscription.ReportPeriodMs))
		w.uv(uint64(len(m.Subscription.SliceIDs)))
		for _, id := range m.Subscription.SliceIDs {
			w.uv(uint64(id))
		}
	case TypeSubscriptionResponse:
		w.uv(uint64(boolByte(m.SubscriptionResp.Accepted)))
		w.str(m.SubscriptionResp.Reason)
	case TypeIndication:
		writeVarintIndication(w, m.Indication)
	case TypeIndicationBatch:
		w.uv(uint64(len(m.Batch.Indications)))
		for i := range m.Batch.Indications {
			writeVarintIndication(w, &m.Batch.Indications[i])
		}
	case TypeControlRequest:
		c := m.Control
		w.uv(uint64(c.Action))
		w.uv(uint64(c.SliceID))
		w.uv(uint64(c.UEID))
		w.f64(c.Value)
		w.str(c.Text)
		w.uv(uint64(len(c.Blob)))
		w.b = append(w.b, c.Blob...)
	case TypeControlAck:
		w.uv(uint64(boolByte(m.ControlAck.Accepted)))
		w.str(m.ControlAck.Reason)
	case TypeError:
		w.str(m.Error.Reason)
	case TypeBusy:
		w.uv(uint64(m.Busy.RetryAfterMs))
		w.str(m.Busy.Reason)
	case TypeHeartbeat:
	}
	w.b = appendTraceTrailer(w.b, m.Trace)
	return w.b, nil
}

// Decode implements Codec.
func (VarintCodec) Decode(b []byte) (*Message, error) {
	r := &vreader{b: b}
	t, err := r.uv()
	if err != nil {
		return nil, err
	}
	m := &Message{Type: MessageType(t)}
	rid, err := r.uv()
	if err != nil {
		return nil, err
	}
	m.RequestID = uint32(rid)
	rf, err := r.uv()
	if err != nil {
		return nil, err
	}
	m.RANFunction = uint32(rf)
	uvU32 := func() (uint32, error) {
		v, err := r.uv()
		return uint32(v), err
	}
	switch m.Type {
	case TypeSubscriptionRequest:
		sub := &SubscriptionRequest{}
		if sub.ReportPeriodMs, err = uvU32(); err != nil {
			return nil, err
		}
		n, err := r.uv()
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < n; i++ {
			id, err := uvU32()
			if err != nil {
				return nil, err
			}
			sub.SliceIDs = append(sub.SliceIDs, id)
		}
		m.Subscription = sub
	case TypeSubscriptionResponse:
		resp := &SubscriptionResponse{}
		ok, err := r.uv()
		if err != nil {
			return nil, err
		}
		resp.Accepted = ok != 0
		if resp.Reason, err = r.str(); err != nil {
			return nil, err
		}
		m.SubscriptionResp = resp
	case TypeIndication:
		if m.Indication, err = readVarintIndication(r); err != nil {
			return nil, err
		}
	case TypeIndicationBatch:
		n, err := r.uv()
		if err != nil {
			return nil, err
		}
		if n > MaxBatchIndications {
			return nil, fmt.Errorf("%w: batch of %d indications exceeds limit", ErrMalformed, n)
		}
		batch := &IndicationBatch{}
		for i := uint64(0); i < n; i++ {
			ind, err := readVarintIndication(r)
			if err != nil {
				return nil, err
			}
			batch.Indications = append(batch.Indications, *ind)
		}
		m.Batch = batch
	case TypeControlRequest:
		c := &ControlRequest{}
		a, err := r.uv()
		if err != nil {
			return nil, err
		}
		c.Action = ControlAction(a)
		if c.SliceID, err = uvU32(); err != nil {
			return nil, err
		}
		if c.UEID, err = uvU32(); err != nil {
			return nil, err
		}
		if c.Value, err = r.f64(); err != nil {
			return nil, err
		}
		if c.Text, err = r.str(); err != nil {
			return nil, err
		}
		blobLen, err := r.uv()
		if err != nil {
			return nil, err
		}
		if uint64(len(r.b)-r.pos) < blobLen {
			return nil, ErrMalformed
		}
		if blobLen > 0 {
			c.Blob = make([]byte, blobLen)
			copy(c.Blob, r.b[r.pos:])
			r.pos += int(blobLen)
		}
		m.Control = c
	case TypeControlAck:
		ack := &ControlAck{}
		ok, err := r.uv()
		if err != nil {
			return nil, err
		}
		ack.Accepted = ok != 0
		if ack.Reason, err = r.str(); err != nil {
			return nil, err
		}
		m.ControlAck = ack
	case TypeError:
		e := &ErrorBody{}
		if e.Reason, err = r.str(); err != nil {
			return nil, err
		}
		m.Error = e
	case TypeBusy:
		busy := &BusyBody{}
		if busy.RetryAfterMs, err = uvU32(); err != nil {
			return nil, err
		}
		if busy.Reason, err = r.str(); err != nil {
			return nil, err
		}
		m.Busy = busy
	case TypeHeartbeat:
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
	switch len(r.b) - r.pos {
	case 0: // untraced frame
	case traceTrailerLen:
		tc, ok := parseTraceTrailer(r.b[r.pos:])
		if !ok {
			return nil, fmt.Errorf("%w: trailing bytes", ErrMalformed)
		}
		m.Trace = tc
	default:
		return nil, fmt.Errorf("%w: trailing bytes", ErrMalformed)
	}
	return m, nil
}

// writeVarintIndication appends one indication body in the varint layout.
func writeVarintIndication(w *vwriter, ind *Indication) {
	w.uv(ind.Slot)
	w.uv(uint64(ind.Cell))
	w.uv(uint64(len(ind.UEs)))
	for _, u := range ind.UEs {
		w.uv(uint64(u.UEID))
		w.uv(uint64(u.SliceID))
		w.uv(uint64(uint32(u.MCS)))
		w.uv(uint64(u.BufferBytes))
		w.f64(u.TputBps)
	}
	w.uv(uint64(len(ind.Slices)))
	for _, s := range ind.Slices {
		w.uv(uint64(s.SliceID))
		w.f64(s.TargetBps)
		w.f64(s.ServedBps)
		w.uv(uint64(s.UsedPRBs))
	}
}

// readVarintIndication parses one indication body in the varint layout.
func readVarintIndication(r *vreader) (*Indication, error) {
	uvU32 := func() (uint32, error) {
		v, err := r.uv()
		return uint32(v), err
	}
	ind := &Indication{}
	var err error
	if ind.Slot, err = r.uv(); err != nil {
		return nil, err
	}
	if ind.Cell, err = uvU32(); err != nil {
		return nil, err
	}
	nUE, err := r.uv()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nUE; i++ {
		var u UEMeasurement
		if u.UEID, err = uvU32(); err != nil {
			return nil, err
		}
		if u.SliceID, err = uvU32(); err != nil {
			return nil, err
		}
		mcs, err := uvU32()
		if err != nil {
			return nil, err
		}
		u.MCS = int32(mcs)
		if u.BufferBytes, err = uvU32(); err != nil {
			return nil, err
		}
		if u.TputBps, err = r.f64(); err != nil {
			return nil, err
		}
		ind.UEs = append(ind.UEs, u)
	}
	nSl, err := r.uv()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nSl; i++ {
		var s SliceMeasurement
		if s.SliceID, err = uvU32(); err != nil {
			return nil, err
		}
		if s.TargetBps, err = r.f64(); err != nil {
			return nil, err
		}
		if s.ServedBps, err = r.f64(); err != nil {
			return nil, err
		}
		if s.UsedPRBs, err = uvU32(); err != nil {
			return nil, err
		}
		ind.Slices = append(ind.Slices, s)
	}
	return ind, nil
}

// CodecByName looks up a codec by its Name.
func CodecByName(name string) (Codec, bool) {
	switch name {
	case "binary":
		return BinaryCodec{}, true
	case "json":
		return JSONCodec{}, true
	case "varint":
		return VarintCodec{}, true
	default:
		return nil, false
	}
}
