// PUP wire codec for Message envelopes — the serialization half of
// LinkTransport. An envelope is the unit that crosses a process
// boundary: the destination PE plus every message the link coalesced
// for it (link.go: whatever was sent to that PE while the link's
// writer was busy).
//
// Wire layout (little-endian, fixed-width — no varints, so float64
// timestamps cross bit-exactly):
//
//	u32 dstPE
//	u32 count
//	count × { u64 To, u64 From, i64 Tag, i64 Hops, u64 Seq,
//	          f64 SendTime, f64 Arrival, f64 VTime,
//	          u32 dataLen, dataLen bytes }
//
// Decoding is hardened against hostile input in the style of
// internal/pup: every length prefix is validated against the bytes
// actually remaining before any allocation — a forged count or
// dataLen fails cleanly instead of allocating gigabytes. The fuzz
// target in wire_test.go drives arbitrary byte strings through
// DecodeEnvelope and round-trips whatever decodes.
package comm

import (
	"encoding/binary"
	"fmt"
	"math"

	"migflow/internal/pup"
)

// msgWireMin is the minimum encoded size of one Message: eight
// fixed 8-byte fields plus the 4-byte data length prefix.
const msgWireMin = 8*8 + 4

// envWireMin is the minimum encoded size of an envelope header.
const envWireMin = 4 + 4

// pupMessage visits every wire field of m.
func pupMessage(p *pup.PUPer, m *Message) error {
	to, from := uint64(m.To), uint64(m.From)
	tag, hops := int64(m.Tag), int64(m.Hops)
	if err := p.Uint64(&to); err != nil {
		return err
	}
	if err := p.Uint64(&from); err != nil {
		return err
	}
	if err := p.Int64(&tag); err != nil {
		return err
	}
	if err := p.Int64(&hops); err != nil {
		return err
	}
	if err := p.Uint64(&m.Seq); err != nil {
		return err
	}
	if err := p.Float64(&m.SendTime); err != nil {
		return err
	}
	if err := p.Float64(&m.Arrival); err != nil {
		return err
	}
	if err := p.Float64(&m.VTime); err != nil {
		return err
	}
	if err := p.Bytes(&m.Data); err != nil {
		return err
	}
	if p.IsUnpacking() {
		m.To, m.From = EntityID(to), EntityID(from)
		m.Tag, m.Hops = int(tag), int(hops)
	}
	return nil
}

// EncodeEnvelope packs an envelope of payloads bound for PE pe.
func EncodeEnvelope(pe int, msgs []*Message) ([]byte, error) {
	p := pup.NewGrowPacker()
	dst, count := uint32(pe), uint32(len(msgs))
	if err := p.Uint32(&dst); err != nil {
		return nil, err
	}
	if err := p.Uint32(&count); err != nil {
		return nil, err
	}
	for _, m := range msgs {
		if err := pupMessage(p, m); err != nil {
			return nil, err
		}
	}
	return p.PackedBytes(), nil
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// appendMessage appends m's wire image onto dst — an envelope is its
// header and then this, once per message, byte-for-byte the output of
// EncodeEnvelope (wire_append_test.go asserts the equivalence), and
// allocation-free when dst has the capacity. This is the hot-path
// encoder behind LinkTransport.Deliver; EncodeEnvelope stays as the
// reference implementation and the convenience entry point.
func appendMessage(dst []byte, m *Message) []byte {
	dst = appendU64(dst, uint64(m.To))
	dst = appendU64(dst, uint64(m.From))
	dst = appendU64(dst, uint64(int64(m.Tag)))
	dst = appendU64(dst, uint64(int64(m.Hops)))
	dst = appendU64(dst, m.Seq)
	dst = appendU64(dst, math.Float64bits(m.SendTime))
	dst = appendU64(dst, math.Float64bits(m.Arrival))
	dst = appendU64(dst, math.Float64bits(m.VTime))
	dst = appendU32(dst, uint32(len(m.Data)))
	return append(dst, m.Data...)
}

// DecodeEnvelope unpacks one envelope into pooled messages, which the
// receiver frees like any other (pool.go). The claimed message count
// is validated against the remaining bytes (each message needs at
// least msgWireMin) before anything is sized, and a first pass checks
// every payload's length prefix against the bytes left for it, so a
// hostile or truncated image errors without amplification and before
// a message leaves the pool. Trailing garbage after the last message
// is an error too — an envelope is exactly its contents.
//
// Allocation: one pointer slice per envelope, plus one shared arena
// when some payload is longer than InlineBytes — shorter ones are
// copied into their messages. Holding one decoded message's long
// payload alive keeps its envelope-mates' long payloads reachable too;
// receivers that retain payloads long-term should copy.
func DecodeEnvelope(data []byte) (pe int, msgs []*Message, err error) {
	if len(data) < envWireMin {
		return 0, nil, fmt.Errorf("comm: envelope truncated: %d bytes", len(data))
	}
	dst := binary.LittleEndian.Uint32(data)
	count := int(binary.LittleEndian.Uint32(data[4:]))
	rest := data[envWireMin:]
	if int64(count)*msgWireMin > int64(len(rest)) {
		return 0, nil, fmt.Errorf("comm: corrupt envelope: claims %d messages with %d bytes remaining", count, len(rest))
	}
	off, long := 0, 0
	for i := 0; i < count; i++ {
		n := int(binary.LittleEndian.Uint32(rest[off+msgWireMin-4:]))
		off += msgWireMin
		// Remaining fixed fields bound the payload room left: a forged
		// length that would eat another message's fields fails here.
		if n > len(rest)-off-(count-1-i)*msgWireMin {
			return 0, nil, fmt.Errorf("comm: corrupt envelope message %d: data length %d", i, n)
		}
		if n > InlineBytes {
			long += n
		}
		off += n
	}
	if off != len(rest) {
		return 0, nil, fmt.Errorf("comm: envelope carries %d trailing bytes", len(rest)-off)
	}
	msgs = make([]*Message, count)
	var arena []byte
	if long > 0 {
		arena = make([]byte, long)
	}
	off, ao := 0, 0
	for i := range msgs {
		m := NewMessage()
		f := rest[off:]
		m.To = EntityID(binary.LittleEndian.Uint64(f))
		m.From = EntityID(binary.LittleEndian.Uint64(f[8:]))
		m.Tag = int(int64(binary.LittleEndian.Uint64(f[16:])))
		m.Hops = int(int64(binary.LittleEndian.Uint64(f[24:])))
		m.Seq = binary.LittleEndian.Uint64(f[32:])
		m.SendTime = math.Float64frombits(binary.LittleEndian.Uint64(f[40:]))
		m.Arrival = math.Float64frombits(binary.LittleEndian.Uint64(f[48:]))
		m.VTime = math.Float64frombits(binary.LittleEndian.Uint64(f[56:]))
		n := int(binary.LittleEndian.Uint32(f[64:]))
		off += msgWireMin
		payload := rest[off : off+n]
		if n > InlineBytes {
			payload = arena[ao : ao+n : ao+n]
			copy(payload, rest[off:])
			ao += n
		}
		m.SetData(payload)
		off += n
		msgs[i] = m
	}
	return int(dst), msgs, nil
}
