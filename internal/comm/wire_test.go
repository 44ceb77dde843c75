package comm

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func randMsg(rng *rand.Rand) *Message {
	data := make([]byte, rng.Intn(64))
	rng.Read(data)
	return &Message{
		To:       EntityID(rng.Uint64()),
		From:     EntityID(rng.Uint64()),
		Tag:      rng.Intn(1<<16) - (1 << 15),
		Hops:     rng.Intn(4),
		Seq:      rng.Uint64() >> uint(rng.Intn(64)),
		SendTime: rng.NormFloat64() * 1e9,
		Arrival:  rng.NormFloat64() * 1e9,
		VTime:    rng.NormFloat64() * 1e9,
		Data:     data,
	}
}

func msgEqual(a, b *Message) bool {
	return a.To == b.To && a.From == b.From && a.Tag == b.Tag && a.Hops == b.Hops && a.Seq == b.Seq &&
		math.Float64bits(a.SendTime) == math.Float64bits(b.SendTime) &&
		math.Float64bits(a.Arrival) == math.Float64bits(b.Arrival) &&
		math.Float64bits(a.VTime) == math.Float64bits(b.VTime) &&
		bytes.Equal(a.Data, b.Data)
}

func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		pe := rng.Intn(1 << 20)
		in := make([]*Message, rng.Intn(20))
		for i := range in {
			in[i] = randMsg(rng)
		}
		enc, err := EncodeEnvelope(pe, in)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		gotPE, out, err := DecodeEnvelope(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if gotPE != pe || len(out) != len(in) {
			t.Fatalf("round trip: pe %d→%d, count %d→%d", pe, gotPE, len(in), len(out))
		}
		for i := range in {
			if !msgEqual(in[i], out[i]) {
				t.Fatalf("trial %d message %d differs: %+v vs %+v", trial, i, in[i], out[i])
			}
		}
	}
}

// TestWireHostile feeds forged images through the decoder: every
// length prefix must be validated against the bytes remaining before
// allocation, so each case errors cleanly.
func TestWireHostile(t *testing.T) {
	good, err := EncodeEnvelope(3, []*Message{{To: 7, From: 1, Tag: 2, Data: []byte("abcdefgh")}})
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)-3],
		"header":    good[:6],
	}
	// Forge a huge message count with no bytes behind it.
	forged := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(forged[4:], 1<<30)
	cases["forged count"] = forged
	// Forge a huge payload length inside the first message.
	forged2 := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(forged2[8+8*8:], 1<<31)
	cases["forged data len"] = forged2
	// Trailing garbage after a valid envelope.
	cases["trailing"] = append(append([]byte(nil), good...), 0xde, 0xad)

	for name, img := range cases {
		if _, _, err := DecodeEnvelope(img); err == nil {
			t.Errorf("%s: decoder accepted hostile image (%d bytes)", name, len(img))
		}
	}
}

// FuzzWireEnvelope: arbitrary bytes must never crash or over-allocate
// the decoder, and anything that decodes must re-encode to an image
// that decodes identically.
func FuzzWireEnvelope(f *testing.F) {
	seed, _ := EncodeEnvelope(1, []*Message{
		{To: 5, From: 6, Tag: -1, Hops: 2, SendTime: 1.5, Arrival: 2.5, VTime: 3.5, Data: []byte("hi")},
	})
	f.Add(seed)
	empty, _ := EncodeEnvelope(0, nil)
	f.Add(empty)
	f.Add([]byte{1, 0, 0, 0, 255, 255, 255, 255})
	// Payloads on both sides of InlineBytes, alone and in one envelope.
	var mixed []*Message
	for _, n := range []int{0, InlineBytes, InlineBytes + 1, 4096} {
		m := &Message{To: 7, From: 3, Tag: n, Hops: 1, SendTime: 4, Arrival: 5, VTime: 6, Seq: 9, Data: bytes.Repeat([]byte{0xa5}, n)}
		one, _ := EncodeEnvelope(2, []*Message{m})
		f.Add(one)
		mixed = append(mixed, m)
	}
	all, _ := EncodeEnvelope(2, mixed)
	f.Add(all)
	f.Fuzz(func(t *testing.T, data []byte) {
		pe, msgs, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		enc, err := EncodeEnvelope(pe, msgs)
		if err != nil {
			t.Fatalf("re-encode of decoded envelope failed: %v", err)
		}
		pe2, msgs2, err := DecodeEnvelope(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if pe2 != pe || len(msgs2) != len(msgs) {
			t.Fatalf("round trip changed envelope: pe %d→%d count %d→%d", pe, pe2, len(msgs), len(msgs2))
		}
		for i := range msgs {
			if !msgEqual(msgs[i], msgs2[i]) {
				t.Fatalf("round trip changed message %d", i)
			}
		}
	})
}
