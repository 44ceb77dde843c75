package comm

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestAppendEnvelopeMatchesPup pins the hot-path encoder to the PUP
// reference: for random envelopes, the envelope header followed by
// appendMessage per message — what a link's open envelope holds — must
// be the exact bytes EncodeEnvelope produces, each message exactly
// msgWireMin plus its payload long: the zero-alloc path is an
// optimization, never a format.
func TestAppendEnvelopeMatchesPup(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		pe := rng.Intn(1 << 20)
		msgs := make([]*Message, rng.Intn(9))
		for i := range msgs {
			data := make([]byte, rng.Intn(300))
			rng.Read(data)
			msgs[i] = &Message{
				To:       EntityID(rng.Uint64()),
				From:     EntityID(rng.Uint64()),
				Tag:      rng.Intn(1<<30) - (1 << 29),
				Hops:     rng.Intn(100) - 50,
				Seq:      rng.Uint64(),
				SendTime: math.Float64frombits(rng.Uint64()),
				Arrival:  rng.NormFloat64() * 1e9,
				VTime:    rng.Float64() * 1e12,
				Data:     data,
			}
		}
		want, err := EncodeEnvelope(pe, msgs)
		if err != nil {
			t.Fatal(err)
		}
		got := appendU32(appendU32(nil, uint32(pe)), uint32(len(msgs)))
		for i, m := range msgs {
			before := len(got)
			if got = appendMessage(got, m); len(got)-before != msgWireMin+len(m.Data) {
				t.Fatalf("trial %d: message %d encoded to %d bytes, want %d", trial, i, len(got)-before, msgWireMin+len(m.Data))
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: appendMessage diverges from EncodeEnvelope\n got %x\nwant %x", trial, got, want)
		}
		// And it must decode back bit-for-bit.
		gotPE, back, err := DecodeEnvelope(got)
		if err != nil || gotPE != pe || len(back) != len(msgs) {
			t.Fatalf("trial %d: decode: pe %d/%d, %d msgs, err %v", trial, gotPE, pe, len(back), err)
		}
		for i, m := range back {
			o := msgs[i]
			if m.To != o.To || m.From != o.From || m.Tag != o.Tag || m.Hops != o.Hops || m.Seq != o.Seq ||
				math.Float64bits(m.SendTime) != math.Float64bits(o.SendTime) ||
				math.Float64bits(m.Arrival) != math.Float64bits(o.Arrival) ||
				math.Float64bits(m.VTime) != math.Float64bits(o.VTime) ||
				!bytes.Equal(m.Data, o.Data) {
				t.Fatalf("trial %d: message %d did not round-trip", trial, i)
			}
		}
	}
}
