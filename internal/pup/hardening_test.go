package pup

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"
)

// hostile builds a buffer claiming n elements with only a few real
// bytes behind the prefix.
func hostile(n uint32, tail int) []byte {
	b := make([]byte, 4+tail)
	binary.LittleEndian.PutUint32(b, n)
	return b
}

// TestHostileLengthPrefixes: every length-prefixed visitor must
// reject a count that exceeds the remaining bytes BEFORE allocating.
// (Before the check, a flipped prefix byte meant a multi-GB make.)
func TestHostileLengthPrefixes(t *testing.T) {
	huge := uint32(0xFFFF_FFFF)
	t.Run("bytes", func(t *testing.T) {
		var v []byte
		if err := NewUnpacker(hostile(huge, 8)).Bytes(&v); err == nil {
			t.Error("hostile []byte length accepted")
		}
	})
	t.Run("string", func(t *testing.T) {
		var v string
		if err := NewUnpacker(hostile(huge, 8)).String(&v); err == nil {
			t.Error("hostile string length accepted")
		}
	})
	t.Run("uint64s", func(t *testing.T) {
		var v []uint64
		// 2^29 elements would "only" need a 4 GiB slice — the check
		// must fire on element count × width, not on count alone.
		if err := NewUnpacker(hostile(1<<29, 16)).Uint64s(&v); err == nil {
			t.Error("hostile []uint64 length accepted")
		}
	})
	t.Run("float64s", func(t *testing.T) {
		var v []float64
		if err := NewUnpacker(hostile(1<<29, 16)).Float64s(&v); err == nil {
			t.Error("hostile []float64 length accepted")
		}
	})
}

// TestPooledPackerReuse: acquire → pack → release → acquire again
// reuses the grown buffer, and Reset rewinds without shrinking.
func TestPooledPackerReuse(t *testing.T) {
	p := AcquirePacker()
	payload := bytes.Repeat([]byte{0x5A}, 10_000)
	if err := p.Bytes(&payload); err != nil {
		t.Fatal(err)
	}
	if len(p.PackedBytes()) != 4+len(payload) {
		t.Fatalf("packed %d bytes", len(p.PackedBytes()))
	}
	first := append([]byte(nil), p.PackedBytes()...)
	p.Reset()
	if len(p.PackedBytes()) != 0 {
		t.Fatal("Reset did not rewind")
	}
	if err := p.Bytes(&payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, p.PackedBytes()) {
		t.Fatal("re-pack after Reset diverges")
	}
	p.Release()

	q := AcquirePacker()
	defer q.Release()
	var v uint64 = 42
	if err := q.Uint64(&v); err != nil {
		t.Fatal(err)
	}
	if len(q.PackedBytes()) != 8 {
		t.Fatalf("reacquired packer has stale offset: %d bytes", len(q.PackedBytes()))
	}
}

// TestSinglePassPackMatchesSizer: the growable single-pass path
// produces exactly the bytes a pre-sized packer produces, and the
// sizer still agrees with both.
func TestSinglePassPackMatchesSizer(t *testing.T) {
	in := &particle{Name: "electron", Mass: 9.109e-31, Raw: []byte{1, 2, 3, 4, 5}}
	n, err := Size(in)
	if err != nil {
		t.Fatal(err)
	}
	presized := NewPacker(n)
	if err := in.Pup(presized); err != nil {
		t.Fatal(err)
	}
	single, err := Pack(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(presized.Buffer(), single) {
		t.Error("single-pass pack diverges from pre-sized pack")
	}
	if len(single) != n {
		t.Errorf("packed %d bytes, sizer said %d", len(single), n)
	}
}

// TestGrowPackerFromZero: a fresh growable packer starts with no
// buffer at all and must grow through every doubling.
func TestGrowPackerFromZero(t *testing.T) {
	p := NewGrowPacker()
	big := make([]byte, 100_000)
	for i := range big {
		big[i] = byte(i)
	}
	if err := p.Bytes(&big); err != nil {
		t.Fatal(err)
	}
	var out []byte
	if err := NewUnpacker(p.PackedBytes()).Bytes(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(big, out) {
		t.Error("grown pack round trip diverges")
	}
}

// FuzzUnpackParticle throws arbitrary bytes at a multi-field Pup
// traversal: it must error or succeed, never panic or over-allocate.
func FuzzUnpackParticle(f *testing.F) {
	good, err := Pack(&particle{Name: "p", Mass: 1.5, Raw: []byte{9, 8, 7}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add(hostile(0xFFFF_FFFF, 4))
	f.Add(good[:len(good)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		var out particle
		_ = Unpack(data, &out) // must not panic
	})
}

// readBackVal is a value a ReadBack traversal refills in place.
type readBackVal struct {
	Name  string
	Raw   []byte
	Words []uint64
}

func (v *readBackVal) Pup(p *PUPer) error {
	if err := p.String(&v.Name); err != nil {
		return err
	}
	if err := p.Bytes(&v.Raw); err != nil {
		return err
	}
	return p.Uint64s(&v.Words)
}

// TestReadBackInPlace: a packer unpacks its own bytes over the value it
// packed — byte slices become views of its buffer, other slices keep
// their arrays, a string that already holds the text is kept — and
// Reset makes it a packer again. A plain unpacker still copies.
func TestReadBackInPlace(t *testing.T) {
	v := readBackVal{Name: "isomalloc", Raw: []byte("stack page"), Words: []uint64{7, 8, 9}}
	name, words := v.Name, &v.Words[0]
	p := AcquirePacker()
	defer p.Release()
	if err := v.Pup(p); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), p.PackedBytes()...)
	p.ReadBack()
	if err := v.Pup(p); err != nil || p.Remaining() != 0 {
		t.Fatalf("in-place unpack: %v, %d bytes left", err, p.Remaining())
	}
	if v.Name != "isomalloc" || string(v.Raw) != "stack page" || len(v.Words) != 3 || v.Words[2] != 9 {
		t.Fatalf("in-place unpack decoded %+v", v)
	}
	if &v.Words[0] != words || unsafe.StringData(v.Name) != unsafe.StringData(name) {
		t.Error("in-place unpack replaced a slice or string it could refill")
	}
	if cap(v.Raw) != len(v.Raw) || &v.Raw[0] != &p.buf[4+4+len(name)] {
		t.Error("in-place []byte is not a capped view of the packer's buffer")
	}
	if n := testing.AllocsPerRun(10, func() {
		p.Reset()
		_ = v.Pup(p)
		p.ReadBack()
		_ = v.Pup(p)
	}); n != 0 {
		t.Errorf("pack and in-place unpack allocate %.0f objects", n)
	}
	p.Reset()
	if !p.IsPacking() || len(p.PackedBytes()) != 0 {
		t.Fatal("Reset after ReadBack does not pack again from the start")
	}
	var fresh readBackVal
	if err := Unpack(wire, &fresh); err != nil {
		t.Fatal(err)
	}
	wire[8+len(name)] ^= 0xFF
	if string(fresh.Raw) != "stack page" {
		t.Error("a plain unpacker's []byte aliases its input")
	}
}
