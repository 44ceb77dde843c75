// Package pup is a Go rendition of the Charm++ PUP (Pack/UnPack)
// framework (§3.1.1): one traversal method per type drives three
// operations — sizing, packing and unpacking — so migratable objects
// describe their state once and get byte-exact serialization for
// migration and checkpointing.
//
// All integers are encoded little-endian and fixed-width; variable
// collections are length-prefixed with a uint32. The same Pup method
// must visit the same fields in the same order in every mode; Seek-
// style skipping is deliberately absent to keep encodings canonical.
//
// Packing is single-pass: a packer grows its buffer on demand, so no
// separate sizing traversal is needed (NewSizer remains for callers
// that want a byte count without producing bytes). The migration hot
// path recycles packers through a sync.Pool via AcquirePacker/Release
// so steady-state packing allocates nothing, and unpacks a packer's
// own bytes in place (ReadBack) so the round trip allocates nothing
// either.
//
// Unpacking is hardened against corrupt or hostile images: every
// length prefix is validated against the bytes actually remaining
// before any allocation, so a flipped length byte cannot force a
// multi-gigabyte make().
package pup

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Mode selects what a PUPer traversal does.
type Mode int

// Traversal modes.
const (
	// Sizing counts the bytes a Packing traversal would produce.
	Sizing Mode = iota
	// Packing writes fields into the buffer.
	Packing
	// Unpacking reads fields back out of the buffer.
	Unpacking
)

func (m Mode) String() string {
	switch m {
	case Sizing:
		return "sizing"
	case Packing:
		return "packing"
	case Unpacking:
		return "unpacking"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Pupable is implemented by any type that can migrate: its Pup method
// visits every field through p.
type Pupable interface {
	Pup(p *PUPer) error
}

// PUPer carries one traversal. Create with NewSizer, NewPacker,
// NewUnpacker or AcquirePacker; or use the Size/Pack/Unpack helpers.
type PUPer struct {
	mode    Mode
	buf     []byte
	off     int
	size    int
	grow    bool // Packing only: buffer grows on demand (single-pass)
	inPlace bool // Unpacking after ReadBack: decode into views and reused slices
}

// NewSizer returns a sizing PUPer.
func NewSizer() *PUPer { return &PUPer{mode: Sizing} }

// NewPacker returns a packing PUPer writing into a buffer of exactly
// size bytes; overrunning it is an error (for callers that pre-sized
// with NewSizer and want the consistency check).
func NewPacker(size int) *PUPer { return &PUPer{mode: Packing, buf: make([]byte, size)} }

// NewGrowPacker returns a single-pass packing PUPer whose buffer
// grows as fields are written.
func NewGrowPacker() *PUPer { return &PUPer{mode: Packing, grow: true} }

// NewUnpacker returns an unpacking PUPer reading from data.
func NewUnpacker(data []byte) *PUPer { return &PUPer{mode: Unpacking, buf: data} }

// packerPool recycles growable packers (and, more importantly, their
// buffers) for the migration hot path.
var packerPool = sync.Pool{New: func() any { return &PUPer{} }}

// AcquirePacker returns a pooled single-pass packer. PackedBytes (and
// any slice derived from it) is valid only until Release; callers
// that need the bytes to outlive the packer must copy them.
func AcquirePacker() *PUPer {
	p := packerPool.Get().(*PUPer)
	p.mode = Packing
	p.grow = true
	p.inPlace = false
	p.off = 0
	p.size = 0
	p.buf = p.buf[:cap(p.buf)]
	return p
}

// Release returns a packer obtained from AcquirePacker to the pool,
// retaining its buffer for the next acquisition.
func (p *PUPer) Release() {
	packerPool.Put(p)
}

// Reset rewinds a packing PUPer so it can serialize another object
// into the same buffer (bulk checkpointing packs thousands of
// elements through one packer). A PUPer switched to ReadBack packs
// again after Reset.
func (p *PUPer) Reset() {
	if p.inPlace {
		p.mode, p.inPlace = Packing, false
		p.buf = p.buf[:cap(p.buf)]
	}
	p.off = 0
	p.size = 0
}

// ReadBack switches a packing PUPer to unpack the bytes it has packed
// so far, in place: the wire round trip of a migration without a
// second buffer or a second PUPer. An in-place traversal decodes a
// byte slice (Bytes) as a view of the packer's buffer instead of a
// copy, and refills the slices of the value it decodes into when they
// have room (Resize). So the decoded value allocates nothing, and its
// byte slices live only until the next Reset or Release.
func (p *PUPer) ReadBack() {
	p.mode, p.inPlace = Unpacking, true
	p.buf = p.buf[:p.off]
	p.off = 0
}

// Resize returns s with length n for an unpacking traversal to fill.
// An in-place traversal (ReadBack) reuses s's array when it has room;
// any other gets a fresh one, so a decoded value never shares an array
// with the value it replaced. Callers validate n against Remaining
// first.
func Resize[T any](p *PUPer, s []T, n int) []T {
	if p.inPlace && cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// IsSizing reports whether the traversal is only measuring.
func (p *PUPer) IsSizing() bool { return p.mode == Sizing }

// IsPacking reports whether the traversal is serializing.
func (p *PUPer) IsPacking() bool { return p.mode == Packing }

// IsUnpacking reports whether the traversal is deserializing — used
// by Pup methods that must allocate before filling ("if
// p.IsUnpacking() { t.data = make(...) }").
func (p *PUPer) IsUnpacking() bool { return p.mode == Unpacking }

// Size returns the byte count accumulated by a sizing traversal.
func (p *PUPer) Size() int { return p.size }

// Buffer returns the packed bytes after a packing traversal.
func (p *PUPer) Buffer() []byte { return p.buf[:p.off] }

// PackedBytes returns the bytes written so far by a packing
// traversal. For pooled packers the slice aliases the pooled buffer
// and dies at Release.
func (p *PUPer) PackedBytes() []byte { return p.buf[:p.off] }

// Remaining returns unread bytes during unpacking.
func (p *PUPer) Remaining() int { return len(p.buf) - p.off }

func (p *PUPer) area(n int) ([]byte, error) {
	switch p.mode {
	case Sizing:
		p.size += n
		return nil, nil
	case Packing:
		if p.off+n > len(p.buf) {
			if !p.grow {
				return nil, fmt.Errorf("pup: pack overflow: need %d bytes at offset %d of %d", n, p.off, len(p.buf))
			}
			p.growTo(p.off + n)
		}
	case Unpacking:
		if p.off+n > len(p.buf) {
			return nil, fmt.Errorf("pup: unpack underflow: need %d bytes at offset %d of %d", n, p.off, len(p.buf))
		}
	}
	a := p.buf[p.off : p.off+n]
	p.off += n
	return a, nil
}

// growTo extends the buffer to at least need bytes, doubling to
// amortize (pooled packers therefore converge on the job's largest
// image and stop allocating).
func (p *PUPer) growTo(need int) {
	newCap := 2 * len(p.buf)
	if newCap < need {
		newCap = need
	}
	if newCap < 256 {
		newCap = 256
	}
	nb := make([]byte, newCap)
	copy(nb, p.buf[:p.off])
	p.buf = nb
}

// checkLen validates a claimed element count against the bytes left
// in the buffer before any allocation happens. elemSize is the
// minimum wire size of one element.
func (p *PUPer) checkLen(n uint32, elemSize int, what string) error {
	if int64(n)*int64(elemSize) > int64(p.Remaining()) {
		return fmt.Errorf("pup: corrupt image: %s claims %d elements (%d bytes each) with %d bytes remaining",
			what, n, elemSize, p.Remaining())
	}
	return nil
}

// Uint64 visits a fixed-width 64-bit unsigned field.
func (p *PUPer) Uint64(v *uint64) error {
	a, err := p.area(8)
	if err != nil || a == nil {
		return err
	}
	if p.mode == Packing {
		binary.LittleEndian.PutUint64(a, *v)
	} else {
		*v = binary.LittleEndian.Uint64(a)
	}
	return nil
}

// Uint32 visits a 32-bit unsigned field.
func (p *PUPer) Uint32(v *uint32) error {
	a, err := p.area(4)
	if err != nil || a == nil {
		return err
	}
	if p.mode == Packing {
		binary.LittleEndian.PutUint32(a, *v)
	} else {
		*v = binary.LittleEndian.Uint32(a)
	}
	return nil
}

// Int visits an int as a 64-bit two's-complement value.
func (p *PUPer) Int(v *int) error {
	u := uint64(int64(*v))
	if err := p.Uint64(&u); err != nil {
		return err
	}
	if p.mode == Unpacking {
		*v = int(int64(u))
	}
	return nil
}

// Int64 visits an int64.
func (p *PUPer) Int64(v *int64) error {
	u := uint64(*v)
	if err := p.Uint64(&u); err != nil {
		return err
	}
	if p.mode == Unpacking {
		*v = int64(u)
	}
	return nil
}

// Float64 visits a float64 (IEEE 754 bits).
func (p *PUPer) Float64(v *float64) error {
	u := math.Float64bits(*v)
	if err := p.Uint64(&u); err != nil {
		return err
	}
	if p.mode == Unpacking {
		*v = math.Float64frombits(u)
	}
	return nil
}

// Bool visits a bool as one byte, 0 or 1; unpacking refuses any other
// byte, so an image that unpacks always packs back to itself.
func (p *PUPer) Bool(v *bool) error {
	var b byte
	if *v {
		b = 1
	}
	if err := p.Byte(&b); err != nil {
		return err
	}
	if p.mode == Unpacking {
		if b > 1 {
			return fmt.Errorf("pup: corrupt image: bool byte %d", b)
		}
		*v = b == 1
	}
	return nil
}

// Byte visits a single byte.
func (p *PUPer) Byte(v *byte) error {
	a, err := p.area(1)
	if err != nil || a == nil {
		return err
	}
	if p.mode == Packing {
		a[0] = *v
	} else {
		*v = a[0]
	}
	return nil
}

// Bytes visits a variable-length byte slice (uint32 length prefix).
// Unpacking validates the prefix against the remaining buffer, then
// replaces *v with a fresh copy — or, in place (ReadBack), with a view
// of the buffer capped at its own length.
func (p *PUPer) Bytes(v *[]byte) error {
	n := uint32(len(*v))
	if err := p.Uint32(&n); err != nil {
		return err
	}
	if p.mode == Unpacking {
		if err := p.checkLen(n, 1, "[]byte"); err != nil {
			return err
		}
	}
	a, err := p.area(int(n))
	if err != nil || p.mode == Sizing {
		return err
	}
	switch {
	case p.mode == Packing:
		copy(a, *v)
	case p.inPlace:
		*v = a[:n:n]
	default:
		*v = make([]byte, n)
		copy(*v, a)
	}
	return nil
}

// String visits a string (uint32 length prefix). Unpacking keeps *v
// when it already holds the decoded text, so refilling a value in
// place (a migration image's strategy name) allocates nothing.
func (p *PUPer) String(v *string) error {
	n := uint32(len(*v))
	if err := p.Uint32(&n); err != nil {
		return err
	}
	if p.mode == Unpacking {
		if err := p.checkLen(n, 1, "string"); err != nil {
			return err
		}
	}
	a, err := p.area(int(n))
	if err != nil || p.mode == Sizing {
		return err
	}
	if p.mode == Packing {
		copy(a, *v)
	} else if string(a) != *v {
		*v = string(a)
	}
	return nil
}

// Uint64s visits a variable-length []uint64 as one bulk area instead
// of per-element calls.
func (p *PUPer) Uint64s(v *[]uint64) error {
	n := uint32(len(*v))
	if err := p.Uint32(&n); err != nil {
		return err
	}
	if p.mode == Unpacking {
		if err := p.checkLen(n, 8, "[]uint64"); err != nil {
			return err
		}
		*v = Resize(p, *v, int(n))
	}
	a, err := p.area(int(n) * 8)
	if err != nil || a == nil {
		return err
	}
	if p.mode == Packing {
		for i, x := range *v {
			binary.LittleEndian.PutUint64(a[i*8:], x)
		}
	} else {
		for i := range *v {
			(*v)[i] = binary.LittleEndian.Uint64(a[i*8:])
		}
	}
	return nil
}

// Size measures obj's packed size.
func Size(obj Pupable) (int, error) {
	p := NewSizer()
	if err := obj.Pup(p); err != nil {
		return 0, err
	}
	return p.Size(), nil
}

// Pack serializes obj in a single traversal through a pooled
// growable buffer (no sizing pass) and returns an exact-size copy.
// Hot paths that consume the bytes before the next pack should use
// AcquirePacker directly and skip the copy.
func Pack(obj Pupable) ([]byte, error) {
	p := AcquirePacker()
	defer p.Release()
	if err := obj.Pup(p); err != nil {
		return nil, err
	}
	out := make([]byte, p.off)
	copy(out, p.buf[:p.off])
	return out, nil
}

// Unpack deserializes data into obj and requires the whole buffer to
// be consumed.
func Unpack(data []byte, obj Pupable) error {
	p := NewUnpacker(data)
	if err := obj.Pup(p); err != nil {
		return err
	}
	if p.Remaining() != 0 {
		return fmt.Errorf("pup: %d bytes left after unpacking — traversal is mode-dependent", p.Remaining())
	}
	return nil
}
