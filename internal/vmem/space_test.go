package vmem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddrGeometry(t *testing.T) {
	a := Addr(0x12345)
	if got := a.PageNum(); got != 0x12 {
		t.Errorf("PageNum = %#x, want 0x12", got)
	}
	if got := a.Offset(); got != 0x345 {
		t.Errorf("Offset = %#x, want 0x345", got)
	}
	if got := a.AlignDown(); got != 0x12000 {
		t.Errorf("AlignDown = %s, want 0x12000", got)
	}
}

func TestMapReadWrite(t *testing.T) {
	s := NewSpace(0)
	base := Addr(0x10000)
	if err := s.Map(base, 4*PageSize, ProtRW); err != nil {
		t.Fatalf("Map: %v", err)
	}
	// Write across a page boundary.
	data := []byte("hello, migratable world")
	at := base.Add(PageSize - 5)
	if err := s.Write(at, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(data))
	if err := s.Read(at, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("round trip = %q, want %q", got, data)
	}
	// Fresh pages are zeroed.
	z := make([]byte, 16)
	if err := s.Read(base, z); err != nil {
		t.Fatalf("Read zeroed: %v", err)
	}
	for _, b := range z {
		if b != 0 {
			t.Fatalf("fresh page not zeroed: % x", z)
		}
	}
}

func TestUnmappedFault(t *testing.T) {
	s := NewSpace(0)
	err := s.Read(Addr(0x5000), make([]byte, 1))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("Read unmapped: err = %v, want Fault", err)
	}
	if f.Op != OpRead || f.Addr != 0x5000 {
		t.Errorf("fault = %+v, want read at 0x5000", f)
	}
	if err := s.Write(Addr(0x5000), []byte{1}); !errors.As(err, &f) {
		t.Errorf("Write unmapped: err = %v, want Fault", err)
	}
}

func TestReadCrossingIntoUnmappedFaults(t *testing.T) {
	s := NewSpace(0)
	if err := s.Map(0x1000, PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	// Starts mapped, runs off the end.
	err := s.Read(Addr(0x1000+PageSize-2), make([]byte, 8))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want Fault", err)
	}
	if f.Addr != Addr(0x2000) {
		t.Errorf("fault addr = %s, want 0x2000", f.Addr)
	}
}

func TestProtection(t *testing.T) {
	s := NewSpace(0)
	if err := s.Map(0x1000, PageSize, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := s.Read(0x1000, make([]byte, 4)); err != nil {
		t.Errorf("read of readable page failed: %v", err)
	}
	var f *Fault
	if err := s.Write(0x1000, []byte{1}); !errors.As(err, &f) || f.Reason != "protection" {
		t.Errorf("write to read-only page: err = %v, want protection fault", err)
	}
	if err := s.Protect(0x1000, PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(0x1000, []byte{1}); err != nil {
		t.Errorf("write after Protect(RW): %v", err)
	}
	if err := s.Protect(0x1000, PageSize, ProtNone); err != nil {
		t.Fatal(err)
	}
	if err := s.Read(0x1000, make([]byte, 1)); !errors.As(err, &f) {
		t.Errorf("read of PROT_NONE page: err = %v, want fault", err)
	}
}

func TestDoubleMapFails(t *testing.T) {
	s := NewSpace(0)
	if err := s.Map(0x1000, 2*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	var f *Fault
	if err := s.Map(0x2000, PageSize, ProtRW); !errors.As(err, &f) {
		t.Errorf("overlapping Map: err = %v, want Fault", err)
	}
}

func TestMapPageZeroFails(t *testing.T) {
	s := NewSpace(0)
	if err := s.Map(Nil, PageSize, ProtRW); err == nil {
		t.Error("mapping page zero should fail")
	}
}

func TestUnalignedArgs(t *testing.T) {
	s := NewSpace(0)
	if err := s.Map(0x1001, PageSize, ProtRW); err == nil {
		t.Error("unaligned Map should fail")
	}
	if err := s.Map(0x1000, PageSize+1, ProtRW); err == nil {
		t.Error("non-multiple length Map should fail")
	}
	if err := s.Map(0x1000, 0, ProtRW); err == nil {
		t.Error("zero-length Map should fail")
	}
}

func TestUnmapFreesAndZeroes(t *testing.T) {
	s := NewSpace(0)
	if err := s.Map(0x1000, PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(0x1000, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	if err := s.Unmap(0x1000, PageSize); err != nil {
		t.Fatal(err)
	}
	if s.MappedPages() != 0 {
		t.Errorf("MappedPages = %d after Unmap, want 0", s.MappedPages())
	}
	// Remapping yields a fresh zeroed page, not the old contents.
	if err := s.Map(0x1000, PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if err := s.Read(0x1000, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 {
		t.Errorf("remapped page byte = %#x, want 0", b[0])
	}
}

func TestUnmapUnmappedFails(t *testing.T) {
	s := NewSpace(0)
	var f *Fault
	if err := s.Unmap(0x1000, PageSize); !errors.As(err, &f) {
		t.Errorf("Unmap of unmapped: err = %v, want Fault", err)
	}
}

func TestAliasingSharesFrames(t *testing.T) {
	a := NewSpace(0)
	b := NewSpace(0)
	if err := a.Map(0x1000, 2*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	frames, err := a.Frames(0x1000, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("len(frames) = %d, want 2", len(frames))
	}
	// Alias the same frames into space b at a different address.
	if err := b.MapFrames(0x90000, frames, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(0x1234, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if err := b.Read(0x90234, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "shared" {
		t.Errorf("aliased read = %q, want \"shared\"", got)
	}
	// Refcount: each frame mapped twice.
	if frames[0].Refs() != 2 {
		t.Errorf("frame refs = %d, want 2", frames[0].Refs())
	}
	// Unmapping one alias keeps data alive through the other.
	if err := a.Unmap(0x1000, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if frames[0].Refs() != 1 {
		t.Errorf("frame refs after one unmap = %d, want 1", frames[0].Refs())
	}
	if err := b.Read(0x90234, got); err != nil || string(got) != "shared" {
		t.Errorf("after partner unmap, read = %q/%v, want shared", got, err)
	}
}

func TestReserveAccounting(t *testing.T) {
	limit := uint64(16 * PageSize)
	s := NewSpace(limit)
	if err := s.Reserve(0x10000, 8*PageSize); err != nil {
		t.Fatal(err)
	}
	if got := s.VirtualInUse(); got != 8*PageSize {
		t.Errorf("VirtualInUse = %d, want %d", got, 8*PageSize)
	}
	// Mapping inside a reservation does not double-count.
	if err := s.Map(0x10000, 2*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if got := s.VirtualInUse(); got != 8*PageSize {
		t.Errorf("VirtualInUse after map-inside = %d, want %d", got, 8*PageSize)
	}
	// Mapping outside counts.
	if err := s.Map(0x100000, 2*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if got := s.VirtualInUse(); got != 10*PageSize {
		t.Errorf("VirtualInUse after map-outside = %d, want %d", got, 10*PageSize)
	}
}

func TestExhaustion(t *testing.T) {
	s := NewSpace(4 * PageSize)
	if err := s.Reserve(0x10000, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	var ex *ErrExhausted
	if err := s.Reserve(0x100000, PageSize); !errors.As(err, &ex) {
		t.Fatalf("over-limit Reserve: err = %v, want ErrExhausted", err)
	}
	if err := s.Map(0x100000, PageSize, ProtRW); !errors.As(err, &ex) {
		t.Fatalf("over-limit Map: err = %v, want ErrExhausted", err)
	}
	// Inside the reservation still works: no extra virtual space.
	if err := s.Map(0x10000, PageSize, ProtRW); err != nil {
		t.Errorf("Map inside reservation should not exhaust: %v", err)
	}
}

func TestReserveOverlapFails(t *testing.T) {
	s := NewSpace(0)
	if err := s.Reserve(0x10000, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Reserve(0x12000, 4*PageSize); err == nil {
		t.Error("overlapping Reserve should fail")
	}
}

func TestTypedAccessors(t *testing.T) {
	s := NewSpace(0)
	if err := s.Map(0x1000, PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteUint64(0x1008, 0xdeadbeefcafe); err != nil {
		t.Fatal(err)
	}
	if v, err := s.ReadUint64(0x1008); err != nil || v != 0xdeadbeefcafe {
		t.Errorf("ReadUint64 = %#x/%v", v, err)
	}
	if err := s.WriteAddr(0x1030, 0xABCD000); err != nil {
		t.Fatal(err)
	}
	if v, err := s.ReadAddr(0x1030); err != nil || v != 0xABCD000 {
		t.Errorf("ReadAddr = %s/%v", v, err)
	}
}

// Property: any sequence of in-bounds writes followed by reads behaves
// like a flat byte array.
func TestQuickReadWriteMatchesFlatArray(t *testing.T) {
	const regionPages = 8
	const regionSize = regionPages * PageSize
	base := Addr(0x40000)
	f := func(seed int64, nops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace(0)
		if err := s.Map(base, regionSize, ProtRW); err != nil {
			return false
		}
		ref := make([]byte, regionSize)
		for i := 0; i < int(nops)+1; i++ {
			off := rng.Intn(regionSize - 1)
			n := rng.Intn(regionSize-off) + 1
			if n > 3*PageSize {
				n = 3 * PageSize
			}
			buf := make([]byte, n)
			rng.Read(buf)
			if err := s.Write(base.Add(uint64(off)), buf); err != nil {
				return false
			}
			copy(ref[off:], buf)
		}
		got, err := s.CopyOut(base, regionSize)
		if err != nil {
			return false
		}
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRangeHelpers(t *testing.T) {
	r := Range{0x1000, 0x1000}
	if !r.Contains(0x1000) || !r.Contains(0x1fff) || r.Contains(0x2000) {
		t.Error("Contains wrong at boundaries")
	}
	if !r.Overlaps(Range{0x1fff, 1}) || r.Overlaps(Range{0x2000, 1}) {
		t.Error("Overlaps wrong at boundaries")
	}
}

func TestFaultAndErrorStrings(t *testing.T) {
	f := &Fault{Op: OpWrite, Addr: 0x1234, Reason: "unmapped"}
	if f.Error() == "" {
		t.Error("empty fault string")
	}
	e := &ErrExhausted{Limit: 100, Requested: 50, InUse: 80}
	if e.Error() == "" {
		t.Error("empty exhaustion string")
	}
	for _, op := range []AccessOp{OpRead, OpWrite, OpMap, OpUnmap, AccessOp(99)} {
		if op.String() == "" {
			t.Error("empty op string")
		}
	}
	for _, p := range []Prot{ProtNone, ProtRead, ProtWrite, ProtRW, Prot(9)} {
		if p.String() == "" {
			t.Error("empty prot string")
		}
	}
}
