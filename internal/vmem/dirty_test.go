package vmem

import (
	"bytes"
	"fmt"
	"testing"

	"migflow/internal/pup"
)

// TestDirtyBitLifecycle: pages come up clean, writes dirty exactly
// the touched pages, and recycled frames come back clean.
func TestDirtyBitLifecycle(t *testing.T) {
	s := NewSpace(0)
	base := Addr(0x10000)
	if err := s.Map(base, 4*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if n := s.DirtyPages(base, 4*PageSize); n != 0 {
		t.Fatalf("fresh mapping has %d dirty pages", n)
	}
	// Touch pages 0 and 2 (the write to page 2 straddles nothing).
	if err := s.WriteUint64(base, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteUint64(base.Add(2*PageSize+100), 2); err != nil {
		t.Fatal(err)
	}
	if n := s.DirtyPages(base, 4*PageSize); n != 2 {
		t.Fatalf("DirtyPages = %d, want 2", n)
	}
	// A write spanning a page boundary dirties both pages.
	if err := s.Write(base.Add(PageSize-4), make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if n := s.DirtyPages(base, 4*PageSize); n != 3 {
		t.Fatalf("DirtyPages after straddling write = %d, want 3", n)
	}
	s.ClearDirty(base, 4*PageSize)
	if n := s.DirtyPages(base, 4*PageSize); n != 0 {
		t.Fatalf("ClearDirty left %d dirty pages", n)
	}
	// Reads never dirty.
	if _, err := s.ReadUint64(base); err != nil {
		t.Fatal(err)
	}
	if n := s.DirtyPages(base, 4*PageSize); n != 0 {
		t.Fatalf("read dirtied %d pages", n)
	}
	// Unmap → pool → remap: the recycled frame must come back clean
	// and zeroed.
	if err := s.WriteUint64(base, 0xFF); err != nil {
		t.Fatal(err)
	}
	if err := s.Unmap(base, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Map(base, 4*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if n := s.DirtyPages(base, 4*PageSize); n != 0 {
		t.Fatalf("remapped pages have %d dirty pages", n)
	}
	if v, err := s.ReadUint64(base); err != nil || v != 0 {
		t.Fatalf("remapped page not zero: %#x/%v", v, err)
	}
}

// TestCopyOutRunsCoalescing: dirty pages come back as maximal
// contiguous runs; clean and unmapped pages are skipped.
func TestCopyOutRunsCoalescing(t *testing.T) {
	s := NewSpace(0)
	base := Addr(0x100000)
	// Map pages 0-3 and 6-7; leave 4-5 unmapped (a hole, as in a heap
	// arena).
	if err := s.Map(base, 4*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := s.Map(base.Add(6*PageSize), 2*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	// Dirty pages 1, 2 (contiguous), and 7.
	for _, pg := range []uint64{1, 2, 7} {
		if err := s.WriteUint64(base.Add(pg*PageSize+8), 0xA0+pg); err != nil {
			t.Fatal(err)
		}
	}
	runs, _, err := s.CopyOutRuns(nil, nil, base, 8*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2: %+v", len(runs), runs)
	}
	if runs[0].Addr != base.Add(PageSize) || uint64(len(runs[0].Data)) != 2*PageSize {
		t.Errorf("run 0 = [%s +%d]", runs[0].Addr, len(runs[0].Data))
	}
	if runs[1].Addr != base.Add(7*PageSize) || uint64(len(runs[1].Data)) != PageSize {
		t.Errorf("run 1 = [%s +%d]", runs[1].Addr, len(runs[1].Data))
	}
	if RunsPayload(runs) != 3*PageSize {
		t.Errorf("payload = %d, want %d", RunsPayload(runs), 3*PageSize)
	}
	// The copied data matches what a dense read of each page returns.
	for _, r := range runs {
		dense, err := s.CopyOut(r.Addr, uint64(len(r.Data)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dense, r.Data) {
			t.Errorf("run at %s diverges from dense read", r.Addr)
		}
	}
	// Runs are copies, not aliases: mutating the space afterwards must
	// not change the captured image.
	snap := append([]byte(nil), runs[0].Data...)
	if err := s.WriteUint64(base.Add(PageSize), 0xDEAD); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, runs[0].Data) {
		t.Error("CopyOutRuns aliases live page memory")
	}
	// Misaligned requests are rejected.
	if _, _, err := s.CopyOutRuns(nil, nil, base.Add(8), PageSize); err == nil {
		t.Error("misaligned CopyOutRuns accepted")
	}
	if _, _, err := s.CopyOutRuns(nil, nil, base, 100); err == nil {
		t.Error("non-page-multiple length accepted")
	}
}

// TestCopyOutRunsUnreadableDirtyPageFaults: a dirty page that is not
// readable is a real fault, not silently skipped state.
func TestCopyOutRunsUnreadableDirtyPageFaults(t *testing.T) {
	s := NewSpace(0)
	base := Addr(0x100000)
	if err := s.Map(base, PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteUint64(base, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Protect(base, PageSize, ProtNone); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.CopyOutRuns(nil, nil, base, PageSize); err == nil {
		t.Error("unreadable dirty page did not fault")
	}
}

// TestFrameMarkDirty: direct Data() writers flag the frame by hand,
// and frames shared across spaces keep the bit.
func TestFrameMarkDirty(t *testing.T) {
	f := NewFrame()
	if f.Dirty() {
		t.Fatal("fresh frame dirty")
	}
	f.Data()[0] = 1
	if f.Dirty() {
		t.Fatal("Data() write alone must not set the bit (that's the caller's job)")
	}
	f.MarkDirty()
	if !f.Dirty() {
		t.Fatal("MarkDirty did not stick")
	}
}

// TestPupRunsRoundTripAndHostileCount: wire round trip preserves
// runs; a corrupt count prefix is rejected before allocation.
func TestPupRunsRoundTripAndHostileCount(t *testing.T) {
	in := []Run{
		{Addr: 0x1000, Data: bytes.Repeat([]byte{0xAB}, PageSize)},
		{Addr: 0x5000, Data: bytes.Repeat([]byte{0xCD}, 2*PageSize)},
	}
	p := pup.NewGrowPacker()
	if err := PupRuns(p, &in); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), p.PackedBytes()...)
	var out []Run
	u := pup.NewUnpacker(data)
	if err := PupRuns(u, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Addr != 0x1000 || !bytes.Equal(out[1].Data, in[1].Data) {
		t.Fatalf("round trip mangled runs: %+v", out)
	}
	// Corrupt the count prefix to claim 2^32-1 runs.
	bad := append([]byte(nil), data...)
	bad[0], bad[1], bad[2], bad[3] = 0xFF, 0xFF, 0xFF, 0xFF
	var hostile []Run
	if err := PupRuns(pup.NewUnpacker(bad), &hostile); err == nil {
		t.Error("hostile run count accepted")
	}
}

// TestValidateRuns rejects every malformed shape Install relies on
// never seeing.
func TestValidateRuns(t *testing.T) {
	base, size := Addr(0x10000), uint64(4*PageSize)
	page := make([]byte, PageSize)
	ok := []Run{{Addr: base, Data: page}, {Addr: base.Add(2 * PageSize), Data: page}}
	if err := ValidateRuns(ok, base, size); err != nil {
		t.Errorf("valid runs rejected: %v", err)
	}
	cases := map[string][]Run{
		"misaligned addr":   {{Addr: base.Add(8), Data: page}},
		"partial page":      {{Addr: base, Data: make([]byte, 100)}},
		"empty run":         {{Addr: base, Data: nil}},
		"below base":        {{Addr: base - PageSize, Data: page}},
		"past end":          {{Addr: base.Add(size), Data: page}},
		"overlapping":       {{Addr: base, Data: make([]byte, 2*PageSize)}, {Addr: base.Add(PageSize), Data: page}},
		"descending order":  {{Addr: base.Add(PageSize), Data: page}, {Addr: base, Data: page}},
		"run spanning past": {{Addr: base.Add(3 * PageSize), Data: make([]byte, 2*PageSize)}},
	}
	for name, runs := range cases {
		if err := ValidateRuns(runs, base, size); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestDenseFromRuns zero-fills the gaps.
func TestDenseFromRuns(t *testing.T) {
	base := Addr(0x10000)
	runs := []Run{{Addr: base.Add(PageSize), Data: bytes.Repeat([]byte{7}, PageSize)}}
	dense := DenseFromRuns(runs, base, 3*PageSize)
	if uint64(len(dense)) != 3*PageSize {
		t.Fatalf("dense length %d", len(dense))
	}
	if dense[0] != 0 || dense[PageSize] != 7 || dense[2*PageSize] != 0 {
		t.Error("dense reconstruction wrong")
	}
}

// TestCopyInRuns: runs written back land at their addresses, give their
// pages frames and dirty bits, and round-trip through CopyOutRuns into a
// reused run list and arena; an unmapped or unwritable page faults.
func TestCopyInRuns(t *testing.T) {
	s := NewSpace(0)
	base := Addr(0x100000)
	if err := s.Map(base, 6*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, PageSize) }
	in := []Run{{Addr: base, Data: append(page(1), page(2)...)}, {Addr: base.Add(4 * PageSize), Data: page(3)}}
	if err := s.CopyInRuns(in); err != nil {
		t.Fatal(err)
	}
	if n := s.DirtyPages(base, 6*PageSize); n != 3 {
		t.Fatalf("%d dirty pages, want 3", n)
	}
	if s.ResidentPages() != 3 {
		t.Fatalf("%d resident pages, want 3 (unshipped pages stay frameless)", s.ResidentPages())
	}
	runs, arena := make([]Run, 0, 4), make([]byte, 0, 8*PageSize)
	for i := 0; i < 2; i++ {
		var err error
		runs, arena, err = s.CopyOutRuns(runs[:0], arena[:0], base, 6*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(runs) != fmt.Sprint(in) {
			t.Fatalf("pass %d: CopyOutRuns = %v, want %v", i, runs, in)
		}
	}
	if err := s.CopyInRuns([]Run{{Addr: base.Add(8 * PageSize), Data: page(4)}}); err == nil {
		t.Error("CopyInRuns into an unmapped page accepted")
	}
	if err := s.Protect(base, PageSize, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := s.CopyInRuns([]Run{{Addr: base, Data: page(5)}}); err == nil {
		t.Error("CopyInRuns into a read-only page accepted")
	}
	if err := s.CopyInRuns([]Run{{Addr: base.Add(8), Data: page(6)}}); err == nil {
		t.Error("misaligned run accepted")
	}
}
