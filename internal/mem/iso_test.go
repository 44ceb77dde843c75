package mem

import (
	"errors"
	"testing"

	"migflow/internal/vmem"
)

func TestIsoRegionSlots(t *testing.T) {
	r, err := NewIsoRegion(DefaultIsoBase, 64*vmem.PageSize, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.SlotSize() != 16*vmem.PageSize {
		t.Errorf("SlotSize = %d", r.SlotSize())
	}
	// Slots tile the region without overlap.
	for pe := 0; pe < 4; pe++ {
		s := r.Slot(pe)
		if s.Length != r.SlotSize() {
			t.Errorf("slot %d length %d", pe, s.Length)
		}
		if pe > 0 && s.Start != r.Slot(pe-1).End() {
			t.Errorf("slot %d not adjacent to slot %d", pe, pe-1)
		}
	}
	if r.Slot(0).Start != r.Start {
		t.Error("slot 0 does not begin at region start")
	}
	if r.Slot(3).End() != r.Start.Add(r.Size) {
		t.Error("last slot does not end at region end")
	}
}

func TestIsoRegionOwner(t *testing.T) {
	r, _ := NewIsoRegion(0x100000, 40*vmem.PageSize, 4)
	for pe := 0; pe < 4; pe++ {
		s := r.Slot(pe)
		if got := r.Owner(s.Start); got != pe {
			t.Errorf("Owner(slot %d start) = %d", pe, got)
		}
		if got := r.Owner(s.End() - 1); got != pe {
			t.Errorf("Owner(slot %d last byte) = %d", pe, got)
		}
	}
	if r.Owner(r.Start-1) != -1 || r.Owner(r.Start.Add(r.Size)) != -1 {
		t.Error("Owner outside region should be -1")
	}
}

func TestIsoRegionValidation(t *testing.T) {
	if _, err := NewIsoRegion(0x1000, vmem.PageSize, 0); err == nil {
		t.Error("zero PEs accepted")
	}
	if _, err := NewIsoRegion(0x1001, vmem.PageSize*8, 2); err == nil {
		t.Error("unaligned start accepted")
	}
	if _, err := NewIsoRegion(0x1000, 100, 2); err == nil {
		t.Error("too-small region accepted")
	}
	// Size rounds down to whole pages per PE.
	r, err := NewIsoRegion(0x1000, 9*vmem.PageSize, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.SlotSize() != 2*vmem.PageSize {
		t.Errorf("SlotSize = %d, want 2 pages", r.SlotSize())
	}
}

func TestIsoAllocatorUniqueAcrossPEs(t *testing.T) {
	r, _ := NewIsoRegion(0x100000, 1024*vmem.PageSize, 8)
	seen := map[vmem.Addr]bool{}
	for pe := 0; pe < 8; pe++ {
		a := NewIsoAllocator(r, pe)
		for i := 0; i < 10; i++ {
			s, err := a.AllocSlab(4)
			if err != nil {
				t.Fatal(err)
			}
			if seen[s] {
				t.Fatalf("slab %s handed out twice", s)
			}
			seen[s] = true
			if r.Owner(s) != pe {
				t.Errorf("PE %d slab %s lands in slot %d", pe, s, r.Owner(s))
			}
		}
	}
}

func TestIsoAllocatorRecycles(t *testing.T) {
	r, _ := NewIsoRegion(0x100000, 64*vmem.PageSize, 1)
	a := NewIsoAllocator(r, 0)
	s1, err := a.AllocSlab(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.FreeSlab(s1); err != nil {
		t.Fatal(err)
	}
	if a.LiveSlabs() != 0 {
		t.Errorf("LiveSlabs = %d", a.LiveSlabs())
	}
	s2, err := a.AllocSlab(8)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s1 {
		t.Errorf("freed slab not recycled: got %s, want %s", s2, s1)
	}
	if err := a.FreeSlab(0xbeef000); !errors.Is(err, ErrNotLiveSlab) {
		t.Errorf("freeing a wild slab: %v, want ErrNotLiveSlab", err)
	}
	if err := a.FreeSlab(s2); err != nil {
		t.Fatal(err)
	}
	if err := a.FreeSlab(s2); !errors.Is(err, ErrNotLiveSlab) {
		t.Errorf("freeing a slab twice: %v, want ErrNotLiveSlab", err)
	}
}

func TestIsoAllocatorExhaustsSlot(t *testing.T) {
	r, _ := NewIsoRegion(0x100000, 16*vmem.PageSize, 2) // 8 pages per PE
	a := NewIsoAllocator(r, 0)
	if _, err := a.AllocSlab(8); err != nil {
		t.Fatal(err)
	}
	_, err := a.AllocSlab(1)
	var oom *ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Errorf("slot exhaustion: err = %v, want ErrOutOfMemory", err)
	}
}

// TestIsomalloc32BitArithmetic pins the paper's §3.4.2 arithmetic: 10
// threads/PE × 1 MiB × 1000 PEs = ~10 GiB of address space — far
// beyond a 32-bit machine; and even a whole 4 GiB space at 1 MiB per
// thread caps out at 4096 threads.
func TestIsomalloc32BitArithmetic(t *testing.T) {
	demand := AddressSpaceDemand(10, 1<<20, 1000)
	if demand != 10*1000*(1<<20) {
		t.Fatalf("demand = %d", demand)
	}
	if demand <= 4<<30 {
		t.Error("10 GiB should exceed a 32-bit space")
	}
	const space32 = uint64(4) << 30
	if got := space32 / (1 << 20); got != 4096 {
		t.Errorf("threads fitting in 4 GiB at 1 MiB = %d, want 4096", got)
	}
}

// TestIsoRegionExhausts32BitSpace shows a 32-bit PE refusing to
// reserve an isomalloc region bigger than its address space, while a
// 64-bit PE accepts it.
func TestIsoRegionExhausts32BitSpace(t *testing.T) {
	region, err := NewIsoRegion(DefaultIsoBase, 4<<30, 4)
	if err != nil {
		t.Fatal(err)
	}
	space32 := vmem.NewSpace(3 << 30)
	var ex *vmem.ErrExhausted
	if err := space32.Reserve(region.Start, region.Size); !errors.As(err, &ex) {
		t.Errorf("32-bit reserve: err = %v, want ErrExhausted", err)
	}
	space64 := vmem.NewSpace(0)
	if err := space64.Reserve(region.Start, region.Size); err != nil {
		t.Errorf("64-bit reserve failed: %v", err)
	}
}
