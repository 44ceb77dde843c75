package mem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"migflow/internal/vmem"
)

func testHeap(t *testing.T, pages uint64) (*Heap, *vmem.Space) {
	t.Helper()
	s := vmem.NewSpace(0)
	h, err := NewHeap(s, vmem.Range{Start: 0x100000, Length: pages * vmem.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	return h, s
}

func TestHeapAllocFree(t *testing.T) {
	h, s := testHeap(t, 16)
	a, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Offset()%Align != 0 {
		t.Errorf("addr %s not %d-aligned", a, Align)
	}
	// The block's page is mapped and usable.
	if err := s.Write(a, []byte("payload")); err != nil {
		t.Fatalf("write to allocated block: %v", err)
	}
	if h.AllocatedBytes() == 0 || h.LiveBlocks() != 1 {
		t.Errorf("accounting: bytes=%d blocks=%d", h.AllocatedBytes(), h.LiveBlocks())
	}
	if !h.Contains(a) {
		t.Error("Contains(allocated) = false")
	}
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if h.AllocatedBytes() != 0 || h.LiveBlocks() != 0 {
		t.Errorf("accounting after free: bytes=%d blocks=%d", h.AllocatedBytes(), h.LiveBlocks())
	}
	// Page unmapped once the last block goes.
	if s.MappedPages() != 0 {
		t.Errorf("pages still mapped after free: %d", s.MappedPages())
	}
}

func TestHeapZeroSizeAlloc(t *testing.T) {
	h, _ := testHeap(t, 4)
	a, err := h.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if a == vmem.Nil {
		t.Error("zero-size alloc returned nil")
	}
}

func TestHeapDoubleFree(t *testing.T) {
	h, _ := testHeap(t, 4)
	a, _ := h.Alloc(64)
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(a); err == nil {
		t.Error("double free should error")
	}
	if err := h.Free(0xdead0); err == nil {
		t.Error("free of wild address should error")
	}
}

func TestHeapExhaustionAndCoalesce(t *testing.T) {
	h, _ := testHeap(t, 2) // 8 KiB
	var addrs []vmem.Addr
	for {
		a, err := h.Alloc(1024)
		if err != nil {
			var oom *ErrOutOfMemory
			if !errors.As(err, &oom) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		addrs = append(addrs, a)
	}
	if len(addrs) != 8 {
		t.Fatalf("allocated %d KiB blocks from 8 KiB, want 8", len(addrs))
	}
	// Free all; coalescing should restore one big block.
	for _, a := range addrs {
		if err := h.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.FreeSpace(); got != 2*vmem.PageSize {
		t.Errorf("FreeSpace = %d, want %d", got, 2*vmem.PageSize)
	}
	// And a full-region alloc succeeds again.
	if _, err := h.Alloc(2*vmem.PageSize - Align); err != nil {
		t.Errorf("realloc after coalesce: %v", err)
	}
}

func TestHeapPageSharing(t *testing.T) {
	h, s := testHeap(t, 4)
	a1, _ := h.Alloc(64)
	a2, _ := h.Alloc(64) // same page
	if a1.PageNum() != a2.PageNum() {
		t.Skip("allocator did not co-locate blocks; layout changed")
	}
	if err := h.Free(a1); err != nil {
		t.Fatal(err)
	}
	// Page must survive while a2 lives.
	if err := s.Write(a2, []byte{1}); err != nil {
		t.Errorf("page vanished under live block: %v", err)
	}
	if err := h.Free(a2); err != nil {
		t.Fatal(err)
	}
	if s.MappedPages() != 0 {
		t.Error("page leaked after both blocks freed")
	}
}

func TestHeapBlocksSorted(t *testing.T) {
	h, _ := testHeap(t, 8)
	for i := 0; i < 5; i++ {
		if _, err := h.Alloc(200); err != nil {
			t.Fatal(err)
		}
	}
	bs := h.Blocks()
	if len(bs) != 5 {
		t.Fatalf("Blocks len = %d", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if bs[i-1].Addr >= bs[i].Addr {
			t.Error("Blocks not sorted")
		}
	}
}

func TestHeapBadRegion(t *testing.T) {
	s := vmem.NewSpace(0)
	if _, err := NewHeap(s, vmem.Range{Start: 0x1001, Length: vmem.PageSize}); err == nil {
		t.Error("unaligned region accepted")
	}
	if _, err := NewHeap(s, vmem.Range{Start: 0x1000, Length: 0}); err == nil {
		t.Error("empty region accepted")
	}
}

// Property: after any interleaving of allocs and frees, allocated
// blocks never overlap and stay inside the region.
func TestQuickHeapNoOverlap(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := vmem.NewSpace(0)
		region := vmem.Range{Start: 0x200000, Length: 32 * vmem.PageSize}
		h, err := NewHeap(s, region)
		if err != nil {
			return false
		}
		var live []vmem.Addr
		for i := 0; i < int(steps)+10; i++ {
			if rng.Intn(3) != 0 || len(live) == 0 {
				a, err := h.Alloc(uint64(rng.Intn(3000) + 1))
				if err != nil {
					continue
				}
				live = append(live, a)
			} else {
				i := rng.Intn(len(live))
				if err := h.Free(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		bs := h.Blocks()
		for i := 1; i < len(bs); i++ {
			if bs[i-1].Addr.Add(bs[i-1].Size) > bs[i].Addr {
				return false // overlap
			}
		}
		for _, b := range bs {
			if b.Addr < region.Start || b.Addr.Add(b.Size) > region.End() {
				return false // escaped region
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
