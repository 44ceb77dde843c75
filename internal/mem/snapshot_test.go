package mem

import (
	"bytes"
	"testing"

	"migflow/internal/pup"
	"migflow/internal/vmem"
)

func snapFixture(t *testing.T) (*Heap, *vmem.Space) {
	t.Helper()
	s := vmem.NewSpace(0)
	h, err := NewHeap(s, vmem.Range{Start: 0x100000, Length: 8 * vmem.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	return h, s
}

func TestHeapSnapshotRestore(t *testing.T) {
	h, src := snapFixture(t)
	a1, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := h.Alloc(5000) // crosses pages
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Write(a1, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := src.Write(a2.Add(4500), []byte("omega")); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(a1); err != nil { // leave a hole for the free list
		t.Fatal(err)
	}
	a3, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Write(a3, []byte("mid")); err != nil {
		t.Fatal(err)
	}

	var im HeapImage
	if err := h.Snapshot(&im); err != nil {
		t.Fatal(err)
	}
	// PUP round trip of the image itself.
	data, err := pup.Pack(&im)
	if err != nil {
		t.Fatal(err)
	}
	var im2 HeapImage
	if err := pup.Unpack(data, &im2); err != nil {
		t.Fatal(err)
	}

	dst := vmem.NewSpace(0)
	h2, err := restoreHeap(dst, &im2)
	if err != nil {
		t.Fatal(err)
	}
	// Metadata preserved.
	if h2.LiveBlocks() != h.LiveBlocks() || h2.AllocatedBytes() != h.AllocatedBytes() {
		t.Errorf("blocks %d/%d bytes %d/%d", h2.LiveBlocks(), h.LiveBlocks(), h2.AllocatedBytes(), h.AllocatedBytes())
	}
	if h2.FreeSpace() != h.FreeSpace() {
		t.Errorf("free space %d, want %d", h2.FreeSpace(), h.FreeSpace())
	}
	// Contents preserved at identical addresses.
	for _, probe := range []struct {
		at   vmem.Addr
		want string
	}{{a2.Add(4500), "omega"}, {a3, "mid"}} {
		got := make([]byte, len(probe.want))
		if err := dst.Read(probe.at, got); err != nil {
			t.Fatalf("read %s: %v", probe.at, err)
		}
		if string(got) != probe.want {
			t.Errorf("at %s = %q, want %q", probe.at, got, probe.want)
		}
	}
	// The restored heap allocates and frees consistently.
	a4, err := h2.Alloc(200)
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Free(a4); err != nil {
		t.Fatal(err)
	}
	if err := h2.Free(a2); err != nil {
		t.Fatal(err)
	}
	if err := h2.Free(a3); err != nil {
		t.Fatal(err)
	}
	if h2.LiveBlocks() != 0 {
		t.Errorf("restored heap left %d blocks", h2.LiveBlocks())
	}
	if dst.MappedPages() != 0 {
		t.Errorf("restored heap leaked %d pages", dst.MappedPages())
	}
}

func TestDetachUnmapsKeepsMetadata(t *testing.T) {
	h, src := snapFixture(t)
	a, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Detach(); err != nil {
		t.Fatal(err)
	}
	if src.MappedPages() != 0 {
		t.Errorf("detach left %d pages", src.MappedPages())
	}
	if !h.Contains(a) {
		t.Error("detach dropped allocation metadata")
	}
}

func TestRestoreHeapRejectsMalformed(t *testing.T) {
	dst := vmem.NewSpace(0)
	base := uint64(0x100000)
	// Overlapping blocks.
	if _, err := restoreHeap(dst, &HeapImage{
		Start: base, Length: 4 * vmem.PageSize,
		Blocks: []Block{{vmem.Addr(base), 64}, {vmem.Addr(base + 32), 64}},
	}); err == nil {
		t.Error("overlapping blocks accepted")
	}
	// Block outside the region.
	if _, err := restoreHeap(vmem.NewSpace(0), &HeapImage{
		Start: base, Length: vmem.PageSize,
		Blocks: []Block{{vmem.Addr(base + 2*vmem.PageSize), 64}},
	}); err == nil {
		t.Error("escaping block accepted")
	}
	// Shipped page with no covering block.
	if _, err := restoreHeap(vmem.NewSpace(0), &HeapImage{
		Start: base, Length: 4 * vmem.PageSize,
		Runs: []vmem.Run{{Addr: vmem.Addr(base), Data: make([]byte, vmem.PageSize)}},
	}); err == nil {
		t.Error("orphan page accepted")
	}
	// Run that is not page-aligned / whole pages.
	if _, err := restoreHeap(vmem.NewSpace(0), &HeapImage{
		Start: base, Length: 4 * vmem.PageSize,
		Blocks: []Block{{vmem.Addr(base), 64}},
		Runs:   []vmem.Run{{Addr: vmem.Addr(base + 8), Data: make([]byte, 16)}},
	}); err == nil {
		t.Error("misaligned run accepted")
	}
	// Block whose end wraps past the top of the address space.
	if _, err := restoreHeap(vmem.NewSpace(0), &HeapImage{
		Start: base, Length: 4 * vmem.PageSize,
		Blocks: []Block{{vmem.Addr(base), ^uint64(0) - 8}},
	}); err == nil {
		t.Error("wrapping block accepted")
	}
}

// restoreHeap refills a zero Heap from im.
func restoreHeap(space *vmem.Space, im *HeapImage) (*Heap, error) {
	h := new(Heap)
	return h, h.Restore(space, im)
}

// TestRestoreHeapZeroFillsUnshippedPages: a block whose pages were
// never dirtied ships no runs; the restore must still map the pages
// (zero-filled) so the block is readable.
func TestRestoreHeapZeroFillsUnshippedPages(t *testing.T) {
	dst := vmem.NewSpace(0)
	base := uint64(0x100000)
	h, err := restoreHeap(dst, &HeapImage{
		Start: base, Length: 4 * vmem.PageSize,
		Blocks: []Block{{vmem.Addr(base), 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Contains(vmem.Addr(base)) {
		t.Fatal("restored heap lost the block")
	}
	v, err := dst.ReadUint64(vmem.Addr(base))
	if err != nil {
		t.Fatalf("unshipped page not mapped: %v", err)
	}
	if v != 0 {
		t.Errorf("unshipped page not zero: %#x", v)
	}
}

func TestThreadHeapSnapshotRoundTrip(t *testing.T) {
	region, err := NewIsoRegion(DefaultIsoBase, 4096*vmem.PageSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	iso0 := NewIsoAllocator(region, 0)
	iso1 := NewIsoAllocator(region, 1)
	src, dst := vmem.NewSpace(0), vmem.NewSpace(0)
	th := NewThreadHeap(iso0, src, 2)
	var addrs []vmem.Addr
	for i := 0; i < 6; i++ {
		a, err := th.Malloc(3000)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.WriteUint64(a, uint64(i)*7); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	var im ThreadHeapImage
	if err := th.Snapshot(&im); err != nil {
		t.Fatal(err)
	}
	data, err := pup.Pack(&im)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Detach(); err != nil {
		t.Fatal(err)
	}
	var im2 ThreadHeapImage
	if err := pup.Unpack(data, &im2); err != nil {
		t.Fatal(err)
	}
	th2 := NewThreadHeap(iso1, dst, 0)
	if err := th2.Restore(iso1, dst, &im2); err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		v, err := dst.ReadUint64(a)
		if err != nil || v != uint64(i)*7 {
			t.Errorf("block %d = %d/%v", i, v, err)
		}
	}
	if th2.AllocatedBytes() != th.AllocatedBytes() {
		t.Errorf("allocated %d, want %d", th2.AllocatedBytes(), th.AllocatedBytes())
	}
	if len(th2.Arenas()) != len(th.Arenas()) {
		t.Errorf("arenas %d, want %d", len(th2.Arenas()), len(th.Arenas()))
	}
	// Growth after the move draws a slab from the destination's slot.
	big, err := th2.Malloc(64 * vmem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if region.Owner(big) != 1 {
		t.Errorf("an arena grown after Restore lies in PE %d's slot, want 1", region.Owner(big))
	}
	// An arena that is no slab of the isomalloc region is refused
	// before anything is mapped.
	im2.Arenas[0].Start = uint64(region.Start.Add(region.Size))
	before := dst.MappedPages()
	if err := NewThreadHeap(iso1, dst, 0).Restore(iso1, dst, &im2); err == nil {
		t.Error("arena outside the isomalloc region accepted")
	}
	if dst.MappedPages() != before {
		t.Errorf("refused image mapped %d pages", dst.MappedPages()-before)
	}
}

func TestHeapImagePupDeterministic(t *testing.T) {
	h, _ := snapFixture(t)
	if _, err := h.Alloc(100); err != nil {
		t.Fatal(err)
	}
	var im HeapImage
	if err := h.Snapshot(&im); err != nil {
		t.Fatal(err)
	}
	d1, err := pup.Pack(&im)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := pup.Pack(&im)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Error("snapshot packing nondeterministic")
	}
}

func TestIsoRangeAccessors(t *testing.T) {
	region, err := NewIsoRegion(DefaultIsoBase, 64*vmem.PageSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	if region.Range().Length != region.Size {
		t.Error("Range length mismatch")
	}
	a := NewIsoAllocator(region, 1)
	if a.Slot() != region.Slot(1) {
		t.Error("Slot mismatch")
	}
}

func TestIsoSlotPanicsOutOfRange(t *testing.T) {
	region, _ := NewIsoRegion(DefaultIsoBase, 64*vmem.PageSize, 2)
	defer func() {
		if recover() == nil {
			t.Error("Slot(9) did not panic")
		}
	}()
	region.Slot(9)
}

func TestOOMErrorString(t *testing.T) {
	e := &ErrOutOfMemory{Region: vmem.Range{Start: 0x1000, Length: 0x1000}, Size: 64}
	if e.Error() == "" {
		t.Error("empty error string")
	}
}
