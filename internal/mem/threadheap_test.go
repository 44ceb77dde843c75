package mem

import (
	"testing"

	"migflow/internal/vmem"
)

func isoFixture(t *testing.T) (IsoRegion, *IsoAllocator, *vmem.Space) {
	t.Helper()
	r, err := NewIsoRegion(DefaultIsoBase, 4096*vmem.PageSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	return r, NewIsoAllocator(r, 0), vmem.NewSpace(0)
}

func TestThreadHeapMallocFree(t *testing.T) {
	_, iso, space := isoFixture(t)
	th := NewThreadHeap(iso, space, 4)
	a, err := th.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := space.Write(a, []byte("thread-private")); err != nil {
		t.Fatalf("block unusable: %v", err)
	}
	if th.AllocatedBytes() == 0 {
		t.Error("AllocatedBytes = 0")
	}
	if err := th.Free(a); err != nil {
		t.Fatal(err)
	}
	if th.AllocatedBytes() != 0 {
		t.Error("AllocatedBytes after free != 0")
	}
	if err := th.Free(a); err == nil {
		t.Error("double free should error")
	}
}

func TestThreadHeapGrowsArenas(t *testing.T) {
	_, iso, space := isoFixture(t)
	th := NewThreadHeap(iso, space, 1) // 4 KiB arenas
	for i := 0; i < 10; i++ {
		if _, err := th.Malloc(3000); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(th.Arenas()); got < 5 {
		t.Errorf("arenas = %d, want several (one per ~3 KB block in 4 KiB arenas)", got)
	}
}

func TestThreadHeapOversizedBlock(t *testing.T) {
	_, iso, space := isoFixture(t)
	th := NewThreadHeap(iso, space, 1)
	a, err := th.Malloc(10 * vmem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10*vmem.PageSize)
	if err := space.Write(a, buf); err != nil {
		t.Errorf("oversized block not fully usable: %v", err)
	}
}

func TestThreadHeapAddressesGloballyUnique(t *testing.T) {
	r, _ := NewIsoRegion(DefaultIsoBase, 4096*vmem.PageSize, 2)
	iso0 := NewIsoAllocator(r, 0)
	iso1 := NewIsoAllocator(r, 1)
	s0, s1 := vmem.NewSpace(0), vmem.NewSpace(0)
	th0 := NewThreadHeap(iso0, s0, 4)
	th1 := NewThreadHeap(iso1, s1, 4)
	a0, err := th0.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := th1.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if r.Owner(a0) != 0 || r.Owner(a1) != 1 {
		t.Errorf("owners: %d, %d", r.Owner(a0), r.Owner(a1))
	}
	if a0 == a1 {
		t.Error("threads on different PEs share an address")
	}
}

func TestThreadHeapReleaseAll(t *testing.T) {
	_, iso, space := isoFixture(t)
	th := NewThreadHeap(iso, space, 2)
	for i := 0; i < 5; i++ {
		if _, err := th.Malloc(1000); err != nil {
			t.Fatal(err)
		}
	}
	if iso.LiveSlabs() == 0 {
		t.Fatal("no slabs live")
	}
	if err := th.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if iso.LiveSlabs() != 0 {
		t.Errorf("LiveSlabs after ReleaseAll = %d", iso.LiveSlabs())
	}
	if space.MappedPages() != 0 {
		t.Errorf("pages leaked: %d", space.MappedPages())
	}
}

func TestInterposer(t *testing.T) {
	space := vmem.NewSpace(0)
	sysHeap, err := NewHeap(space, vmem.Range{Start: 0x10000, Length: 16 * vmem.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	_, iso, _ := isoFixture(t)
	th := NewThreadHeap(iso, space, 4)

	ip := NewInterposer(AsAllocator(sysHeap))
	// Outside thread context: system heap.
	a, err := ip.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if !sysHeap.Contains(a) {
		t.Error("out-of-thread malloc did not use system heap")
	}
	if ip.InThread() {
		t.Error("InThread before Enter")
	}
	// Inside thread context: isomalloc.
	ip.Enter(th)
	b, err := ip.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if sysHeap.Contains(b) {
		t.Error("in-thread malloc used system heap")
	}
	if !ip.InThread() {
		t.Error("InThread false after Enter")
	}
	if err := ip.Free(b); err != nil {
		t.Fatal(err)
	}
	ip.Exit()
	if err := ip.Free(a); err != nil {
		t.Fatal(err)
	}
}
