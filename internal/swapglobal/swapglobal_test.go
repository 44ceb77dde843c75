package swapglobal

import (
	"slices"
	"testing"

	"migflow/internal/mem"
	"migflow/internal/vmem"
)

const gotBase vmem.Addr = 0x30000000

func fixture(t *testing.T) (*Layout, *GOT, *vmem.Space, mem.Allocator) {
	t.Helper()
	l := NewLayout()
	l.Declare("counter", 8)
	l.Declare("rank", 8)
	l.Declare("buffer", 256)
	space := vmem.NewSpace(0)
	got, err := Install(space, gotBase, l)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := mem.NewHeap(space, vmem.Range{Start: 0x1000000, Length: 64 * vmem.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	return l, got, space, mem.AsAllocator(heap)
}

func TestDeclareAndSlots(t *testing.T) {
	l, got, _, _ := fixture(t)
	if l.NumGlobals() != 3 {
		t.Fatalf("NumGlobals = %d", l.NumGlobals())
	}
	s, err := l.SlotOf("rank")
	if err != nil || s != 1 {
		t.Errorf("SlotOf(rank) = %d/%v", s, err)
	}
	if _, err := l.SlotOf("nope"); err == nil {
		t.Error("unknown global should error")
	}
	if l.SizeOf(2) != 256 {
		t.Errorf("SizeOf(buffer) = %d", l.SizeOf(2))
	}
	if got.SlotAddr(1) != gotBase+8 {
		t.Errorf("SlotAddr(1) = %s", got.SlotAddr(1))
	}
}

func TestDeclareDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Declare did not panic")
		}
	}()
	l := NewLayout()
	l.Declare("x", 8)
	l.Declare("x", 8)
}

func TestInstallEmptyLayoutFails(t *testing.T) {
	if _, err := Install(vmem.NewSpace(0), gotBase, NewLayout()); err == nil {
		t.Error("empty layout accepted")
	}
}

func TestPrivatization(t *testing.T) {
	l, got, _, alloc := fixture(t)
	t1, err := NewInstance(l, alloc)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := NewInstance(l, alloc)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct storage per instance.
	a1, _ := t1.VarAddr("counter")
	a2, _ := t2.VarAddr("counter")
	if a1 == a2 {
		t.Fatal("instances share storage")
	}
	// Thread 1 runs: sees and mutates its own counter.
	if err := got.Swap(t1.Image()); err != nil {
		t.Fatal(err)
	}
	if err := got.StoreUint64("counter", 111); err != nil {
		t.Fatal(err)
	}
	// Context switch to thread 2.
	if err := got.Swap(t2.Image()); err != nil {
		t.Fatal(err)
	}
	if v, _ := got.LoadUint64("counter"); v != 0 {
		t.Errorf("thread 2 sees thread 1's counter: %d", v)
	}
	if err := got.StoreUint64("counter", 222); err != nil {
		t.Fatal(err)
	}
	// Back to thread 1: its value survived.
	if err := got.Swap(t1.Image()); err != nil {
		t.Fatal(err)
	}
	if v, _ := got.LoadUint64("counter"); v != 111 {
		t.Errorf("thread 1 counter = %d, want 111", v)
	}
	if got.Swaps() != 3 {
		t.Errorf("Swaps = %d, want 3", got.Swaps())
	}
}

func TestSwapWrongImageSize(t *testing.T) {
	_, got, _, _ := fixture(t)
	if err := got.Swap([]vmem.Addr{1}); err == nil {
		t.Error("short image accepted")
	}
}

func TestInstanceRelease(t *testing.T) {
	l, _, _, alloc := fixture(t)
	in, err := NewInstance(l, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Release(alloc); err != nil {
		t.Fatal(err)
	}
}

// TestMigrationScenario walks the full §3.1.1 story: a thread's
// privatized globals live in its isomalloc heap, migrate to another
// PE's address space at the same addresses, and the destination GOT
// swap makes them visible unchanged.
func TestMigrationScenario(t *testing.T) {
	l := NewLayout()
	l.Declare("iter", 8)
	region, err := mem.NewIsoRegion(mem.DefaultIsoBase, 1024*vmem.PageSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	iso0 := mem.NewIsoAllocator(region, 0)
	iso1 := mem.NewIsoAllocator(region, 1)
	src, dst := vmem.NewSpace(0), vmem.NewSpace(0)
	gotSrc, err := Install(src, gotBase, l)
	if err != nil {
		t.Fatal(err)
	}
	gotDst, err := Install(dst, gotBase, l)
	if err != nil {
		t.Fatal(err)
	}
	th := mem.NewThreadHeap(iso0, src, 4)
	in, err := NewInstance(l, th)
	if err != nil {
		t.Fatal(err)
	}
	if err := gotSrc.Swap(in.Image()); err != nil {
		t.Fatal(err)
	}
	if err := gotSrc.StoreUint64("iter", 77); err != nil {
		t.Fatal(err)
	}
	// Migrate as the isomalloc strategy does: image the thread's heap,
	// unmap it from src, refill it in dst at the same addresses, swap in.
	var im mem.ThreadHeapImage
	if err := th.Snapshot(&im); err != nil {
		t.Fatal(err)
	}
	before := src.MappedPages()
	if err := th.Detach(); err != nil {
		t.Fatal(err)
	}
	if src.MappedPages() >= before {
		t.Errorf("Detach left the heap's pages in the source: %d mapped before, %d after", before, src.MappedPages())
	}
	if err := mem.NewThreadHeap(iso1, dst, 0).Restore(iso1, dst, &im); err != nil {
		t.Fatal(err)
	}
	if err := gotDst.Swap(in.Image()); err != nil {
		t.Fatal(err)
	}
	if v, err := gotDst.LoadUint64("iter"); err != nil || v != 77 {
		t.Errorf("migrated global = %d/%v, want 77", v, err)
	}
}

func TestGOTLayoutAccessorAndRestoreValidation(t *testing.T) {
	l, got, _, alloc := fixture(t)
	if got.Layout() != l {
		t.Error("Layout accessor wrong")
	}
	var back Instance
	if err := back.Restore(l, []uint64{1}); err == nil {
		t.Error("short Restore accepted")
	}
	in, err := NewInstance(l, alloc)
	if err != nil {
		t.Fatal(err)
	}
	var vars []uint64
	for _, a := range in.Image() {
		vars = append(vars, uint64(a))
	}
	if err := back.Restore(l, vars); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back.Image(), in.Image()) {
		t.Error("restored image differs")
	}
	if _, err := in.VarAddr("nope"); err == nil {
		t.Error("unknown var accepted")
	}
}
