package mem

import (
	"cmp"
	"fmt"
	"slices"

	"migflow/internal/pup"
	"migflow/internal/vmem"
)

// HeapImage is the serialized form of one heap arena: its region, its
// live blocks (the allocation metadata that must travel with a
// migrating thread) and a sparse image of its mapped pages. Runs
// carries only pages the owner actually dirtied; Heap.Restore maps
// every block-referenced page zero-filled and overlays the runs, so
// heap bytes on the wire are proportional to written data, not to
// allocation footprint. Snapshot refills an image in place, carving
// run data from a page arena the image keeps.
type HeapImage struct {
	Start  uint64
	Length uint64
	Blocks []Block
	Runs   []vmem.Run

	pages []byte // arena Snapshot carves run data from; never shipped
}

// Pup implements pup.Pupable. The block count is validated against
// the remaining buffer before allocation (corrupt images cannot force
// a huge make), mirroring vmem.PupRuns for the page runs.
func (im *HeapImage) Pup(p *pup.PUPer) error {
	if err := p.Uint64(&im.Start); err != nil {
		return err
	}
	if err := p.Uint64(&im.Length); err != nil {
		return err
	}
	nb := uint32(len(im.Blocks))
	if err := p.Uint32(&nb); err != nil {
		return err
	}
	if p.IsUnpacking() {
		const blockWire = 16 // addr + size
		if int64(nb)*blockWire > int64(p.Remaining()) {
			return fmt.Errorf("mem: corrupt image: %d blocks claimed with %d bytes remaining", nb, p.Remaining())
		}
		im.Blocks = pup.Resize(p, im.Blocks, int(nb))
	}
	for i := range im.Blocks {
		a := uint64(im.Blocks[i].Addr)
		if err := p.Uint64(&a); err != nil {
			return err
		}
		if err := p.Uint64(&im.Blocks[i].Size); err != nil {
			return err
		}
		im.Blocks[i].Addr = vmem.Addr(a)
	}
	return vmem.PupRuns(p, &im.Runs)
}

// Snapshot captures the heap for migration into im, refilling it in
// place: blocks plus the dirty mapped pages, read out of the current
// address space in one sparse pass. Dirty bits are left standing — a
// heap that is snapshotted twice without migrating must produce the
// same image twice.
func (h *Heap) Snapshot(im *HeapImage) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	im.Start, im.Length = uint64(h.region.Start), h.region.Length
	im.Blocks = im.Blocks[:0]
	for a, s := range h.allocs {
		im.Blocks = append(im.Blocks, Block{a, s})
	}
	slices.SortFunc(im.Blocks, func(a, b Block) int { return cmp.Compare(a.Addr, b.Addr) })
	var err error
	im.Runs, im.pages, err = h.space.CopyOutRuns(im.Runs[:0], im.pages[:0], h.region.Start, h.region.Length)
	if err != nil {
		return fmt.Errorf("mem: Snapshot: %w", err)
	}
	return nil
}

// Detach unmaps the heap's pages from its current space without
// touching metadata — the source-side teardown after Snapshot.
func (h *Heap) Detach() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for vpn := range h.pageRef {
		if err := h.space.Unmap(vmem.Addr(vpn<<vmem.PageShift), vmem.PageSize); err != nil {
			return err
		}
	}
	return nil
}

// Restore refills h from an image in a destination space — the
// zero Heap, or one whose pages were detached from its old space.
// Every block-referenced page is mapped zero-filled at its identical
// address, the shipped runs are written over them, and the free list
// is reconstructed as the complement of the blocks. Pages the source
// never dirtied arrive as the zero fill — exactly what they held. The
// image is checked before any page is mapped; h's maps and free list
// are cleared and refilled, not remade.
func (h *Heap) Restore(space *vmem.Space, im *HeapImage) error {
	region := vmem.Range{Start: vmem.Addr(im.Start), Length: im.Length}
	if err := checkRegion("Restore", region); err != nil {
		return err
	}
	if err := vmem.ValidateRuns(im.Runs, region.Start, im.Length); err != nil {
		return fmt.Errorf("mem: Restore: bad image: %w", err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.space, h.region = space, region
	h.free, h.allocatedBytes = h.free[:0], 0
	if h.allocs == nil {
		h.allocs, h.pageRef = make(map[vmem.Addr]uint64), make(map[uint64]int)
	} else {
		clear(h.allocs)
		clear(h.pageRef)
	}
	// Rebuild allocation metadata and the free-list complement.
	cursor := region.Start
	for _, b := range im.Blocks {
		if b.Size == 0 || b.Addr < cursor || b.Addr.Add(b.Size) > region.End() || b.Addr.Add(b.Size) < b.Addr {
			return fmt.Errorf("mem: Restore: block %s+%d outside region or overlapping", b.Addr, b.Size)
		}
		if b.Addr > cursor {
			h.free = append(h.free, Block{cursor, uint64(b.Addr - cursor)})
		}
		h.allocs[b.Addr] = b.Size
		h.allocatedBytes += b.Size
		first := b.Addr.PageNum()
		last := (b.Addr + vmem.Addr(b.Size) - 1).PageNum()
		for vpn := first; vpn <= last; vpn++ {
			h.pageRef[vpn]++
		}
		cursor = b.Addr.Add(b.Size)
	}
	if cursor < region.End() {
		h.free = append(h.free, Block{cursor, uint64(region.End() - cursor)})
	}
	// Every shipped page must be covered by a block, or the image is
	// inconsistent with its own metadata.
	for _, run := range im.Runs {
		for off := uint64(0); off < uint64(len(run.Data)); off += vmem.PageSize {
			vpn := run.Addr.Add(off).PageNum()
			if _, ok := h.pageRef[vpn]; !ok {
				return fmt.Errorf("mem: Restore: image page %#x has no covering block", vpn)
			}
		}
	}
	// Map every referenced page zero-filled, in address order: blocks
	// are ascending and disjoint, so a page is new exactly when it lies
	// past the last one mapped.
	next := uint64(0)
	for _, b := range im.Blocks {
		first := max(b.Addr.PageNum(), next)
		last := (b.Addr + vmem.Addr(b.Size) - 1).PageNum()
		for vpn := first; vpn <= last; vpn++ {
			if err := space.Map(vmem.Addr(vpn<<vmem.PageShift), vmem.PageSize, vmem.ProtRW); err != nil {
				return err
			}
		}
		next = max(next, last+1)
	}
	return space.CopyInRuns(im.Runs)
}

// ThreadHeapImage is the serialized form of a whole thread heap.
type ThreadHeapImage struct {
	ArenaPages uint64
	Arenas     []HeapImage
}

// Pup implements pup.Pupable.
func (im *ThreadHeapImage) Pup(p *pup.PUPer) error {
	if err := p.Uint64(&im.ArenaPages); err != nil {
		return err
	}
	n := uint32(len(im.Arenas))
	if err := p.Uint32(&n); err != nil {
		return err
	}
	if p.IsUnpacking() {
		// An arena encodes at least start+length+2 counts = 24 bytes.
		if int64(n)*24 > int64(p.Remaining()) {
			return fmt.Errorf("mem: corrupt image: %d arenas claimed with %d bytes remaining", n, p.Remaining())
		}
		im.Arenas = pup.Resize(p, im.Arenas, int(n))
	}
	for i := range im.Arenas {
		if err := im.Arenas[i].Pup(p); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot captures all arenas into im, refilling it in place: each
// arena's image keeps its own block list, run list and page arena.
func (t *ThreadHeap) Snapshot(im *ThreadHeapImage) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	im.ArenaPages = t.arenaPages
	if cap(im.Arenas) < len(t.arenas) {
		im.Arenas = make([]HeapImage, len(t.arenas))
	}
	im.Arenas = im.Arenas[:len(t.arenas)]
	for i, h := range t.arenas {
		if err := h.Snapshot(&im.Arenas[i]); err != nil {
			return err
		}
	}
	return nil
}

// Detach unmaps every arena's pages from the source space. Slabs are
// NOT freed: the thread's address ranges stay allocated machine-wide
// while it lives, so migrating back later cannot collide.
func (t *ThreadHeap) Detach() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, h := range t.arenas {
		if err := h.Detach(); err != nil {
			return err
		}
	}
	return nil
}

// Restore refills the thread heap on the destination PE from an
// image: every arena's pages appear at identical addresses, and new
// arenas will come from the destination's allocator. The heap's arenas
// are refilled in place (Heap.Restore); the image decides how many
// there are. Every arena must lie inside the isomalloc region, as a
// slab of it does, which bounds what a corrupt image can map.
func (t *ThreadHeap) Restore(iso *IsoAllocator, space *vmem.Space, im *ThreadHeapImage) error {
	region := iso.Region().Range()
	for i := range im.Arenas {
		a := vmem.Range{Start: vmem.Addr(im.Arenas[i].Start), Length: im.Arenas[i].Length}
		if !region.Covers(a) {
			return fmt.Errorf("mem: Restore: arena %s outside the isomalloc region %s", a, region)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.iso, t.space = iso, space
	t.arenaPages = im.ArenaPages
	if t.arenaPages == 0 {
		t.arenaPages = DefaultArenaPages
	}
	for len(t.arenas) < len(im.Arenas) {
		t.arenas = append(t.arenas, new(Heap))
	}
	clear(t.arenas[len(im.Arenas):])
	t.arenas = t.arenas[:len(im.Arenas)]
	for i, h := range t.arenas {
		if err := h.Restore(space, &im.Arenas[i]); err != nil {
			return err
		}
	}
	return nil
}
