package mem

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"migflow/internal/vmem"
)

// IsoRegion is the machine-wide isomalloc region of Figure 2: a range
// of virtual addresses, agreed on by all processors at startup,
// divided into equal per-processor slots. A processor grants local
// threads globally-unique address ranges from its own slot, so a
// thread's stack and heap keep their addresses wherever it migrates.
type IsoRegion struct {
	Start  vmem.Addr
	Size   uint64
	NumPEs int
}

// DefaultIsoBase is where the isomalloc region starts by default —
// "normally the largest space available lies between the process
// stack and the heap".
const DefaultIsoBase vmem.Addr = 0x4000_0000

// NewIsoRegion validates and returns a region. Size is rounded down
// to give every PE a whole number of pages.
func NewIsoRegion(start vmem.Addr, size uint64, numPEs int) (IsoRegion, error) {
	if numPEs <= 0 {
		return IsoRegion{}, fmt.Errorf("mem: NewIsoRegion: numPEs %d must be positive", numPEs)
	}
	if start.Offset() != 0 {
		return IsoRegion{}, fmt.Errorf("mem: NewIsoRegion: start %s must be page-aligned", start)
	}
	perPE := size / uint64(numPEs) &^ uint64(vmem.PageMask)
	if perPE == 0 {
		return IsoRegion{}, fmt.Errorf("mem: NewIsoRegion: size %d too small for %d PEs", size, numPEs)
	}
	return IsoRegion{Start: start, Size: perPE * uint64(numPEs), NumPEs: numPEs}, nil
}

// SlotSize returns the bytes of address space owned by each PE.
func (r IsoRegion) SlotSize() uint64 { return r.Size / uint64(r.NumPEs) }

// Slot returns PE pe's slice of the region.
func (r IsoRegion) Slot(pe int) vmem.Range {
	if pe < 0 || pe >= r.NumPEs {
		panic(fmt.Sprintf("mem: IsoRegion.Slot(%d): out of range [0,%d)", pe, r.NumPEs))
	}
	return vmem.Range{Start: r.Start.Add(uint64(pe) * r.SlotSize()), Length: r.SlotSize()}
}

// Range returns the whole region as a Range.
func (r IsoRegion) Range() vmem.Range { return vmem.Range{Start: r.Start, Length: r.Size} }

// IsoAllocator hands out page-granular, globally-unique address
// slabs from one PE's slot. It allocates *addresses*, not memory:
// callers map pages in their own address space. Freed slabs are
// recycled.
type IsoAllocator struct {
	pe     int
	region IsoRegion
	slot   vmem.Range

	mu   sync.Mutex
	next vmem.Addr
	free []Block // sorted, coalesced, page-granular
	live map[vmem.Addr]uint64
}

// NewIsoAllocator creates the allocator for PE pe of region r.
func NewIsoAllocator(r IsoRegion, pe int) *IsoAllocator {
	slot := r.Slot(pe)
	return &IsoAllocator{pe: pe, region: r, slot: slot, next: slot.Start, live: make(map[vmem.Addr]uint64)}
}

// Region returns the machine-wide region the allocator's slot belongs
// to.
func (a *IsoAllocator) Region() IsoRegion { return a.region }

// Slot returns the allocator's address range.
func (a *IsoAllocator) Slot() vmem.Range { return a.slot }

// AllocSlab reserves npages pages of globally-unique addresses and
// returns the base address. It fails with ErrOutOfMemory when the
// slot is exhausted — the per-PE share of the isomalloc region is a
// hard bound on locally-born thread state.
func (a *IsoAllocator) AllocSlab(npages uint64) (vmem.Addr, error) {
	if npages == 0 {
		return vmem.Nil, fmt.Errorf("mem: AllocSlab: zero pages")
	}
	size := npages * vmem.PageSize
	a.mu.Lock()
	defer a.mu.Unlock()
	// Reuse a freed slab range first.
	for i := range a.free {
		if a.free[i].Size >= size {
			addr := a.free[i].Addr
			a.free[i].Addr = a.free[i].Addr.Add(size)
			a.free[i].Size -= size
			if a.free[i].Size == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			a.live[addr] = size
			return addr, nil
		}
	}
	if uint64(a.slot.End()-a.next) < size {
		return vmem.Nil, &ErrOutOfMemory{Region: a.slot, Size: size}
	}
	addr := a.next
	a.next = a.next.Add(size)
	a.live[addr] = size
	return addr, nil
}

// ErrNotLiveSlab is FreeSlab's answer for an address this allocator
// did not grant or already took back — a thread that dies away from
// its birth PE frees its slab into the wrong allocator. It carries no
// address, so the common harmless case allocates nothing; a caller
// that reports it adds the address.
var ErrNotLiveSlab = errors.New("mem: FreeSlab: not a live slab")

// FreeSlab returns a slab's addresses to the allocator, or
// ErrNotLiveSlab.
func (a *IsoAllocator) FreeSlab(addr vmem.Addr) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	size, ok := a.live[addr]
	if !ok {
		return ErrNotLiveSlab
	}
	delete(a.live, addr)
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].Addr > addr })
	a.free = append(a.free, Block{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = Block{addr, size}
	if i+1 < len(a.free) && a.free[i].Addr.Add(a.free[i].Size) == a.free[i+1].Addr {
		a.free[i].Size += a.free[i+1].Size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].Addr.Add(a.free[i-1].Size) == a.free[i].Addr {
		a.free[i-1].Size += a.free[i].Size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	return nil
}

// LiveSlabs returns the number of outstanding slabs.
func (a *IsoAllocator) LiveSlabs() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.live)
}
