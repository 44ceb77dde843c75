// Package mem provides the memory allocators of the runtime: a
// first-fit free-list heap over simulated virtual memory, the
// isomalloc globally-unique-address slot allocator of §3.4.2 (Fig 2),
// per-thread migratable heaps built on isomalloc slabs, and the
// malloc-interposition switch that routes in-thread allocations to
// isomalloc while runtime-internal allocations keep using the system
// heap.
package mem

import (
	"fmt"
	"sort"
	"sync"

	"migflow/internal/vmem"
)

// Align is the allocation granularity in bytes.
const Align = 16

// ErrOutOfMemory reports that a heap region is full.
type ErrOutOfMemory struct {
	Region vmem.Range
	Size   uint64
}

func (e *ErrOutOfMemory) Error() string {
	return fmt.Sprintf("mem: out of memory: %d bytes from %s", e.Size, e.Region)
}

// Block is one live allocation.
type Block struct {
	Addr vmem.Addr
	Size uint64
}

// Heap is a first-fit free-list allocator over one contiguous region
// of a simulated address space. Pages are mapped lazily as blocks are
// allocated and unmapped when the last block on them is freed, so
// physical frames track live data — the property isomalloc relies on
// ("we assign physical memory only to the addresses in use by local
// threads").
//
// Allocation metadata lives on the Go side, keyed by simulated
// address; for migratable thread heaps this metadata travels with the
// thread (see ThreadHeap).
type Heap struct {
	mu     sync.Mutex
	space  *vmem.Space
	region vmem.Range

	free    []Block // sorted by Addr, coalesced
	allocs  map[vmem.Addr]uint64
	pageRef map[uint64]int // vpn -> live blocks touching the page

	allocatedBytes uint64
}

// NewHeap creates a heap over region within space. The region must be
// page-aligned; its pages must not be mapped yet (the heap maps them
// on demand).
func NewHeap(space *vmem.Space, region vmem.Range) (*Heap, error) {
	if err := checkRegion("NewHeap", region); err != nil {
		return nil, err
	}
	return &Heap{
		space:   space,
		region:  region,
		free:    []Block{{Addr: region.Start, Size: region.Length}},
		allocs:  make(map[vmem.Addr]uint64),
		pageRef: make(map[uint64]int),
	}, nil
}

// checkRegion refuses a heap region that is empty, not page-aligned
// or wraps past the top of the address space.
func checkRegion(op string, region vmem.Range) error {
	if region.Start.Offset() != 0 || region.Length%vmem.PageSize != 0 || region.Length == 0 || region.End() < region.Start {
		return fmt.Errorf("mem: %s(%s): region must be non-empty and page-aligned", op, region)
	}
	return nil
}

// Region returns the heap's address range.
func (h *Heap) Region() vmem.Range { return h.region }

// Contains reports whether a was allocated from this heap.
func (h *Heap) Contains(a vmem.Addr) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.allocs[a]
	return ok
}

// Blocks returns all live blocks sorted by address (for migration and
// checkpointing).
func (h *Heap) Blocks() []Block {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Block, 0, len(h.allocs))
	for a, s := range h.allocs {
		out = append(out, Block{a, s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Alloc allocates size bytes (rounded up to Align) and returns the
// block's simulated address. The backing pages are mapped read-write
// and zeroed.
func (h *Heap) Alloc(size uint64) (vmem.Addr, error) {
	if size == 0 {
		size = Align
	}
	size = (size + Align - 1) &^ uint64(Align-1)
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.free {
		if h.free[i].Size < size {
			continue
		}
		addr := h.free[i].Addr
		h.free[i].Addr = h.free[i].Addr.Add(size)
		h.free[i].Size -= size
		if h.free[i].Size == 0 {
			h.free = append(h.free[:i], h.free[i+1:]...)
		}
		if err := h.refPagesLocked(addr, size); err != nil {
			// Roll the carve-out back before reporting.
			h.insertFreeLocked(Block{addr, size})
			return vmem.Nil, err
		}
		h.allocs[addr] = size
		h.allocatedBytes += size
		return addr, nil
	}
	return vmem.Nil, &ErrOutOfMemory{Region: h.region, Size: size}
}

// refPagesLocked maps (if needed) and references every page touched
// by [a, a+size).
func (h *Heap) refPagesLocked(a vmem.Addr, size uint64) error {
	first := a.PageNum()
	last := (a + vmem.Addr(size) - 1).PageNum()
	for vpn := first; vpn <= last; vpn++ {
		if h.pageRef[vpn] == 0 {
			if err := h.space.Map(vmem.Addr(vpn<<vmem.PageShift), vmem.PageSize, vmem.ProtRW); err != nil {
				// Unwind pages referenced so far in this call.
				for v := first; v < vpn; v++ {
					h.unrefPageLocked(v)
				}
				return err
			}
		}
		h.pageRef[vpn]++
	}
	return nil
}

func (h *Heap) unrefPageLocked(vpn uint64) {
	h.pageRef[vpn]--
	if h.pageRef[vpn] == 0 {
		delete(h.pageRef, vpn)
		// Ignore unmap errors: the page was mapped by refPagesLocked.
		_ = h.space.Unmap(vmem.Addr(vpn<<vmem.PageShift), vmem.PageSize)
	}
}

// Free releases the block at a, unmapping pages whose last block
// disappears.
func (h *Heap) Free(a vmem.Addr) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	size, ok := h.allocs[a]
	if !ok {
		return fmt.Errorf("mem: Free(%s): not an allocated block", a)
	}
	delete(h.allocs, a)
	h.allocatedBytes -= size
	first := a.PageNum()
	last := (a + vmem.Addr(size) - 1).PageNum()
	for vpn := first; vpn <= last; vpn++ {
		h.unrefPageLocked(vpn)
	}
	h.insertFreeLocked(Block{a, size})
	return nil
}

// insertFreeLocked inserts a block into the sorted free list,
// coalescing with neighbours.
func (h *Heap) insertFreeLocked(b Block) {
	i := sort.Search(len(h.free), func(i int) bool { return h.free[i].Addr > b.Addr })
	h.free = append(h.free, Block{})
	copy(h.free[i+1:], h.free[i:])
	h.free[i] = b
	// Coalesce with the next block.
	if i+1 < len(h.free) && h.free[i].Addr.Add(h.free[i].Size) == h.free[i+1].Addr {
		h.free[i].Size += h.free[i+1].Size
		h.free = append(h.free[:i+1], h.free[i+2:]...)
	}
	// Coalesce with the previous block.
	if i > 0 && h.free[i-1].Addr.Add(h.free[i-1].Size) == h.free[i].Addr {
		h.free[i-1].Size += h.free[i].Size
		h.free = append(h.free[:i], h.free[i+1:]...)
	}
}
