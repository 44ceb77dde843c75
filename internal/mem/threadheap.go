package mem

import (
	"fmt"
	"sync"

	"migflow/internal/vmem"
)

// DefaultArenaPages is the default size of a thread-heap arena (256
// KiB) — each arena is one isomalloc slab.
const DefaultArenaPages = 64

// ThreadHeap is the migratable per-thread heap of §3.4.2: every
// allocation lives in an isomalloc slab whose addresses are globally
// unique, so after migration no pointer into the heap needs updating.
// The metadata (arena list, block maps) travels with the thread in its
// image: Snapshot and Detach on departure, and Restore on arrival,
// which refills the arenas in the destination PE's address space and
// points future arena requests at its allocator.
type ThreadHeap struct {
	mu         sync.Mutex
	iso        *IsoAllocator
	space      *vmem.Space
	arenaPages uint64
	arenas     []*Heap
}

// NewThreadHeap creates an empty thread heap drawing arenas of
// arenaPages pages (DefaultArenaPages if 0) from iso, mapping them in
// space.
func NewThreadHeap(iso *IsoAllocator, space *vmem.Space, arenaPages uint64) *ThreadHeap {
	if arenaPages == 0 {
		arenaPages = DefaultArenaPages
	}
	return &ThreadHeap{iso: iso, space: space, arenaPages: arenaPages}
}

// Malloc allocates size bytes from the thread's isomalloc arenas,
// growing by one slab when full. Oversized requests get a dedicated
// slab.
func (t *ThreadHeap) Malloc(size uint64) (vmem.Addr, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, h := range t.arenas {
		a, err := h.Alloc(size)
		if err == nil {
			return a, nil
		}
		if _, full := err.(*ErrOutOfMemory); !full {
			return vmem.Nil, err
		}
	}
	pages := t.arenaPages
	if need := vmem.RoundUpPages(size+Align) / vmem.PageSize; need > pages {
		pages = need
	}
	base, err := t.iso.AllocSlab(pages)
	if err != nil {
		return vmem.Nil, err
	}
	h, err := NewHeap(t.space, vmem.Range{Start: base, Length: pages * vmem.PageSize})
	if err != nil {
		return vmem.Nil, err
	}
	t.arenas = append(t.arenas, h)
	return h.Alloc(size)
}

// Free releases a block allocated by Malloc.
func (t *ThreadHeap) Free(a vmem.Addr) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, h := range t.arenas {
		if h.Contains(a) {
			return h.Free(a)
		}
	}
	return fmt.Errorf("mem: ThreadHeap.Free(%s): address not in any arena", a)
}

// ReleaseAll frees every arena back to its birth allocator — called
// when the thread exits on its birth PE. (A thread that dies away
// from home keeps its slab addresses reserved; the paper's runtime
// does the same, reclaiming them only when the job ends.)
func (t *ThreadHeap) ReleaseAll() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var firstErr error
	for _, h := range t.arenas {
		for _, b := range h.Blocks() {
			if err := h.Free(b.Addr); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := t.iso.FreeSlab(h.Region().Start); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%w (%s)", err, h.Region().Start)
		}
	}
	t.arenas = nil
	return firstErr
}

// Allocator abstracts "who is malloc talking to": the system heap or
// a thread's isomalloc heap.
type Allocator interface {
	Malloc(size uint64) (vmem.Addr, error)
	Free(a vmem.Addr) error
}

// sysAlloc adapts Heap to Allocator.
type sysAlloc struct{ h *Heap }

func (s sysAlloc) Malloc(size uint64) (vmem.Addr, error) { return s.h.Alloc(size) }
func (s sysAlloc) Free(a vmem.Addr) error                { return s.h.Free(a) }

// AsAllocator adapts a plain Heap to the Allocator interface.
func AsAllocator(h *Heap) Allocator { return sysAlloc{h} }

// Interposer implements the paper's malloc-interposition scheme
// (§3.4.2): "we extended this approach by overriding the system
// malloc/free routines to use the new isomalloc/free when it is
// called within a thread. Of course, malloc/free called from outside
// the threading context ... is still directed to the normal system
// version." The scheduler Enters a thread's allocator before running
// it and Exits afterwards.
type Interposer struct {
	mu      sync.Mutex
	system  Allocator
	current Allocator // nil when outside any thread context
}

// NewInterposer creates an interposer whose out-of-thread allocator
// is system.
func NewInterposer(system Allocator) *Interposer {
	return &Interposer{system: system}
}

// Enter routes subsequent Mallocs to the thread allocator a.
func (ip *Interposer) Enter(a Allocator) {
	ip.mu.Lock()
	ip.current = a
	ip.mu.Unlock()
}

// Exit returns to the system allocator.
func (ip *Interposer) Exit() {
	ip.mu.Lock()
	ip.current = nil
	ip.mu.Unlock()
}

// Malloc allocates from the active thread allocator, or the system
// allocator outside thread context.
func (ip *Interposer) Malloc(size uint64) (vmem.Addr, error) {
	ip.mu.Lock()
	a := ip.current
	if a == nil {
		a = ip.system
	}
	ip.mu.Unlock()
	return a.Malloc(size)
}

// Free releases a block through the active allocator.
func (ip *Interposer) Free(addr vmem.Addr) error {
	ip.mu.Lock()
	a := ip.current
	if a == nil {
		a = ip.system
	}
	ip.mu.Unlock()
	return a.Free(addr)
}
