package mem

import "migflow/internal/vmem"

// Observers only tests use: heap and arena accounting, slot ownership
// and the paper's §3.4.2 address-space arithmetic.

// AllocatedBytes returns the total bytes in live blocks.
func (h *Heap) AllocatedBytes() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.allocatedBytes
}

// LiveBlocks returns the number of live allocations.
func (h *Heap) LiveBlocks() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.allocs)
}

// FreeSpace returns the total bytes on the free list.
func (h *Heap) FreeSpace() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n uint64
	for _, b := range h.free {
		n += b.Size
	}
	return n
}

// Owner returns which PE's slot contains a, or -1 if outside the
// region.
func (r IsoRegion) Owner(a vmem.Addr) int {
	if a < r.Start || a >= r.Start.Add(r.Size) {
		return -1
	}
	return int(uint64(a-r.Start) / r.SlotSize())
}

// AddressSpaceDemand returns the virtual bytes the whole region
// consumes on *every* processor — the n·s·p product that makes
// isomalloc infeasible on 32-bit machines (§3.4.2): with n threads
// per processor, s bytes per thread and p processors, at least n·s·p
// bytes of address space are used on each node.
func AddressSpaceDemand(threadsPerPE int, bytesPerThread uint64, numPEs int) uint64 {
	return uint64(threadsPerPE) * bytesPerThread * uint64(numPEs)
}

// AllocatedBytes sums live bytes across arenas.
func (t *ThreadHeap) AllocatedBytes() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, h := range t.arenas {
		n += h.AllocatedBytes()
	}
	return n
}

// Arenas returns the address ranges of all arenas (for migration: the
// pages to ship).
func (t *ThreadHeap) Arenas() []vmem.Range {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]vmem.Range, len(t.arenas))
	for i, h := range t.arenas {
		out[i] = h.Region()
	}
	return out
}

// InThread reports whether a thread allocator is active.
func (ip *Interposer) InThread() bool {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	return ip.current != nil
}
