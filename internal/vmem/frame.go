package vmem

import (
	"sync"
	"sync/atomic"
)

// Frame is one page of simulated physical memory. A Space gives an
// anonymous page its frame on first touch, so frames are the physical
// footprint. Frames are reference-counted so that memory-aliasing
// threads (§3.4.3) can map the same physical page at two virtual
// addresses (the thread's backing-store address and the canonical
// stack address) without copying.
//
// Reference counts are manipulated only under the owning Space's lock
// (or, for frames shared across spaces, under the locks of each space
// in turn; counts themselves are not atomic because every mutation
// happens inside a Space method).
//
// Each frame additionally carries a dirty bit: set by every store
// through Space.Write (and by MarkDirty for callers that
// mutate Data directly), cleared when the frame is recycled zeroed.
// The invariant the migration data path relies on is: a mapped page
// with no frame reads as zero, and a frame that is NOT dirty holds all
// zeroes, so sparse snapshots (Space.CopyOutRuns) may omit both and the
// destination can zero-fill.
// The bit is atomic because the Read/Write fast path mutates it
// lock-free through cached extents.
type Frame struct {
	data  [PageSize]byte
	refs  int
	dirty atomic.Bool
}

// NewFrame allocates one zeroed frame with a zero reference count; the
// first MapFrames that installs it takes the first reference.
func NewFrame() *Frame { return new(Frame) }

// framePool recycles frames that a Space gave to touched anonymous
// pages and fully unmapped again — stack-copy context switches and
// short-lived arenas churn frames at a rate worth keeping off the
// garbage collector. Frames installed by callers through MapFrames
// are never pooled (see Space.Unmap).
var framePool = sync.Pool{New: func() any { return new(Frame) }}

// newPooledFrame returns a zeroed frame from the pool; an untouched
// page reads as zero, and pooled frames carry old contents and old
// dirty bits.
func newPooledFrame() *Frame {
	f := framePool.Get().(*Frame)
	clear(f.data[:])
	f.dirty.Store(false)
	return f
}

// Data returns the frame's backing bytes. Callers must not retain the
// slice across Unmap of the last mapping, and callers that WRITE
// through it must call MarkDirty — otherwise sparse snapshots will
// treat the page as zero.
func (f *Frame) Data() []byte { return f.data[:] }

// Dirty reports whether the frame has been written since it was last
// zeroed.
func (f *Frame) Dirty() bool { return f.dirty.Load() }

// MarkDirty records a mutation made outside Space.Write (direct Data
// access).
func (f *Frame) MarkDirty() { f.dirty.Store(true) }

// markDirty is the write fast path's version: the load-then-store
// shape keeps repeated writes to a hot page from bouncing the cache
// line with redundant stores.
func (f *Frame) markDirty() {
	if !f.dirty.Load() {
		f.dirty.Store(true)
	}
}

// Refs returns the current mapping count (for tests and accounting).
func (f *Frame) Refs() int { return f.refs }

// mapping is one page-table entry, held by value: a protection plus
// the frame, nil until the page is first touched. owned marks frames
// the space allocated itself (touched anonymous pages), the only ones
// eligible for pooling when their last mapping goes away.
type mapping struct {
	frame *Frame
	prot  Prot
	owned bool
}
