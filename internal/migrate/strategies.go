// Package migrate implements the paper's three thread-migration
// techniques (§3.4) as converse.StackStrategy implementations, plus
// the migration engine that extracts a thread's full migratable state
// (stack, heap, privatized globals), serializes it with PUP, and
// installs it on a destination PE:
//
//   - StackCopy (§3.4.1): every thread executes at one canonical
//     stack address; each context switch copies the live stack bytes
//     out/in. Migration is trivial; switching costs grow with stack
//     use (Figure 9) and only one thread may be active per address
//     space.
//   - Isomalloc (§3.4.2, Figure 2): each stack gets globally unique
//     addresses from the PE's isomalloc slot; context switches move
//     nothing; migration copies pages to identical addresses. Costs
//     virtual address space proportional to *all* threads machine-
//     wide — fatal on 32-bit nodes.
//   - MemoryAlias (§3.4.3, Figure 3): stacks live in physical frames;
//     each switch maps the incoming thread's frames at the canonical
//     address (one simulated mmap) instead of copying. Small address
//     space use, no copying, but a per-switch remap cost and the
//     exclusive-activation limit.
package migrate

import (
	"encoding/binary"
	"fmt"

	"migflow/internal/converse"
	"migflow/internal/platform"
	"migflow/internal/vmem"
)

// Strategy names (StackImage.Strategy values).
const (
	NameStackCopy = "stackcopy"
	NameIsomalloc = "isomalloc"
	NameMemAlias  = "memalias"
)

// All returns the three strategies in Table 1 row order.
func All() []converse.StackStrategy {
	return []converse.StackStrategy{StackCopy{}, Isomalloc{}, MemoryAlias{}}
}

// checkSupported refuses techniques the platform cannot run,
// enforcing Table 1 at thread-creation time ("No" fails; "Maybe"
// fails too — no implementation exists on that machine).
func checkSupported(pe *converse.PE, tech platform.Technique) error {
	if s := pe.Prof.Supports(tech); s != platform.Yes {
		return fmt.Errorf("migrate: %s is %s on %s", tech, s, pe.Prof.Name)
	}
	return nil
}

// checkPageMultiple enforces the shared stack-size contract: every
// strategy works in whole pages (sparse images, frame lists and iso
// slabs all assume it), so a size that is not a positive page
// multiple is rejected identically everywhere instead of being
// silently truncated by one strategy and padded by another.
func checkPageMultiple(strategy string, size uint64) error {
	if size == 0 || size%vmem.PageSize != 0 {
		return fmt.Errorf("migrate: %s: stack size %d is not a positive multiple of the %d-byte page (round with vmem.RoundUpPages)",
			strategy, size, vmem.PageSize)
	}
	return nil
}

// checkImage validates an untrusted incoming StackImage before any of
// its runs are written into mapped memory. Stack copying and memory
// aliasing run every stack at the canonical address, so their images
// must be based there; run offsets are taken against the base.
func checkImage(strategy string, im *converse.StackImage) error {
	if strategy != NameIsomalloc && im.Base != uint64(converse.CanonicalStackBase) {
		return fmt.Errorf("migrate: %s: image base %#x differs from canonical %#x — stack bases must agree across nodes",
			strategy, im.Base, uint64(converse.CanonicalStackBase))
	}
	if err := checkPageMultiple(strategy, im.Size); err != nil {
		return err
	}
	if err := vmem.ValidateRuns(im.Runs, vmem.Addr(im.Base), im.Size); err != nil {
		return fmt.Errorf("migrate: %s: bad image: %w", strategy, err)
	}
	return nil
}

// isZeroPage reports whether b is all zero bytes (stack-copy's sparse
// scan). b is always a whole page, so the 8-byte strides never leave
// a tail.
func isZeroPage(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------
// Stack copying (§3.4.1)

// StackCopy is the naive technique: one system-wide stack address,
// data copied in and out around every run.
type StackCopy struct{}

type stackCopyRef struct {
	size    uint64
	backing []byte // stack contents while switched out
	in      bool
	// maxUsed is the high-water live-byte count ever copied out to
	// backing. Stacks grow down and backing starts zeroed, so bytes
	// below size-maxUsed have never been written — Extract's sparse
	// scan can skip them without looking.
	maxUsed uint64
}

func (r *stackCopyRef) Base() vmem.Addr { return converse.CanonicalStackBase }
func (r *stackCopyRef) Size() uint64    { return r.size }

// Name implements converse.StackStrategy.
func (StackCopy) Name() string { return NameStackCopy }

// Exclusive implements converse.StackStrategy: only one stack-copy
// thread can occupy the canonical address.
func (StackCopy) Exclusive() bool { return true }

// New allocates the thread's backing store. It fails on platforms
// whose system stack base differs across nodes (stack-address
// randomization) — the Table 1 restriction.
func (StackCopy) New(pe *converse.PE, size uint64) (converse.StackRef, error) {
	if err := checkSupported(pe, platform.StackCopy); err != nil {
		return nil, err
	}
	if err := checkPageMultiple(NameStackCopy, size); err != nil {
		return nil, err
	}
	return &stackCopyRef{size: size, backing: make([]byte, size)}, nil
}

// SwitchIn maps the canonical region and copies the live stack bytes
// into place, charging the platform's memcpy cost for the bytes
// moved.
func (StackCopy) SwitchIn(pe *converse.PE, s converse.StackRef, used uint64) error {
	r := s.(*stackCopyRef)
	if r.in {
		return fmt.Errorf("migrate: stackcopy: double switch-in")
	}
	if err := pe.Space.Map(r.Base(), r.size, vmem.ProtRW); err != nil {
		return err
	}
	if used > 0 {
		// The live region is the top `used` bytes (stacks grow down).
		off := r.size - used
		if err := pe.Space.Write(r.Base().Add(off), r.backing[off:]); err != nil {
			return err
		}
	}
	pe.Clock.Advance(pe.Prof.MemcpyPerKB * float64(used) / 1024)
	r.in = true
	return nil
}

// SwitchOut copies the live bytes back to the backing store and
// unmaps the canonical region.
func (StackCopy) SwitchOut(pe *converse.PE, s converse.StackRef, used uint64) error {
	r := s.(*stackCopyRef)
	if !r.in {
		return fmt.Errorf("migrate: stackcopy: switch-out while not in")
	}
	if used > 0 {
		off := r.size - used
		if err := pe.Space.Read(r.Base().Add(off), r.backing[off:]); err != nil {
			return err
		}
		if used > r.maxUsed {
			r.maxUsed = used
		}
	}
	if err := pe.Space.Unmap(r.Base(), r.size); err != nil {
		return err
	}
	pe.Clock.Advance(pe.Prof.MemcpyPerKB * float64(used) / 1024)
	r.in = false
	return nil
}

// Extract captures the backing store as a sparse image; because every
// node uses the same canonical address, "migrating a thread is
// simple". The run data is copied — the image must stay valid even if
// the source ref is switched in or released afterwards — and all-zero
// pages are dropped (a deep stack that has unwound ships almost
// nothing).
func (StackCopy) Extract(pe *converse.PE, s converse.StackRef, im *converse.StackImage) error {
	r := s.(*stackCopyRef)
	if r.in {
		return fmt.Errorf("migrate: stackcopy: extract while switched in")
	}
	im.Reset(NameStackCopy, uint64(r.Base()), r.size)
	// Only the high-water live region can be nonzero; start the scan
	// at its page boundary.
	start := (r.size - min(r.maxUsed, r.size)) &^ (vmem.PageSize - 1)
	for off := start; off < r.size; off += vmem.PageSize {
		if page := r.backing[off : off+vmem.PageSize]; !isZeroPage(page) {
			im.AppendPage(r.Base().Add(off), page)
		}
	}
	return nil
}

// Install recreates the backing store on the destination, refilling
// old's when it is a switched-out stack-copy stack of the same size.
func (StackCopy) Install(pe *converse.PE, im *converse.StackImage, old converse.StackRef) (converse.StackRef, error) {
	if err := checkSupported(pe, platform.StackCopy); err != nil {
		return nil, err
	}
	if err := checkImage(NameStackCopy, im); err != nil {
		return nil, err
	}
	// The zeroed backing store is the zero fill; runs overlay the
	// dirty pages. The live high-water mark resumes at the lowest
	// shipped page (everything below it is zero by construction).
	r, ok := old.(*stackCopyRef)
	if ok && !r.in && uint64(len(r.backing)) == im.Size {
		clear(r.backing)
	} else {
		r = &stackCopyRef{backing: make([]byte, im.Size)}
	}
	r.size, r.maxUsed = im.Size, 0
	for _, run := range im.Runs {
		copy(r.backing[run.Addr-vmem.Addr(im.Base):], run.Data)
	}
	if len(im.Runs) > 0 {
		r.maxUsed = im.Size - uint64(im.Runs[0].Addr-vmem.Addr(im.Base))
	}
	return r, nil
}

// Release drops the backing store.
func (StackCopy) Release(pe *converse.PE, s converse.StackRef) error {
	r := s.(*stackCopyRef)
	if r.in {
		if err := pe.Space.Unmap(r.Base(), r.size); err != nil {
			return err
		}
		r.in = false
	}
	r.backing = nil
	return nil
}

// ---------------------------------------------------------------
// Isomalloc (§3.4.2)

// Isomalloc gives each stack globally-unique addresses; switches are
// free, migration copies pages to identical addresses on the
// destination. A PROT_NONE guard page sits below every stack, so
// running off the bottom faults immediately instead of silently
// corrupting the adjacent slab (another thread's stack or heap).
type Isomalloc struct{}

type isoRef struct {
	base vmem.Addr // usable base (guard page sits just below)
	size uint64
}

func (r *isoRef) Base() vmem.Addr { return r.base }
func (r *isoRef) Size() uint64    { return r.size }

// slab returns the underlying allocation (guard + stack).
func (r *isoRef) slab() (vmem.Addr, uint64) {
	return r.base - vmem.PageSize, r.size + vmem.PageSize
}

// Name implements converse.StackStrategy.
func (Isomalloc) Name() string { return NameIsomalloc }

// Exclusive implements converse.StackStrategy: unique addresses mean
// any number of isomalloc threads can be active, "which allows the
// straightforward exploitation of SMP machines".
func (Isomalloc) Exclusive() bool { return false }

// New carves a slab of globally-unique addresses from the PE's
// isomalloc slot and maps it: address space claimed, no frame yet —
// each stack page gets one when the thread first touches it. On 32-bit
// platforms this is where address space runs out.
func (Isomalloc) New(pe *converse.PE, size uint64) (converse.StackRef, error) {
	if err := checkSupported(pe, platform.Isomalloc); err != nil {
		return nil, err
	}
	if err := checkPageMultiple(NameIsomalloc, size); err != nil {
		return nil, err
	}
	slabBase, err := pe.Iso.AllocSlab(size/vmem.PageSize + 1)
	if err != nil {
		return nil, err
	}
	if err := mapIsoStack(pe, slabBase, size); err != nil {
		_ = pe.Iso.FreeSlab(slabBase)
		return nil, err
	}
	return &isoRef{base: slabBase + vmem.PageSize, size: size}, nil
}

// mapIsoStack installs the guard page and the usable stack region.
func mapIsoStack(pe *converse.PE, slabBase vmem.Addr, size uint64) error {
	if err := pe.Space.Map(slabBase, vmem.PageSize, vmem.ProtNone); err != nil {
		return err
	}
	if err := pe.Space.Map(slabBase+vmem.PageSize, size, vmem.ProtRW); err != nil {
		_ = pe.Space.Unmap(slabBase, vmem.PageSize)
		return err
	}
	return nil
}

// SwitchIn is free: "no data needs to be moved when switching
// threads".
func (Isomalloc) SwitchIn(pe *converse.PE, s converse.StackRef, used uint64) error { return nil }

// SwitchOut is likewise free.
func (Isomalloc) SwitchOut(pe *converse.PE, s converse.StackRef, used uint64) error { return nil }

// Extract copies the stack's dirty pages out as sparse runs and
// unmaps the slab locally; the addresses stay reserved machine-wide,
// so the destination can map the same range. Pages the thread never
// wrote are still zero (never touched, or touched by reads only) and
// ship as nothing.
func (Isomalloc) Extract(pe *converse.PE, s converse.StackRef, im *converse.StackImage) error {
	r := s.(*isoRef)
	im.Reset(NameIsomalloc, uint64(r.base), r.size)
	if err := im.AppendDirty(pe.Space, r.base, r.size); err != nil {
		return err
	}
	// The slab is NOT returned to the allocator: the range belongs to
	// the thread machine-wide for as long as it lives, so it stays
	// free for the thread to map wherever it migrates.
	slabBase, slabSize := r.slab()
	return pe.Space.Unmap(slabBase, slabSize)
}

// Install maps the same unique addresses on the destination, which
// costs no frames, and writes the shipped runs back, which gives
// exactly their pages frames — no pointer inside the stack needs
// updating, and unshipped pages read as zero. The handle is old when
// old names the same stack (it is address and size only).
func (Isomalloc) Install(pe *converse.PE, im *converse.StackImage, old converse.StackRef) (converse.StackRef, error) {
	if err := checkSupported(pe, platform.Isomalloc); err != nil {
		return nil, err
	}
	if err := checkImage(NameIsomalloc, im); err != nil {
		return nil, err
	}
	// The slab, guard page included, must be one of the isomalloc
	// region's: any other address could be the system heap's or the
	// GOT's.
	base := vmem.Addr(im.Base)
	slab := vmem.Range{Start: base - vmem.PageSize, Length: im.Size + vmem.PageSize}
	if region := pe.Iso.Region().Range(); base < vmem.PageSize || im.Size >= region.Length || !region.Covers(slab) {
		return nil, fmt.Errorf("migrate: isomalloc: stack %s outside the isomalloc region %s", slab, region)
	}
	if err := mapIsoStack(pe, slab.Start, im.Size); err != nil {
		return nil, err
	}
	if err := pe.Space.CopyInRuns(im.Runs); err != nil {
		return nil, err
	}
	if r, ok := old.(*isoRef); ok && r.base == base && r.size == im.Size {
		return r, nil
	}
	return &isoRef{base: base, size: im.Size}, nil
}

// Release unmaps the stack and, on the birth PE, returns the slab.
func (Isomalloc) Release(pe *converse.PE, s converse.StackRef) error {
	r := s.(*isoRef)
	slabBase, slabSize := r.slab()
	if err := pe.Space.Unmap(slabBase, slabSize); err != nil {
		return err
	}
	// FreeSlab fails harmlessly when the thread dies away from home;
	// the address range stays reserved, as in the paper's runtime.
	_ = pe.Iso.FreeSlab(slabBase)
	return nil
}

// ---------------------------------------------------------------
// Memory aliasing (§3.4.3, Figure 3)

// MemoryAlias stores each stack in physical frames and maps them at
// the canonical address to run the thread — "simulating the copy
// using the virtual memory hardware".
//
// UseMicrokernelExt enables the technique on machines without mmap
// but with the paper's proposed microkernel extension (§3.4.4: "we
// have shown our scheme for memory aliasing can be supported by
// adding a small extension to the BlueGene/L microkernel to allow
// user processes to remap their heap data over the stack location").
type MemoryAlias struct {
	UseMicrokernelExt bool
}

type aliasRef struct {
	size   uint64
	frames []*vmem.Frame
	in     bool
}

func (r *aliasRef) Base() vmem.Addr { return converse.CanonicalStackBase }
func (r *aliasRef) Size() uint64    { return r.size }

// Name implements converse.StackStrategy.
func (MemoryAlias) Name() string { return NameMemAlias }

// Exclusive implements converse.StackStrategy: like stack copying,
// only one thread can occupy the canonical address at a time.
func (MemoryAlias) Exclusive() bool { return true }

// supported checks Table 1 plus the microkernel-extension escape.
func (m MemoryAlias) supported(pe *converse.PE) error {
	if m.UseMicrokernelExt && pe.Prof.HeapRemapExt {
		return nil // the paper's BG/L extension is in play
	}
	return checkSupported(pe, platform.MemoryAlias)
}

// New allocates the thread's physical frames; no virtual addresses
// are consumed until the thread runs.
func (m MemoryAlias) New(pe *converse.PE, size uint64) (converse.StackRef, error) {
	if err := m.supported(pe); err != nil {
		return nil, err
	}
	// Whole pages only: size/PageSize would otherwise drop a trailing
	// partial page and silently lose stack bytes.
	if err := checkPageMultiple(NameMemAlias, size); err != nil {
		return nil, err
	}
	frames := make([]*vmem.Frame, size/vmem.PageSize)
	for i := range frames {
		frames[i] = vmem.NewFrame()
	}
	return &aliasRef{size: size, frames: frames}, nil
}

// SwitchIn maps the thread's frames at the canonical stack address —
// one mmap call plus per-page page-table work, no data copied.
func (MemoryAlias) SwitchIn(pe *converse.PE, s converse.StackRef, used uint64) error {
	r := s.(*aliasRef)
	if r.in {
		return fmt.Errorf("migrate: memalias: double switch-in")
	}
	if err := pe.Space.MapFrames(r.Base(), r.frames, vmem.ProtRW); err != nil {
		return err
	}
	pe.Clock.Advance(pe.Prof.MmapCall + pe.Prof.PageMapCost*float64(len(r.frames)))
	r.in = true
	return nil
}

// SwitchOut unmaps the canonical region; the frames retain the data.
func (MemoryAlias) SwitchOut(pe *converse.PE, s converse.StackRef, used uint64) error {
	r := s.(*aliasRef)
	if !r.in {
		return fmt.Errorf("migrate: memalias: switch-out while not in")
	}
	if err := pe.Space.Unmap(r.Base(), r.size); err != nil {
		return err
	}
	pe.Clock.Advance(pe.Prof.MmapCall + pe.Prof.PageMapCost*float64(len(r.frames)))
	r.in = false
	return nil
}

// Extract serializes the dirty frames' contents as sparse runs
// (frames the thread never wrote are still zero and ship as
// nothing). Run data is copied out of the frames so the image stays
// valid after the ref is released.
func (MemoryAlias) Extract(pe *converse.PE, s converse.StackRef, im *converse.StackImage) error {
	r := s.(*aliasRef)
	if r.in {
		return fmt.Errorf("migrate: memalias: extract while switched in")
	}
	im.Reset(NameMemAlias, uint64(r.Base()), r.size)
	for i, f := range r.frames {
		if f.Dirty() {
			im.AppendPage(r.Base().Add(uint64(i)*vmem.PageSize), f.Data())
		}
	}
	return nil
}

// Install rebuilds the frames on the destination: fresh zero frames
// for the whole stack, shipped runs copied over their pages. The
// copied frames are marked dirty by hand — the bytes arrive through
// Frame.Data, not Space.Write, and a clean frame must stay all-zero
// or the *next* extract would drop live pages. old is not reused:
// each move gives the stack new frames.
func (m MemoryAlias) Install(pe *converse.PE, im *converse.StackImage, old converse.StackRef) (converse.StackRef, error) {
	if err := m.supported(pe); err != nil {
		return nil, err
	}
	if err := checkImage(NameMemAlias, im); err != nil {
		return nil, err
	}
	r := &aliasRef{size: im.Size, frames: make([]*vmem.Frame, im.Size/vmem.PageSize)}
	for i := range r.frames {
		r.frames[i] = vmem.NewFrame()
	}
	for _, run := range im.Runs {
		fi := (uint64(run.Addr) - im.Base) / vmem.PageSize
		for off := uint64(0); off < uint64(len(run.Data)); off += vmem.PageSize {
			f := r.frames[fi+off/vmem.PageSize]
			copy(f.Data(), run.Data[off:off+vmem.PageSize])
			f.MarkDirty()
		}
	}
	return r, nil
}

// Release drops the frames.
func (MemoryAlias) Release(pe *converse.PE, s converse.StackRef) error {
	r := s.(*aliasRef)
	if r.in {
		if err := pe.Space.Unmap(r.Base(), r.size); err != nil {
			return err
		}
		r.in = false
	}
	r.frames = nil
	return nil
}
