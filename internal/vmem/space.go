package vmem

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Space is one simulated virtual address space: a page table mapping
// virtual page numbers to their protection and, once touched, their
// physical frames, plus reservation accounting against a configurable
// virtual-size limit.
//
// Anonymous mappings are demand-zero, like real mmap: Map records
// pages, and a page gets its frame on first access. Until then it
// costs one page-table entry and reads as zero. So an isomalloc stack
// costs the pages its thread touches, not the pages it reserved.
//
// In the simulated machine each OS process (and therefore each PE's
// user-level-thread job) owns one Space. The Limit models the
// platform's pointer width: 32-bit platforms get a ~3 GiB usable
// limit, 64-bit platforms an effectively unbounded one. Reservations
// model isomalloc's "claimed in principle, but never allocated
// physical memory" regions (§3.4.2): they consume virtual size but no
// frames.
type Space struct {
	mu sync.RWMutex

	// limit is the virtual-size budget in bytes (0 = unlimited).
	limit uint64

	// pages holds entries by value: mapping a page allocates nothing.
	pages map[uint64]mapping

	// reserved is a sorted, non-overlapping set of reserved ranges.
	reserved []Range

	// mappedOutside counts pages mapped outside any reserved range;
	// together with reservedBytes it forms the virtual-size usage.
	mappedOutside uint64
	reservedBytes uint64

	// gen counts page-table mutations (map, unmap, protect). Cached
	// extents record the gen they were built at; a mismatch
	// invalidates them — the software analogue of a TLB flush.
	gen atomic.Uint64

	// tlb caches recently resolved extents — maximal runs of
	// contiguous touched pages with uniform protection — so the
	// Read/Write hot path resolves a run once instead of probing the
	// page map (under the lock) once per touched page.
	tlbClock atomic.Uint32
	tlb      [tlbSlots]atomic.Pointer[extent]
}

const (
	// tlbSlots is the number of cached extents per space: small and
	// fully associative, like a hardware micro-TLB. Typical access
	// streams (stack walk, PUP of one region, heap arena) touch a
	// handful of distinct runs.
	tlbSlots = 4
	// maxExtentPages caps how far an extent resolves in one fill, and
	// so how many pages one fault gives frames, so building one stays
	// cheap even inside a multi-megabyte mapping.
	maxExtentPages = 512
)

// extent is one resolved run of touched pages: frames[i] backs page
// vpn0+i, all with protection prot, valid while the space's gen is
// unchanged. Giving an untouched page its frame does not bump gen: no
// extent covers an untouched page.
type extent struct {
	start, end Addr // [start, end) byte range
	vpn0       uint64
	prot       Prot
	frames     []*Frame
	gen        uint64
}

// Range is a half-open byte range [Start, Start+Length) of virtual
// addresses.
type Range struct {
	Start  Addr
	Length uint64
}

// End returns the first address past the range.
func (r Range) End() Addr { return r.Start.Add(r.Length) }

// Contains reports whether a lies inside the range.
func (r Range) Contains(a Addr) bool { return a >= r.Start && a < r.End() }

// Overlaps reports whether two ranges share any address.
func (r Range) Overlaps(o Range) bool {
	return r.Start < o.End() && o.Start < r.End()
}

func (r Range) String() string {
	return fmt.Sprintf("[%s,%s)", r.Start, r.End())
}

// NewSpace creates an address space with the given virtual-size limit
// in bytes; limit 0 means unlimited (a 64-bit machine).
func NewSpace(limit uint64) *Space {
	return &Space{limit: limit, pages: make(map[uint64]mapping)}
}

// Limit returns the configured virtual-size limit (0 = unlimited).
func (s *Space) Limit() uint64 { return s.limit }

// VirtualInUse returns the bytes of virtual address space currently
// consumed (reservations plus pages mapped outside reservations).
func (s *Space) VirtualInUse() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.virtualInUseLocked()
}

func (s *Space) virtualInUseLocked() uint64 {
	return s.reservedBytes + s.mappedOutside*PageSize
}

// MappedPages returns the number of mapped pages, touched or not.
func (s *Space) MappedPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}

// ResidentPages returns the number of mapped pages that have a frame:
// the space's physical footprint, in pages.
func (s *Space) ResidentPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, m := range s.pages {
		if m.frame != nil {
			n++
		}
	}
	return n
}

// inReserved reports whether virtual page vpn lies inside a reserved
// range. Caller holds s.mu.
func (s *Space) inReservedLocked(vpn uint64) bool {
	a := Addr(vpn << PageShift)
	i := sort.Search(len(s.reserved), func(i int) bool {
		return s.reserved[i].End() > a
	})
	return i < len(s.reserved) && s.reserved[i].Contains(a)
}

// Reserve claims [a, a+length) as reserved virtual address space
// without installing frames. The range must be page-aligned and must
// not overlap an existing reservation. Reserving counts against the
// space's virtual-size limit — this is how isomalloc regions exhaust
// 32-bit address spaces.
func (s *Space) Reserve(a Addr, length uint64) error {
	if a.Offset() != 0 || length%PageSize != 0 || length == 0 {
		return fmt.Errorf("vmem: Reserve(%s, %d): range must be non-empty and page-aligned", a, length)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := Range{a, length}
	for _, o := range s.reserved {
		if r.Overlaps(o) {
			return fmt.Errorf("vmem: Reserve(%s, %d): overlaps existing reservation %s", a, length, o)
		}
	}
	if s.limit != 0 && s.virtualInUseLocked()+length > s.limit {
		return &ErrExhausted{Limit: s.limit, Requested: length, InUse: s.virtualInUseLocked()}
	}
	s.reserved = append(s.reserved, r)
	sort.Slice(s.reserved, func(i, j int) bool { return s.reserved[i].Start < s.reserved[j].Start })
	s.reservedBytes += length
	return nil
}

// Unreserve releases a reservation previously made with Reserve; the
// range must exactly match. Pages mapped inside it remain mapped and
// begin counting against the limit individually.
func (s *Space) Unreserve(a Addr, length uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, o := range s.reserved {
		if o.Start == a && o.Length == length {
			s.reserved = append(s.reserved[:i], s.reserved[i+1:]...)
			s.reservedBytes -= length
			// Re-count pages mapped inside the released range.
			for vpn := a.PageNum(); vpn < a.Add(length).PageNum(); vpn++ {
				if _, ok := s.pages[vpn]; ok {
					s.mappedOutside++
				}
			}
			return nil
		}
	}
	return fmt.Errorf("vmem: Unreserve(%s, %d): no such reservation", a, length)
}

// Map maps [a, a+length) with the given protection, like anonymous
// mmap: the pages read as zero, and each gets a frame on its first
// access, not here. A page that is never touched — a ProtNone guard
// page, the unused depth of a stack — never gets one. The range must be
// page-aligned and entirely unmapped.
func (s *Space) Map(a Addr, length uint64, prot Prot) error {
	return s.mapFrames(a, length, prot, nil)
}

// MapFrames installs the given existing frames at a, aliasing them:
// their reference counts rise and writes through either mapping are
// visible through the other. This is the mmap-the-thread's-pages-
// onto-the-stack-address operation of memory-aliasing threads (Fig 3).
func (s *Space) MapFrames(a Addr, frames []*Frame, prot Prot) error {
	return s.mapFrames(a, uint64(len(frames))*PageSize, prot, frames)
}

func (s *Space) mapFrames(a Addr, length uint64, prot Prot, frames []*Frame) error {
	if a.Offset() != 0 || length%PageSize != 0 || length == 0 {
		return fmt.Errorf("vmem: Map(%s, %d): range must be non-empty and page-aligned", a, length)
	}
	if a == Nil {
		return &Fault{Op: OpMap, Addr: a, Reason: "page zero is not mappable"}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	first, n := a.PageNum(), length/PageSize
	outside := uint64(0)
	for vpn := first; vpn < first+n; vpn++ {
		if _, ok := s.pages[vpn]; ok {
			return &Fault{Op: OpMap, Addr: Addr(vpn << PageShift), Reason: "already mapped"}
		}
		if !s.inReservedLocked(vpn) {
			outside++
		}
	}
	if s.limit != 0 && s.virtualInUseLocked()+outside*PageSize > s.limit {
		return &ErrExhausted{Limit: s.limit, Requested: outside * PageSize, InUse: s.virtualInUseLocked()}
	}
	for i := uint64(0); i < n; i++ {
		m := mapping{prot: prot}
		if frames != nil {
			m.frame = frames[i]
			m.frame.refs++
		}
		s.pages[first+i] = m
	}
	s.mappedOutside += outside
	s.gen.Add(1)
	return nil
}

// Unmap removes the mappings over [a, a+length); frames whose last
// mapping is removed are freed (their contents become unreachable).
// Every page in the range must currently be mapped.
func (s *Space) Unmap(a Addr, length uint64) error {
	if a.Offset() != 0 || length%PageSize != 0 || length == 0 {
		return fmt.Errorf("vmem: Unmap(%s, %d): range must be non-empty and page-aligned", a, length)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	first, n := a.PageNum(), length/PageSize
	for vpn := first; vpn < first+n; vpn++ {
		if _, ok := s.pages[vpn]; !ok {
			return &Fault{Op: OpUnmap, Addr: Addr(vpn << PageShift), Reason: "not mapped"}
		}
	}
	for vpn := first; vpn < first+n; vpn++ {
		if f := s.pages[vpn].frame; f != nil {
			f.refs--
			if f.refs == 0 && s.pages[vpn].owned {
				// Only frames this space allocated itself are recycled:
				// frames installed via MapFrames may be retained by the
				// caller (memory-aliasing stacks keep theirs across
				// switch-out) and must stay untouched after unmap.
				framePool.Put(f)
			}
		}
		delete(s.pages, vpn)
		if !s.inReservedLocked(vpn) {
			s.mappedOutside--
		}
	}
	s.gen.Add(1)
	return nil
}

// Protect changes the protection of the already-mapped range.
func (s *Space) Protect(a Addr, length uint64, prot Prot) error {
	if a.Offset() != 0 || length%PageSize != 0 || length == 0 {
		return fmt.Errorf("vmem: Protect(%s, %d): range must be non-empty and page-aligned", a, length)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	first, n := a.PageNum(), length/PageSize
	for vpn := first; vpn < first+n; vpn++ {
		if _, ok := s.pages[vpn]; !ok {
			return &Fault{Op: OpMap, Addr: Addr(vpn << PageShift), Reason: "not mapped"}
		}
	}
	for vpn := first; vpn < first+n; vpn++ {
		m := s.pages[vpn]
		m.prot = prot
		s.pages[vpn] = m
	}
	s.gen.Add(1)
	return nil
}

// Frames returns the frames backing [a, a+length) in order, for
// aliasing into another location or extracting for migration. The
// range must be page-aligned and fully mapped; its untouched pages get
// their frames first, so an alias shares every page from the start.
func (s *Space) Frames(a Addr, length uint64) ([]*Frame, error) {
	if a.Offset() != 0 || length%PageSize != 0 || length == 0 {
		return nil, fmt.Errorf("vmem: Frames(%s, %d): range must be non-empty and page-aligned", a, length)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	first, n := a.PageNum(), length/PageSize
	for vpn := first; vpn < first+n; vpn++ {
		if _, ok := s.pages[vpn]; !ok {
			return nil, &Fault{Op: OpRead, Addr: Addr(vpn << PageShift), Reason: "not mapped"}
		}
	}
	out := make([]*Frame, n)
	for i := range out {
		out[i] = s.touchLocked(first + uint64(i))
	}
	return out, nil
}

// touchLocked returns the frame of mapped page vpn, giving an untouched
// page a fresh zeroed one first. Caller holds the write lock.
func (s *Space) touchLocked(vpn uint64) *Frame {
	m := s.pages[vpn]
	if m.frame == nil {
		m.frame, m.owned = newPooledFrame(), true
		m.frame.refs = 1
		s.pages[vpn] = m
	}
	return m.frame
}

// Mapped reports whether every page of [a, a+length) is mapped.
func (s *Space) Mapped(a Addr, length uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if length == 0 {
		length = 1
	}
	for vpn := a.PageNum(); vpn <= (a + Addr(length) - 1).PageNum(); vpn++ {
		if _, ok := s.pages[vpn]; !ok {
			return false
		}
	}
	return true
}

// Read copies len(p) bytes starting at a into p, faulting on unmapped
// or non-readable pages. Untouched pages read as zero (and get their
// frames).
func (s *Space) Read(a Addr, p []byte) error {
	return s.access(a, p, OpRead)
}

// Write copies p into simulated memory starting at a, faulting on
// unmapped or non-writable pages. Every page touched is marked dirty
// — the signal sparse migration snapshots (CopyOutRuns) consume.
func (s *Space) Write(a Addr, p []byte) error {
	return s.access(a, p, OpWrite)
}

// access is the shared Read/Write engine. It resolves the extent
// covering a — from the TLB when possible, from the page table
// otherwise — checks protection once per extent, and then copies
// page-by-page without touching the lock or the page map.
//
// The fast path is lock-free: an extent is trusted only while the
// space's gen matches the gen it was built at, so any map, unmap or
// protect since forces re-resolution. As with real memory, accessing
// a range concurrently with unmapping it is a caller bug; the copy
// then linearizes before the unmap.
func (s *Space) access(a Addr, p []byte, op AccessOp) error {
	need := ProtRead
	if op == OpWrite {
		need = ProtWrite
	}
	for len(p) > 0 {
		e := s.tlbFind(a)
		if e == nil {
			var err error
			e, err = s.tlbFill(a, a.Add(uint64(len(p))-1).PageNum(), op)
			if err != nil {
				return err
			}
		}
		if e.prot&need == 0 {
			return &Fault{Op: op, Addr: a, Reason: "protection"}
		}
		for len(p) > 0 && a < e.end {
			f := e.frames[a.PageNum()-e.vpn0]
			off := a.Offset()
			var n int
			if op == OpWrite {
				n = copy(f.data[off:], p)
				f.markDirty()
			} else {
				n = copy(p, f.data[off:])
			}
			p = p[n:]
			a = a.Add(uint64(n))
		}
	}
	return nil
}

// tlbFind returns a cached extent containing a, or nil.
func (s *Space) tlbFind(a Addr) *extent {
	g := s.gen.Load()
	for i := range s.tlb {
		e := s.tlb[i].Load()
		if e != nil && e.gen == g && a >= e.start && a < e.end {
			return e
		}
	}
	return nil
}

// tlbFill resolves the extent containing a from the page table and
// caches it, evicting round-robin. It faults if a is unmapped or its
// protection forbids op. A touched page resolves under the read lock.
// An untouched one is a page fault: under the write lock, every
// untouched page from a to page last — the span the access reaches —
// gets its frame in the same pass, up to maxExtentPages, so a large
// copy into fresh memory (stack copy's switch-in) faults once per
// extent, not once per page.
func (s *Space) tlbFill(a Addr, last uint64, op AccessOp) (*extent, error) {
	s.mu.RLock()
	e, err := s.extentLocked(a, last, op, false)
	s.mu.RUnlock()
	if e == nil && err == nil {
		s.mu.Lock()
		e, err = s.extentLocked(a, last, op, true)
		s.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	slot := s.tlbClock.Add(1) % tlbSlots
	s.tlb[slot].Store(e)
	return e, nil
}

// extentLocked builds the extent containing a. Without touch (read
// lock held) it returns nil, nil when a's page is untouched; with touch
// (write lock held) it gives frames to the untouched pages up to last.
func (s *Space) extentLocked(a Addr, last uint64, op AccessOp, touch bool) (*extent, error) {
	vpn := a.PageNum()
	m, ok := s.pages[vpn]
	if !ok {
		return nil, &Fault{Op: op, Addr: a, Reason: "unmapped"}
	}
	need := ProtRead
	if op == OpWrite {
		need = ProtWrite
	}
	if m.prot&need == 0 {
		// Before any frame is made: a guard page never gets one.
		return nil, &Fault{Op: op, Addr: a, Reason: "protection"}
	}
	if m.frame == nil && !touch {
		return nil, nil
	}
	prot := m.prot
	// Grow the run backward a little and forward a lot (forward is the
	// streaming direction), stopping at unmapped or untouched pages
	// (untouched ones inside the access span excepted when touching),
	// protection changes, or the size cap.
	lo := vpn
	for vpn-lo < maxExtentPages/2 && lo > 0 {
		mm, ok := s.pages[lo-1]
		if !ok || mm.prot != prot || mm.frame == nil {
			break
		}
		lo--
	}
	hi := vpn
	for hi-lo+1 < maxExtentPages {
		mm, ok := s.pages[hi+1]
		if !ok || mm.prot != prot || mm.frame == nil && !(touch && hi+1 <= last) {
			break
		}
		hi++
	}
	e := &extent{
		start:  Addr(lo << PageShift),
		end:    Addr((hi + 1) << PageShift),
		vpn0:   lo,
		prot:   prot,
		frames: make([]*Frame, hi-lo+1),
		// gen is stable here: mutators hold the write lock when they
		// bump it, and we hold a lock.
		gen: s.gen.Load(),
	}
	for i := range e.frames {
		if touch {
			e.frames[i] = s.touchLocked(lo + uint64(i))
		} else {
			e.frames[i] = s.pages[lo+uint64(i)].frame
		}
	}
	return e, nil
}

// CopyOut reads length bytes at a into a fresh buffer.
func (s *Space) CopyOut(a Addr, length uint64) ([]byte, error) {
	p := make([]byte, length)
	if err := s.Read(a, p); err != nil {
		return nil, err
	}
	return p, nil
}

// Zero clears [a, a+length), which must be writable.
func (s *Space) Zero(a Addr, length uint64) error {
	var zeros [PageSize]byte
	for length > 0 {
		n := uint64(PageSize)
		if length < n {
			n = length
		}
		if err := s.Write(a, zeros[:n]); err != nil {
			return err
		}
		a = a.Add(n)
		length -= n
	}
	return nil
}
