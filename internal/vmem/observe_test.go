package vmem

import "fmt"

// Observers only tests use: the page table's accounting, frames and
// dirty bits, read back for the model and aliasing tests.

// VirtualInUse returns the bytes of virtual address space currently
// consumed (reservations plus pages mapped outside reservations).
func (s *Space) VirtualInUse() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.virtualInUseLocked()
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

// Refs returns the current mapping count (for tests and accounting).
func (f *Frame) Refs() int { return f.refs }

// DirtyPages counts the dirty mapped pages in [a, a+length) (for
// tests and accounting); an untouched page is clean.
func (s *Space) DirtyPages(a Addr, length uint64) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for vpn := a.PageNum(); vpn < a.Add(length).PageNum(); vpn++ {
		if f := s.pages[vpn].frame; f != nil && f.Dirty() {
			n++
		}
	}
	return n
}

// ClearDirty resets the dirty bit of every mapped page in the range —
// the post-snapshot step for callers that keep the pages mapped (an
// in-place checkpoint baseline). Migration does not need it: extract
// unmaps the source pages and recycled frames come back clean.
func (s *Space) ClearDirty(a Addr, length uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for vpn := a.PageNum(); vpn < a.Add(length).PageNum(); vpn++ {
		if f := s.pages[vpn].frame; f != nil {
			f.dirty.Store(false)
		}
	}
}
