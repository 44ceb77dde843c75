package vmem

import (
	"fmt"

	"migflow/internal/pup"
)

// Run is one contiguous span of page data: the unit of sparse memory
// images. A migration or checkpoint ships a list of runs — only the
// pages the owner actually dirtied — instead of a dense buffer, so
// the bytes moved are proportional to live state rather than
// allocated state (the paper's Figure 11 claim). Addr is absolute in
// the (globally agreed) simulated address space; Data's length is a
// whole number of pages.
type Run struct {
	Addr Addr
	Data []byte
}

// End returns the first address past the run.
func (r Run) End() Addr { return r.Addr.Add(uint64(len(r.Data))) }

// Pup serializes the run (pup.Pupable).
func (r *Run) Pup(p *pup.PUPer) error {
	a := uint64(r.Addr)
	if err := p.Uint64(&a); err != nil {
		return err
	}
	r.Addr = Addr(a)
	return p.Bytes(&r.Data)
}

// RunsPayload sums the data bytes across runs (the wire payload a
// sparse image ships, before framing).
func RunsPayload(runs []Run) int {
	n := 0
	for _, r := range runs {
		n += len(r.Data)
	}
	return n
}

// minRunWire is the smallest encoding of one Run (8-byte address +
// 4-byte length prefix); length-prefix validators use it to bound a
// claimed run count against the bytes actually remaining.
const minRunWire = 12

// PupRuns visits a []Run with a uint32 count prefix, validating the
// count against the remaining buffer before allocating — a corrupt or
// hostile image cannot force a huge allocation.
func PupRuns(p *pup.PUPer, runs *[]Run) error {
	n := uint32(len(*runs))
	if err := p.Uint32(&n); err != nil {
		return err
	}
	if p.IsUnpacking() {
		if int(n)*minRunWire > p.Remaining() {
			return fmt.Errorf("vmem: corrupt image: %d runs claimed with %d bytes remaining", n, p.Remaining())
		}
		*runs = make([]Run, n)
	}
	for i := range *runs {
		if err := (*runs)[i].Pup(p); err != nil {
			return err
		}
	}
	return nil
}

// ValidateRuns checks that every run is page-aligned, a whole number
// of pages long, inside [base, base+size), and in strictly ascending
// non-overlapping order — the contract Install-side code relies on
// before writing an untrusted image into mapped memory.
func ValidateRuns(runs []Run, base Addr, size uint64) error {
	prev := base
	for i, r := range runs {
		if r.Addr.Offset() != 0 || uint64(len(r.Data))%PageSize != 0 || len(r.Data) == 0 {
			return fmt.Errorf("vmem: run %d (%s, %d bytes) is not whole pages", i, r.Addr, len(r.Data))
		}
		if r.Addr < prev || r.End() > base.Add(size) {
			return fmt.Errorf("vmem: run %d [%s,%s) outside region [%s,%s) or out of order",
				i, r.Addr, r.End(), base, base.Add(size))
		}
		prev = r.End()
	}
	return nil
}

// DenseFromRuns materializes a sparse image as one zero-filled buffer
// of size bytes based at base (for tests and dense-path comparisons).
func DenseFromRuns(runs []Run, base Addr, size uint64) []byte {
	out := make([]byte, size)
	for _, r := range runs {
		copy(out[r.Addr-base:], r.Data)
	}
	return out
}

// CopyOutRuns reads the dirty pages of [a, a+length) as maximal
// contiguous runs, copying their contents out. Pages that were never
// written since they were mapped (clean or untouched pages) and pages
// that are not mapped at all are skipped — the caller reconstructs
// them as zeroes (for stacks) or re-maps them on demand (for heap
// arenas). Dirty pages must be readable; the range must be
// page-aligned. It gives no page a frame.
//
// This is the sparse-snapshot primitive behind migration: one pass
// under a read lock, no per-page locking, bytes out ∝ dirtied pages.
func (s *Space) CopyOutRuns(a Addr, length uint64) ([]Run, error) {
	if a.Offset() != 0 || length%PageSize != 0 || length == 0 {
		return nil, fmt.Errorf("vmem: CopyOutRuns(%s, %d): range must be non-empty and page-aligned", a, length)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var runs []Run
	var cur *Run
	first, n := a.PageNum(), length/PageSize
	for vpn := first; vpn < first+n; vpn++ {
		m := s.pages[vpn]
		if m.frame == nil || !m.frame.Dirty() {
			cur = nil
			continue
		}
		if m.prot&ProtRead == 0 {
			return nil, &Fault{Op: OpRead, Addr: Addr(vpn << PageShift), Reason: "protection"}
		}
		if cur == nil {
			runs = append(runs, Run{Addr: Addr(vpn << PageShift)})
			cur = &runs[len(runs)-1]
		}
		cur.Data = append(cur.Data, m.frame.data[:]...)
	}
	return runs, nil
}

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
