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

// Pup serializes the run (pup.Pupable). An in-place unpack
// (pup.PUPer.ReadBack) leaves Data a view of the packer's buffer.
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
		*runs = pup.Resize(p, *runs, int(n))
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

// AppendPage adds one page of data at addr to a sparse image whose
// run data are carved, in order, from the arena buf: the page extends
// the last run when it continues that run both in address and at the
// arena's tail, and starts a new run otherwise. It returns the grown
// run list and arena. Refilling an image through its own run list and
// arena (runs[:0], buf[:0]) allocates nothing once both have grown to
// the image's size. Each run's Data is capped at its own length, so
// appending to one cannot write into the next.
func AppendPage(runs []Run, buf []byte, addr Addr, page []byte) ([]Run, []byte) {
	n := len(buf)
	extend := false
	if k := len(runs); k > 0 && n > 0 {
		last := runs[k-1].Data
		extend = runs[k-1].End() == addr && len(last) > 0 && &last[len(last)-1] == &buf[n-1]
	}
	buf = append(buf, page...)
	if extend {
		r := &runs[len(runs)-1]
		start := n - len(r.Data)
		r.Data = buf[start:len(buf):len(buf)]
		return runs, buf
	}
	return append(runs, Run{Addr: addr, Data: buf[n:len(buf):len(buf)]}), buf
}

// CopyOutRuns appends the dirty pages of [a, a+length) to runs as
// maximal contiguous runs, copying their contents into the arena buf
// (AppendPage), and returns the grown run list and arena. Pages that
// were never written since they were mapped (clean or untouched pages)
// and pages that are not mapped at all are skipped — the caller
// reconstructs them as zeroes (for stacks) or re-maps them on demand
// (for heap arenas). Dirty pages must be readable; the range must be
// page-aligned. It gives no page a frame.
//
// This is the sparse-snapshot primitive behind migration: one pass
// under a read lock, no per-page locking, bytes out ∝ dirtied pages.
// The runs are copies: they never alias page memory.
func (s *Space) CopyOutRuns(runs []Run, buf []byte, a Addr, length uint64) ([]Run, []byte, error) {
	if a.Offset() != 0 || length%PageSize != 0 || length == 0 {
		return runs, buf, fmt.Errorf("vmem: CopyOutRuns(%s, %d): range must be non-empty and page-aligned", a, length)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	first, n := a.PageNum(), length/PageSize
	for vpn := first; vpn < first+n; vpn++ {
		m := s.pages[vpn]
		if m.frame == nil || !m.frame.Dirty() {
			continue
		}
		if m.prot&ProtRead == 0 {
			return runs, buf, &Fault{Op: OpRead, Addr: Addr(vpn << PageShift), Reason: "protection"}
		}
		runs, buf = AppendPage(runs, buf, Addr(vpn<<PageShift), m.frame.data[:])
	}
	return runs, buf, nil
}

// CopyInRuns writes a sparse image's runs into mapped, writable pages
// — the install-side twin of CopyOutRuns. It works in one pass under
// the write lock, giving each written page its frame and marking it
// dirty, and resolves no extent, so it allocates nothing. Every run
// must be whole pages at a page-aligned address. A page that is
// unmapped or not writable faults; the runs before it stay written,
// as with Write.
func (s *Space) CopyInRuns(runs []Run) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range runs {
		if r.Addr.Offset() != 0 || uint64(len(r.Data))%PageSize != 0 {
			return fmt.Errorf("vmem: CopyInRuns: run %d (%s, %d bytes) is not whole pages", i, r.Addr, len(r.Data))
		}
		for off := uint64(0); off < uint64(len(r.Data)); off += PageSize {
			a := r.Addr.Add(off)
			m, ok := s.pages[a.PageNum()]
			if !ok {
				return &Fault{Op: OpWrite, Addr: a, Reason: "unmapped"}
			}
			if m.prot&ProtWrite == 0 {
				return &Fault{Op: OpWrite, Addr: a, Reason: "protection"}
			}
			f := s.touchLocked(a.PageNum())
			copy(f.data[:], r.Data[off:off+PageSize])
			f.markDirty()
		}
	}
	return nil
}
