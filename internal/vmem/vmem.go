// Package vmem implements a page-granular simulated virtual memory
// system: address spaces with mmap-like mapping, unmap, protection,
// page aliasing (shared frames), reservation accounting, and faulting
// byte-level access. Anonymous mappings are demand-zero, as with real
// mmap: a page gets its physical frame on first touch, so a space's
// footprint is the pages it touched, not the pages it mapped.
//
// It is the substrate under every migratable-thread technique in this
// repository. The paper's stack-copying, isomalloc and memory-aliasing
// threads (Zheng, Lawlor, Kalé, ICPP 2006, §3.4) differ exactly in
// which pages exist at which virtual addresses at which times; vmem
// models that directly so the three techniques can be implemented and
// measured with their real mechanics: stack-copy moves bytes, memory
// aliasing remaps frames, isomalloc keeps globally unique addresses.
package vmem

import "fmt"

// Page geometry. 4 KiB pages, like the x86 systems in the paper.
const (
	// PageShift is log2 of the page size.
	PageShift = 12
	// PageSize is the size of one page in bytes.
	PageSize = 1 << PageShift
	// PageMask masks the in-page offset bits of an address.
	PageMask = PageSize - 1
)

// Addr is a simulated virtual address. Simulated pointers held in
// simulated memory are Addr values serialized little-endian; they are
// meaningful only within (or, for isomalloc addresses, across) the
// simulated address spaces of one Machine.
type Addr uint64

// Nil is the zero simulated address; page 0 is never mappable, so Nil
// dereferences always fault (a simulated null-pointer dereference).
const Nil Addr = 0

// PageNum returns the virtual page number containing a.
func (a Addr) PageNum() uint64 { return uint64(a) >> PageShift }

// Offset returns the offset of a within its page.
func (a Addr) Offset() uint64 { return uint64(a) & PageMask }

// AlignDown rounds a down to a page boundary.
func (a Addr) AlignDown() Addr { return a &^ Addr(PageMask) }

// AlignUp rounds a up to a page boundary.
func (a Addr) AlignUp() Addr { return (a + PageMask) &^ Addr(PageMask) }

// Add returns a+n; it exists to keep pointer arithmetic on simulated
// addresses explicit and greppable.
func (a Addr) Add(n uint64) Addr { return a + Addr(n) }

// String formats the address like a pointer.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// PageSpan returns the number of pages spanned by the byte range
// [a, a+length).
func PageSpan(a Addr, length uint64) uint64 {
	if length == 0 {
		return 0
	}
	first := a.PageNum()
	last := (a + Addr(length) - 1).PageNum()
	return last - first + 1
}

// RoundUpPages rounds a byte count up to a whole number of pages.
func RoundUpPages(n uint64) uint64 {
	return (n + PageMask) &^ uint64(PageMask)
}

// Prot is a page protection bitmask.
type Prot uint8

// Protection bits.
const (
	ProtNone  Prot = 0
	ProtRead  Prot = 1 << 0
	ProtWrite Prot = 1 << 1
	ProtRW         = ProtRead | ProtWrite
)

func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "---"
	case ProtRead:
		return "r--"
	case ProtWrite:
		return "-w-"
	case ProtRW:
		return "rw-"
	}
	return fmt.Sprintf("Prot(%d)", uint8(p))
}

// AccessOp identifies the kind of access that faulted.
type AccessOp uint8

// Access operations recorded in Faults.
const (
	OpRead AccessOp = iota
	OpWrite
	OpMap
	OpUnmap
)

func (op AccessOp) String() string {
	switch op {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpMap:
		return "map"
	case OpUnmap:
		return "unmap"
	}
	return fmt.Sprintf("AccessOp(%d)", uint8(op))
}

// Fault is the simulated equivalent of SIGSEGV: an access touched an
// unmapped page or violated page protection.
type Fault struct {
	Op     AccessOp
	Addr   Addr   // faulting address
	Reason string // "unmapped", "protection", ...
}

func (f *Fault) Error() string {
	return fmt.Sprintf("vmem: segmentation fault: %s at %s (%s)", f.Op, f.Addr, f.Reason)
}

// ErrExhausted reports that an operation would exceed the address
// space's virtual size limit — the condition that makes isomalloc
// impractical on 32-bit machines (§3.4.2).
type ErrExhausted struct {
	Limit     uint64
	Requested uint64
	InUse     uint64
}

func (e *ErrExhausted) Error() string {
	return fmt.Sprintf("vmem: virtual address space exhausted: limit %d bytes, %d in use, %d requested",
		e.Limit, e.InUse, e.Requested)
}
