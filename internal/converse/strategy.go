// Package converse is the Converse-like runtime layer of §2.3: per-PE
// user-level thread schedulers with priority queues, the Cth thread
// API (create / yield / suspend / awaken), and the stack-strategy
// interface behind which the three migratable-thread techniques of
// §3.4 (stack copying, isomalloc, memory aliasing — implemented in
// internal/migrate) plug into the context switch path.
//
// A thread's control flow is carried by a coroutine (coroutine.go: the
// runtime's direct goroutine-to-goroutine switch, the documented Go
// substitution for machine-stack switching), but every byte of
// *migratable* state — stack frames, heap blocks, privatized
// globals — lives in simulated memory reached through the Ctx API, so
// the three techniques move real bytes between real (simulated)
// address spaces and their costs and failure modes are faithful.
package converse

import (
	"migflow/internal/pup"
	"migflow/internal/vmem"
)

// StackRef is a strategy-private handle to one thread's stack.
type StackRef interface {
	// Base returns the virtual address of the stack's low end while
	// the thread is switched in.
	Base() vmem.Addr
	// Size returns the stack size in bytes.
	Size() uint64
}

// StackImage is the wire form of a stack: what migration ships. The
// image is sparse — Runs carries only the pages the thread actually
// dirtied, each a whole-page-aligned span of [Base, Base+Size), and
// Install zero-fills everything unshipped — so migration bytes are
// proportional to live stack, not allocated stack (Figure 11).
type StackImage struct {
	Strategy string
	Base     uint64
	Size     uint64
	Runs     []vmem.Run
}

// Payload returns the stack data bytes the image ships.
func (im *StackImage) Payload() int { return vmem.RunsPayload(im.Runs) }

// Pup serializes the image (pup.Pupable).
func (im *StackImage) Pup(p *pup.PUPer) error {
	if err := p.String(&im.Strategy); err != nil {
		return err
	}
	if err := p.Uint64(&im.Base); err != nil {
		return err
	}
	if err := p.Uint64(&im.Size); err != nil {
		return err
	}
	return vmem.PupRuns(p, &im.Runs)
}

// StackStrategy is one of the paper's three techniques for keeping a
// thread's stack valid across context switches and migrations. All
// addresses a thread stores into its stack remain valid because the
// stack is always visible at the same virtual address — the three
// strategies differ in how they arrange that, what each context
// switch costs, and how much virtual address space they consume.
type StackStrategy interface {
	// Name returns the technique's stable name ("stackcopy",
	// "isomalloc", "memalias").
	Name() string

	// New prepares a stack of size bytes for a thread born on pe.
	New(pe *PE, size uint64) (StackRef, error)

	// SwitchIn makes the stack addressable before the thread runs;
	// SwitchOut hides it again after the thread stops running. For
	// exclusive strategies these do the copying/remapping work; used
	// is the thread's live stack byte count (stack copying moves only
	// that much — Figure 9's x-axis).
	SwitchIn(pe *PE, s StackRef, used uint64) error
	SwitchOut(pe *PE, s StackRef, used uint64) error

	// Extract captures the stack for migration, releasing pe-local
	// resources; Install recreates it on the destination.
	Extract(pe *PE, s StackRef) (*StackImage, error)
	Install(pe *PE, im *StackImage) (StackRef, error)

	// Release frees the stack at thread exit.
	Release(pe *PE, s StackRef) error

	// Exclusive reports whether at most one thread using this
	// strategy may be switched in per address space (true for stack
	// copying and memory aliasing — their shared canonical stack
	// address is the paper's stated SMP drawback).
	Exclusive() bool
}
