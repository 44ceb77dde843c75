// Package swapglobal implements the paper's swap-global scheme for
// transparently privatizing global variables (§3.1.1): a dynamically
// linked ELF executable reaches every global through the Global
// Offset Table (GOT) — one pointer per global — so giving each
// user-level thread its own copy of the GOT, and swapping it at
// context-switch time, gives each thread a private set of globals
// without changing application code.
//
// Here the GOT is a real table in simulated memory: slot i holds the
// simulated address of global i's storage. A thread Instance owns
// private storage for every global (allocated from the thread's
// migratable isomalloc heap, so privatized globals migrate with the
// thread) plus an image of slot values; the scheduler calls
// GOT.Swap(instance.Image()) when switching the thread in.
package swapglobal

import (
	"fmt"
	"slices"

	"migflow/internal/mem"
	"migflow/internal/vmem"
)

// SlotSize is the size of one GOT entry (a simulated pointer).
const SlotSize = 8

// Layout describes a module's global variables: the compile-time
// side of the scheme, shared by every thread.
type Layout struct {
	names []string
	sizes []uint64
	index map[string]int
}

// NewLayout returns an empty layout.
func NewLayout() *Layout { return &Layout{index: make(map[string]int)} }

// Declare adds a global of the given size and returns its GOT slot.
// Declaring a duplicate name panics: it is a build-time error.
func (l *Layout) Declare(name string, size uint64) int {
	if _, dup := l.index[name]; dup {
		panic(fmt.Sprintf("swapglobal: global %q declared twice", name))
	}
	if size == 0 {
		panic(fmt.Sprintf("swapglobal: global %q has zero size", name))
	}
	slot := len(l.names)
	l.names = append(l.names, name)
	l.sizes = append(l.sizes, size)
	l.index[name] = slot
	return slot
}

// NumGlobals returns the number of declared globals.
func (l *Layout) NumGlobals() int { return len(l.names) }

// SlotOf returns the GOT slot of the named global.
func (l *Layout) SlotOf(name string) (int, error) {
	if i, ok := l.index[name]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("swapglobal: unknown global %q", name)
}

// TableBytes returns the GOT's size in memory, rounded to pages.
func (l *Layout) TableBytes() uint64 {
	return vmem.RoundUpPages(uint64(len(l.names)) * SlotSize)
}

// GOT is the live Global Offset Table of one address space.
type GOT struct {
	layout *Layout
	space  *vmem.Space
	base   vmem.Addr
	swaps  uint64 // number of Swap calls, for the ablation bench
}

// Install maps the GOT at base in space and returns it. Every PE
// process installs its GOT at the same base address — the table is
// part of the executable image.
func Install(space *vmem.Space, base vmem.Addr, layout *Layout) (*GOT, error) {
	if layout.NumGlobals() == 0 {
		return nil, fmt.Errorf("swapglobal: empty layout")
	}
	if err := space.Map(base.AlignDown(), layout.TableBytes(), vmem.ProtRW); err != nil {
		return nil, fmt.Errorf("swapglobal: installing GOT: %w", err)
	}
	return &GOT{layout: layout, space: space, base: base}, nil
}

// SlotAddr returns the address of GOT slot i itself.
func (g *GOT) SlotAddr(slot int) vmem.Addr {
	return g.base.Add(uint64(slot) * SlotSize)
}

// Swap installs a thread's image — one storage address per global —
// into the table: the per-context-switch operation. Its cost is
// O(number of globals), which BenchmarkAblationGOTSwap quantifies.
func (g *GOT) Swap(image []vmem.Addr) error {
	if len(image) != g.layout.NumGlobals() {
		return fmt.Errorf("swapglobal: image has %d slots, layout has %d", len(image), g.layout.NumGlobals())
	}
	for i, a := range image {
		if err := g.space.WriteAddr(g.SlotAddr(i), a); err != nil {
			return err
		}
	}
	g.swaps++
	return nil
}

// Resolve reads slot i and returns the current storage address of
// global i — the load every global access performs in a dynamically
// linked executable.
func (g *GOT) Resolve(slot int) (vmem.Addr, error) {
	return g.space.ReadAddr(g.SlotAddr(slot))
}

// LoadUint64 reads the named global through the table.
func (g *GOT) LoadUint64(name string) (uint64, error) {
	slot, err := g.layout.SlotOf(name)
	if err != nil {
		return 0, err
	}
	a, err := g.Resolve(slot)
	if err != nil {
		return 0, err
	}
	return g.space.ReadUint64(a)
}

// StoreUint64 writes the named global through the table.
func (g *GOT) StoreUint64(name string, v uint64) error {
	slot, err := g.layout.SlotOf(name)
	if err != nil {
		return err
	}
	a, err := g.Resolve(slot)
	if err != nil {
		return err
	}
	return g.space.WriteUint64(a, v)
}

// Instance is one thread's private set of globals: storage for each
// global plus the GOT image pointing at that storage. Storage comes
// from the thread's allocator, so with an isomalloc thread heap the
// privatized globals migrate with the thread and the image stays
// valid on the destination PE.
type Instance struct {
	layout *Layout
	vars   []vmem.Addr
}

// NewInstance allocates private storage for every global in layout
// from alloc.
func NewInstance(layout *Layout, alloc mem.Allocator) (*Instance, error) {
	in := &Instance{layout: layout, vars: make([]vmem.Addr, layout.NumGlobals())}
	for i := range in.vars {
		a, err := alloc.Malloc(layout.sizes[i])
		if err != nil {
			return nil, fmt.Errorf("swapglobal: allocating global %q: %w", layout.names[i], err)
		}
		in.vars[i] = a
	}
	return in, nil
}

// Restore refills the instance from migrated slot values (the storage
// they point at has already been shipped inside the thread's heap
// image), reusing its slot array. The zero Instance restores too.
func (in *Instance) Restore(layout *Layout, vars []uint64) error {
	if len(vars) != layout.NumGlobals() {
		return fmt.Errorf("swapglobal: Restore: %d vars for %d globals", len(vars), layout.NumGlobals())
	}
	in.layout = layout
	in.vars = slices.Grow(in.vars[:0], len(vars))
	for _, a := range vars {
		in.vars = append(in.vars, vmem.Addr(a))
	}
	return nil
}

// Image returns the slot values to install on switch-in. The caller
// must not mutate it.
func (in *Instance) Image() []vmem.Addr { return in.vars }

// Release frees the instance's storage back to alloc (thread exit on
// the birth PE).
func (in *Instance) Release(alloc mem.Allocator) error {
	var firstErr error
	for _, a := range in.vars {
		if err := alloc.Free(a); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	in.vars = nil
	return firstErr
}
