package swapglobal

import "migflow/internal/vmem"

// SizeOf returns the declared size of slot i's global.
func (l *Layout) SizeOf(slot int) uint64 { return l.sizes[slot] }

// Layout returns the module layout the table serves.
func (g *GOT) Layout() *Layout { return g.layout }

// Swaps returns how many times the table has been swapped.
func (g *GOT) Swaps() uint64 { return g.swaps }

// VarAddr returns the storage address of the named global in this
// instance (for direct initialization).
func (in *Instance) VarAddr(name string) (vmem.Addr, error) {
	slot, err := in.layout.SlotOf(name)
	if err != nil {
		return vmem.Nil, err
	}
	return in.vars[slot], nil
}
