package migrate

import (
	"fmt"
	"math/rand"
	"testing"

	"migflow/internal/converse"
	"migflow/internal/mem"
	"migflow/internal/platform"
	"migflow/internal/pup"
	"migflow/internal/swapglobal"
	"migflow/internal/vmem"
)

// machine is a minimal multi-PE fixture with migration wired up.
type machine struct {
	pes    []*converse.PE
	layout *swapglobal.Layout
}

func newMachine(t testing.TB, n int, layout *swapglobal.Layout) *machine {
	t.Helper()
	region, err := mem.NewIsoRegion(mem.DefaultIsoBase, uint64(n)*4096*vmem.PageSize, n)
	if err != nil {
		t.Fatal(err)
	}
	m := &machine{layout: layout}
	for i := 0; i < n; i++ {
		pe, err := converse.NewPE(converse.PEConfig{
			Index: i, Profile: platform.Opteron(), IsoRegion: region, Globals: layout,
		})
		if err != nil {
			t.Fatal(err)
		}
		m.pes = append(m.pes, pe)
	}
	for _, pe := range m.pes {
		pe := pe
		pe.Sched.SetMigrateHandler(func(th *converse.Thread, dest int) {
			if _, err := MigrateNow(th, pe, m.pes[dest], m.layout); err != nil {
				t.Errorf("migration of thread %d to PE %d failed: %v", th.ID(), dest, err)
			}
		})
	}
	return m
}

// runAll drives every PE's scheduler round-robin until all are idle —
// a deterministic single-goroutine stand-in for N scheduler loops.
func (m *machine) runAll() {
	for {
		progress := false
		for _, pe := range m.pes {
			if pe.Sched.ReadyLen() > 0 {
				pe.Sched.RunUntilIdle()
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// TestFullThreadMigration is the end-to-end §3.4 scenario for every
// technique: a thread fills its stack, heap and privatized global
// with known values, migrates twice (0→1→2), and verifies everything
// — including a heap pointer stored *in* the stack — after each hop.
func TestFullThreadMigration(t *testing.T) {
	for _, strat := range All() {
		t.Run(strat.Name(), func(t *testing.T) {
			layout := swapglobal.NewLayout()
			layout.Declare("g", 8)
			m := newMachine(t, 3, layout)
			var fail string
			checks := 0
			th, err := m.pes[0].Sched.CthCreate(converse.ThreadOptions{
				Strategy:  strat,
				StackSize: 4 * vmem.PageSize,
				Globals:   layout,
			}, func(c *converse.Ctx) {
				// Stack frame with a known value.
				frame, err := c.PushFrame(64)
				if err != nil {
					fail = err.Error()
					return
				}
				if err := c.Space().WriteUint64(frame, 0x5AFE); err != nil {
					fail = err.Error()
					return
				}
				// Heap block, pointer to it stored in the stack.
				blk, err := c.Malloc(1000)
				if err != nil {
					fail = err.Error()
					return
				}
				if err := c.Space().WriteUint64(blk, 0xB10C); err != nil {
					fail = err.Error()
					return
				}
				if err := c.Space().WriteAddr(frame.Add(8), blk); err != nil {
					fail = err.Error()
					return
				}
				// Privatized global.
				if err := c.GlobalsGOT().StoreUint64("g", 0x6B0B); err != nil {
					fail = err.Error()
					return
				}

				verify := func(where string) bool {
					if v, err := c.Space().ReadUint64(frame); err != nil || v != 0x5AFE {
						fail = fmt.Sprintf("%s: stack = %#x/%v", where, v, err)
						return false
					}
					p, err := c.Space().ReadAddr(frame.Add(8))
					if err != nil {
						fail = fmt.Sprintf("%s: pointer load: %v", where, err)
						return false
					}
					if v, err := c.Space().ReadUint64(p); err != nil || v != 0xB10C {
						fail = fmt.Sprintf("%s: heap via stack pointer = %#x/%v", where, v, err)
						return false
					}
					if v, err := c.GlobalsGOT().LoadUint64("g"); err != nil || v != 0x6B0B {
						fail = fmt.Sprintf("%s: global = %#x/%v", where, v, err)
						return false
					}
					checks++
					return true
				}

				if !verify("before migration") {
					return
				}
				c.MigrateTo(1)
				if c.PE().Index != 1 {
					fail = fmt.Sprintf("after first hop on PE %d, want 1", c.PE().Index)
					return
				}
				if !verify("on PE 1") {
					return
				}
				// Mutate everything, hop again.
				if err := c.Space().WriteUint64(frame, 0x5AFE2); err != nil {
					fail = err.Error()
					return
				}
				if err := c.GlobalsGOT().StoreUint64("g", 0x6B0B2); err != nil {
					fail = err.Error()
					return
				}
				c.MigrateTo(2)
				if v, _ := c.Space().ReadUint64(frame); v != 0x5AFE2 {
					fail = fmt.Sprintf("on PE 2: mutated stack = %#x", v)
					return
				}
				if v, _ := c.GlobalsGOT().LoadUint64("g"); v != 0x6B0B2 {
					fail = fmt.Sprintf("on PE 2: mutated global = %#x", v)
					return
				}
				// Post-migration allocation still works.
				if _, err := c.Malloc(64); err != nil {
					fail = fmt.Sprintf("post-migration malloc: %v", err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			m.pes[0].Sched.Start(th)
			m.runAll()
			if fail != "" {
				t.Fatal(fail)
			}
			if checks != 2 {
				t.Errorf("verify ran %d times, want 2", checks)
			}
			if th.State() != converse.Exited {
				t.Errorf("thread state = %s", th.State())
			}
			// Ownership moved: PE 0 and 1 have no live threads; PE 2
			// reaped the exited thread.
			for i, pe := range m.pes {
				if pe.Sched.Live() != 0 {
					t.Errorf("PE %d Live = %d", i, pe.Sched.Live())
				}
			}
		})
	}
}

func TestMigrateToSelfIsNoop(t *testing.T) {
	m := newMachine(t, 2, nil)
	hops := 0
	th, err := m.pes[0].Sched.CthCreate(converse.ThreadOptions{Strategy: Isomalloc{}}, func(c *converse.Ctx) {
		c.MigrateTo(0) // same PE: must not migrate
		hops = c.PE().Index
	})
	if err != nil {
		t.Fatal(err)
	}
	m.pes[0].Sched.Start(th)
	m.runAll()
	if hops != 0 {
		t.Errorf("thread ended on PE %d", hops)
	}
}

func TestExtractRequiresMigratingState(t *testing.T) {
	m := newMachine(t, 2, nil)
	th, err := m.pes[0].Sched.CthCreate(converse.ThreadOptions{Strategy: Isomalloc{}}, func(c *converse.Ctx) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := Extract(th, m.pes[0], &ThreadImage{}); err == nil {
		t.Error("Extract of a non-migrating thread accepted")
	}
}

func TestThreadImagePupRoundTrip(t *testing.T) {
	im := &ThreadImage{
		ID: 7, Prio: -2, SP: 0x1000_0100,
		Stack: converse.StackImage{Strategy: NameIsomalloc, Base: 0x40000000, Size: 4096,
			Runs: []vmem.Run{{Addr: 0x40000000, Data: make([]byte, 4096)}}},
		Heap: mem.ThreadHeapImage{ArenaPages: 4, Arenas: []mem.HeapImage{{
			Start: 0x50000000, Length: 16384,
			Blocks: []mem.Block{{Addr: 0x50000000, Size: 64}},
			Runs:   []vmem.Run{{Addr: 0x50000000, Data: make([]byte, 4096)}},
		}}},
		HasGlobals: true,
		GlobalVars: []uint64{0x50000000},
	}
	im.Stack.Runs[0].Data[0] = 0xEE
	data, err := pup.Pack(im)
	if err != nil {
		t.Fatal(err)
	}
	var out ThreadImage
	if err := pup.Unpack(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != 7 || out.Prio != -2 || out.SP != 0x1000_0100 {
		t.Errorf("metadata mangled: %+v", out)
	}
	if out.Stack.Runs[0].Data[0] != 0xEE || out.Stack.Strategy != NameIsomalloc {
		t.Error("stack image mangled")
	}
	if len(out.Heap.Arenas) != 1 || out.Heap.Arenas[0].Blocks[0].Size != 64 {
		t.Error("heap image mangled")
	}
	if !out.HasGlobals || out.GlobalVars[0] != 0x50000000 {
		t.Error("globals mangled")
	}
}

// TestMigrationFuzzer migrates a thread at random points between
// random PEs while it builds up stack frames and heap blocks with a
// seeded PRNG, continuously checking a full checksum of its state.
func TestMigrationFuzzer(t *testing.T) {
	for _, strat := range All() {
		for seed := int64(1); seed <= 3; seed++ {
			strat, seed := strat, seed
			t.Run(fmt.Sprintf("%s/seed%d", strat.Name(), seed), func(t *testing.T) {
				layout := swapglobal.NewLayout()
				layout.Declare("acc", 8)
				m := newMachine(t, 4, layout)
				rng := rand.New(rand.NewSource(seed))
				var fail string
				th, err := m.pes[0].Sched.CthCreate(converse.ThreadOptions{
					Strategy: strat, StackSize: 8 * vmem.PageSize, Globals: layout,
				}, func(c *converse.Ctx) {
					type cell struct {
						addr vmem.Addr
						val  uint64
					}
					var cells []cell
					write := func(a vmem.Addr, v uint64) bool {
						if err := c.Space().WriteUint64(a, v); err != nil {
							fail = err.Error()
							return false
						}
						cells = append(cells, cell{a, v})
						return true
					}
					for step := 0; step < 60; step++ {
						switch rng.Intn(4) {
						case 0: // push a frame and fill it
							f, err := c.PushFrame(uint64(rng.Intn(200) + 16))
							if err != nil {
								continue // stack full: fine
							}
							if !write(f, rng.Uint64()) {
								return
							}
						case 1: // heap block
							b, err := c.Malloc(uint64(rng.Intn(2000) + 8))
							if err != nil {
								fail = err.Error()
								return
							}
							if !write(b, rng.Uint64()) {
								return
							}
						case 2: // global accumulate
							v, err := c.GlobalsGOT().LoadUint64("acc")
							if err != nil {
								fail = err.Error()
								return
							}
							if err := c.GlobalsGOT().StoreUint64("acc", v+1); err != nil {
								fail = err.Error()
								return
							}
						case 3: // migrate somewhere
							c.MigrateTo(rng.Intn(4))
						}
						// Verify every recorded cell, every step.
						for _, cl := range cells {
							v, err := c.Space().ReadUint64(cl.addr)
							if err != nil {
								fail = fmt.Sprintf("step %d: read %s: %v", step, cl.addr, err)
								return
							}
							if v != cl.val {
								fail = fmt.Sprintf("step %d: cell %s = %#x, want %#x", step, cl.addr, v, cl.val)
								return
							}
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				m.pes[0].Sched.Start(th)
				m.runAll()
				if fail != "" {
					t.Fatal(fail)
				}
			})
		}
	}
}
