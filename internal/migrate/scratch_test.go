package migrate

import (
	"bytes"
	"fmt"
	"testing"

	"migflow/internal/converse"
	"migflow/internal/mem"
	"migflow/internal/platform"
	"migflow/internal/pup"
	"migflow/internal/swapglobal"
	"migflow/internal/vmem"
)

// pattern is the content thread id writes in round r: n bytes that
// differ per thread and per round.
func pattern(id, r, n int) []byte {
	b := make([]byte, n)
	x := uint32(id*7919 + r*104729 + 1)
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

// scribble overwrites everything of the mover a finished move could
// still point into: its packer's buffer, whose views the decoded runs
// were, and the scratch image's own slices.
func scribble(t *testing.T, m *mover) {
	t.Helper()
	m.p.Reset()
	junk := bytes.Repeat([]byte{0xEE}, 64<<10)
	if err := m.p.Bytes(&junk); err != nil {
		t.Fatal(err)
	}
	for i := range m.im.Stack.Runs {
		m.im.Stack.Runs[i] = vmem.Run{Addr: 0xBAD000, Data: junk[:vmem.PageSize]}
	}
	for a := range m.im.Heap.Arenas {
		ar := &m.im.Heap.Arenas[a]
		for i := range ar.Blocks {
			ar.Blocks[i] = mem.Block{Addr: 0xBAD000, Size: 1}
		}
		for i := range ar.Runs {
			ar.Runs[i] = vmem.Run{Addr: 0xBAD000, Data: junk[:vmem.PageSize]}
		}
	}
	for i := range m.im.GlobalVars {
		m.im.GlobalVars[i] = 0xBAD000
	}
}

// TestMovedThreadsOwnTheirBytes checks the mover's aliasing rule:
// decoded runs are views of the packer's buffer that die with the
// move, so a moved thread must hold copies of every byte. Two groups
// of threads of all three strategies take turns through one mover; after
// each batch the packer's buffer and the scratch image are overwritten,
// and the other group's batch reuses them. Every thread then checks its
// stack, heap block and privatized global against what it wrote before
// the move, and writes the next round's bytes.
func TestMovedThreadsOwnTheirBytes(t *testing.T) {
	const pes, perGroup, rounds = 3, 6, 4
	const stackBytes, heapBytes = vmem.PageSize + 512, 5000
	layout := swapglobal.NewLayout()
	layout.Declare("g", 8)
	m := newMachine(t, pes, layout)
	fails := make([]string, 2*perGroup)
	ths := make([]*converse.Thread, 2*perGroup)
	for i := range ths {
		i := i
		th, err := m.pes[i%pes].Sched.CthCreate(converse.ThreadOptions{
			Strategy: All()[i%3], StackSize: 4 * vmem.PageSize, Globals: layout,
		}, func(c *converse.Ctx) {
			fail := func(r int, what string, err error) { fails[i] = fmt.Sprintf("round %d: %s: %v", r, what, err) }
			frame, err := c.PushFrame(stackBytes)
			if err != nil {
				fail(0, "stack", err)
				return
			}
			blk, err := c.Malloc(heapBytes)
			if err != nil {
				fail(0, "heap", err)
				return
			}
			got := make([]byte, heapBytes)
			for r := 0; r <= rounds; r++ {
				if r > 0 {
					if err := c.Space().Read(frame, got[:stackBytes]); err != nil || !bytes.Equal(got[:stackBytes], pattern(i, r-1, stackBytes)) {
						fail(r, "stack bytes differ", err)
						return
					}
					if err := c.Space().Read(blk, got); err != nil || !bytes.Equal(got, pattern(i, r-1, heapBytes)) {
						fail(r, "heap bytes differ", err)
						return
					}
					if v, err := c.GlobalsGOT().LoadUint64("g"); err != nil || v != uint64(i*1000+r-1) {
						fail(r, fmt.Sprintf("global = %d", v), err)
						return
					}
				}
				if err := c.Space().Write(frame, pattern(i, r, stackBytes)); err != nil {
					fail(r, "stack write", err)
					return
				}
				if err := c.Space().Write(blk, pattern(i, r, heapBytes)); err != nil {
					fail(r, "heap write", err)
					return
				}
				if err := c.GlobalsGOT().StoreUint64("g", uint64(i*1000+r)); err != nil {
					fail(r, "global write", err)
					return
				}
				c.Suspend()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		m.pes[i%pes].Sched.Start(th)
		ths[i] = th
	}
	m.runAll()
	mv := getMover()
	defer moverPool.Put(mv)
	for r := 1; r <= rounds; r++ {
		for g := 0; g < 2; g++ {
			var ops []Op
			for _, th := range ths[g*perGroup : (g+1)*perGroup] {
				src := th.Scheduler().PE()
				ops = append(ops, Op{T: th, Src: src, Dst: m.pes[(src.Index+1+r%2)%pes]})
			}
			for i, res := range mv.bulk(ops, layout) {
				if res.Err != nil {
					t.Fatalf("round %d group %d op %d: %v", r, g, i, res.Err)
				}
			}
			scribble(t, mv)
		}
		for _, th := range ths {
			th.Awaken()
		}
		m.runAll()
		for i, f := range fails {
			if f != "" {
				t.Fatalf("thread %d (%s): %s", i, ths[i].Strategy().Name(), f)
			}
		}
	}
}

// rawBytes packs its bytes as they are, with no length prefix: a wire
// buffer of arbitrary content for an in-place decode.
type rawBytes []byte

func (b rawBytes) Pup(p *pup.PUPer) error {
	for i := range b {
		if err := p.Byte(&b[i]); err != nil {
			return err
		}
	}
	return nil
}

// imageFixture is a parked, extracted thread of one strategy and the
// mover scratch its image was extracted into; FuzzThreadImage installs
// images for it over and over. The thread stays Migrating throughout.
type imageFixture struct {
	region mem.IsoRegion
	layout *swapglobal.Layout
	th     *converse.Thread
	mv     mover
}

// newImageFixture parks a thread that dirtied two stack pages, holds a
// heap arena with two live blocks and stores a privatized global, then
// extracts it. It returns the fixture and the image's packed bytes.
func newImageFixture(tb testing.TB, strat converse.StackStrategy) (*imageFixture, []byte) {
	tb.Helper()
	region, err := mem.NewIsoRegion(mem.DefaultIsoBase, 2*1024*vmem.PageSize, 2)
	if err != nil {
		tb.Fatal(err)
	}
	x := &imageFixture{region: region, layout: swapglobal.NewLayout(), mv: mover{p: pup.NewGrowPacker()}}
	x.layout.Declare("g", 8)
	src := x.pe(tb, 0)
	var bodyErr error
	x.th, err = src.Sched.CthCreate(converse.ThreadOptions{
		Strategy: strat, StackSize: 2 * vmem.PageSize, Globals: x.layout, ArenaPages: 4,
	}, func(c *converse.Ctx) {
		frame, err := c.PushFrame(vmem.PageSize + 64)
		if err == nil {
			err = c.Space().Write(frame, pattern(1, 0, vmem.PageSize+64))
		}
		for _, n := range []uint64{100, 5000} {
			var blk vmem.Addr
			if err == nil {
				blk, err = c.Malloc(n)
			}
			if err == nil {
				err = c.Space().Write(blk, pattern(2, int(n), int(n)))
			}
		}
		if err == nil {
			err = c.GlobalsGOT().StoreUint64("g", 42)
		}
		if err != nil {
			bodyErr = err
			return
		}
		c.Suspend()
	})
	if err != nil {
		tb.Fatal(err)
	}
	src.Sched.Start(x.th)
	src.Sched.RunUntilIdle()
	if bodyErr != nil {
		tb.Fatal(bodyErr)
	}
	if _, err := src.Sched.Evict(x.th); err != nil {
		tb.Fatal(err)
	}
	if err := Extract(x.th, src, &x.mv.im); err != nil {
		tb.Fatal(err)
	}
	seed, err := pup.Pack(&x.mv.im)
	if err != nil {
		tb.Fatal(err)
	}
	return x, seed
}

// pe boots PE index of the fixture's machine.
func (x *imageFixture) pe(tb testing.TB, index int) *converse.PE {
	tb.Helper()
	pe, err := converse.NewPE(converse.PEConfig{Index: index, Profile: platform.Opteron(), IsoRegion: x.region, Globals: x.layout})
	if err != nil {
		tb.Fatal(err)
	}
	return pe
}

// install decodes data in place into the fixture's scratch, retargets
// the image at the fixture's thread, installs it on a fresh PE and
// fails if a page outside the image's declared ranges changed.
func (x *imageFixture) install(t *testing.T, data []byte) {
	p, im := x.mv.p, &x.mv.im
	p.Reset()
	if err := rawBytes(data).Pup(p); err != nil {
		t.Fatal(err)
	}
	p.ReadBack()
	if err := im.Pup(p); err != nil || p.Remaining() != 0 {
		return
	}
	im.ID, im.Stack.Strategy = uint64(x.th.ID()), x.th.Strategy().Name()
	dst := x.pe(t, 1)
	before := dst.Space.Snapshot()
	err := Install(x.th, dst, im, x.layout)
	declared := func(vpn uint64) bool {
		a := vmem.Addr(vpn << vmem.PageShift)
		page := vmem.Range{Start: a, Length: vmem.PageSize}
		stack := vmem.Range{Start: vmem.Addr(im.Stack.Base) - vmem.PageSize, Length: im.Stack.Size + vmem.PageSize}
		if im.Stack.Strategy == NameIsomalloc && stack.Covers(page) {
			return true
		}
		for _, ar := range im.Heap.Arenas {
			if (vmem.Range{Start: vmem.Addr(ar.Start), Length: ar.Length}).Covers(page) {
				return true
			}
		}
		return false
	}
	was := make(map[uint64]vmem.SpacePage, len(before.Pages))
	for _, pg := range before.Pages {
		was[pg.VPN] = pg
	}
	for _, pg := range dst.Space.Snapshot().Pages {
		old, ok := was[pg.VPN]
		delete(was, pg.VPN)
		if ok && old.Prot == pg.Prot && bytes.Equal(old.Data, pg.Data) {
			continue
		}
		if !declared(pg.VPN) {
			t.Fatalf("%s install (err %v) changed page %#x outside the image's ranges", im.Stack.Strategy, err, pg.VPN)
		}
	}
	for vpn := range was {
		t.Fatalf("%s install (err %v) unmapped page %#x", im.Stack.Strategy, err, vpn)
	}
}

// FuzzThreadImage throws arbitrary bytes at the decoder every thread
// move runs: an in-place unpack into a mover's scratch image, whose run
// data are then views of the wire buffer. Each input is installed for a
// parked thread of each of the three strategies on a fresh destination
// PE. It must end in success or a returned error, never a panic, and
// change no page of the destination outside the ranges the image
// declares (its isomalloc stack slab and its heap arenas). The image is
// retargeted at each thread — its id and strategy name, whose refusals
// the unit tests check — so inputs reach the stack, heap and globals
// installs. Seeds are packed images of real threads: dirty stack runs,
// one heap arena with live blocks, and globals.
func FuzzThreadImage(f *testing.F) {
	var fxs []*imageFixture
	for _, strat := range All() {
		x, seed := newImageFixture(f, strat)
		fxs = append(fxs, x)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, x := range fxs {
			x.install(t, data)
		}
	})
}
