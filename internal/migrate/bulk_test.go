package migrate

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"migflow/internal/converse"
	"migflow/internal/pup"
	"migflow/internal/vmem"
)

// TestMigrateExternalSuspended: a thread blocked in Suspend is
// forcibly moved from outside its scheduler by a one-op BulkMigrate
// under each strategy; it must keep waiting on the destination and
// finish correctly when awakened there — the load balancer's "ranks
// blocked in Recv keep waiting on their new PE" contract.
func TestMigrateExternalSuspended(t *testing.T) {
	for _, strat := range All() {
		t.Run(strat.Name(), func(t *testing.T) {
			m := newMachine(t, 2, nil)
			var fail string
			done := false
			th, err := m.pes[0].Sched.CthCreate(converse.ThreadOptions{
				Strategy:  strat,
				StackSize: 4 * vmem.PageSize,
			}, func(c *converse.Ctx) {
				frame, err := c.PushFrame(64)
				if err != nil {
					fail = err.Error()
					return
				}
				if err := c.Space().WriteUint64(frame, 0xC0FFEE); err != nil {
					fail = err.Error()
					return
				}
				blk, err := c.Malloc(256)
				if err != nil {
					fail = err.Error()
					return
				}
				if err := c.Space().WriteUint64(blk, 0xBEEF); err != nil {
					fail = err.Error()
					return
				}
				if err := c.Space().WriteAddr(frame.Add(8), blk); err != nil {
					fail = err.Error()
					return
				}
				c.Suspend() // ... forcibly migrated while parked here ...
				if c.PE().Index != 1 {
					fail = fmt.Sprintf("awoke on PE %d, want 1", c.PE().Index)
					return
				}
				if v, err := c.Space().ReadUint64(frame); err != nil || v != 0xC0FFEE {
					fail = fmt.Sprintf("stack after forced move = %#x/%v", v, err)
					return
				}
				p, err := c.Space().ReadAddr(frame.Add(8))
				if err != nil {
					fail = err.Error()
					return
				}
				if v, err := c.Space().ReadUint64(p); err != nil || v != 0xBEEF {
					fail = fmt.Sprintf("heap after forced move = %#x/%v", v, err)
					return
				}
				done = true
			})
			if err != nil {
				t.Fatal(err)
			}
			m.pes[0].Sched.Start(th)
			m.runAll() // runs until the thread suspends
			if th.State() != converse.Suspended {
				t.Fatalf("thread state = %s, want Suspended", th.State())
			}
			res := BulkMigrate([]Op{{T: th, Src: m.pes[0], Dst: m.pes[1]}}, nil)[0]
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if res.Bytes <= 0 {
				t.Error("no bytes reported for the image")
			}
			if !res.Suspended {
				t.Error("move not reported suspended")
			}
			if th.State() != converse.Suspended {
				t.Errorf("thread state after move = %s, want still Suspended", th.State())
			}
			if th.Scheduler() != m.pes[1].Sched {
				t.Error("thread not owned by destination scheduler")
			}
			th.Awaken()
			m.runAll()
			if fail != "" {
				t.Fatal(fail)
			}
			if !done || th.State() != converse.Exited {
				t.Errorf("done=%v state=%s", done, th.State())
			}
		})
	}
}

// TestSparseImageMatchesDense is the round-trip property test: for
// every strategy, a stack with a few dirtied pages extracts to a
// sparse image whose dense materialization is byte-identical to the
// stack's full contents before extraction, and installing the sparse
// image reproduces those exact bytes on the destination.
func TestSparseImageMatchesDense(t *testing.T) {
	const pages = 16
	for _, strat := range All() {
		for seed := int64(1); seed <= 4; seed++ {
			strat, seed := strat, seed
			t.Run(fmt.Sprintf("%s/seed%d", strat.Name(), seed), func(t *testing.T) {
				m := newMachine(t, 2, nil)
				src, dst := m.pes[0], m.pes[1]
				size := uint64(pages * vmem.PageSize)
				ref, err := strat.New(src, size)
				if err != nil {
					t.Fatal(err)
				}
				if err := strat.SwitchIn(src, ref, size); err != nil {
					t.Fatal(err)
				}
				base := ref.Base()
				// Dirty a random subset of pages with random bytes.
				rng := rand.New(rand.NewSource(seed))
				touched := 0
				for pg := 0; pg < pages; pg++ {
					if rng.Intn(3) != 0 {
						continue
					}
					touched++
					buf := make([]byte, rng.Intn(int(vmem.PageSize)-1)+1)
					rng.Read(buf)
					if err := src.Space.Write(base.Add(uint64(pg)*vmem.PageSize), buf); err != nil {
						t.Fatal(err)
					}
				}
				dense, err := src.Space.CopyOut(base, size)
				if err != nil {
					t.Fatal(err)
				}
				if err := strat.SwitchOut(src, ref, size); err != nil {
					t.Fatal(err)
				}
				im := &converse.StackImage{}
				if err := strat.Extract(src, ref, im); err != nil {
					t.Fatal(err)
				}
				// Sparseness: the image ships at most the touched pages
				// (stack copying also writes during switch in/out, so
				// allow its full live region; iso/alias must be exact).
				if strat.Name() != NameStackCopy && im.Payload() > touched*int(vmem.PageSize) {
					t.Errorf("image ships %d bytes for %d touched pages", im.Payload(), touched)
				}
				// Property 1: dense materialization of the sparse image
				// equals the source's dense contents.
				if got := vmem.DenseFromRuns(im.Runs, base, size); !bytes.Equal(got, dense) {
					t.Fatal("sparse image diverges from dense contents")
				}
				// PUP round trip of the image (the wire crossing).
				var im2 converse.StackImage
				data, err := pup.Pack(im)
				if err != nil {
					t.Fatal(err)
				}
				if err := pup.Unpack(data, &im2); err != nil {
					t.Fatal(err)
				}
				// Property 2: install + switch in reproduces the exact
				// bytes on the destination.
				ref2, err := strat.Install(dst, &im2, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := strat.SwitchIn(dst, ref2, size); err != nil {
					t.Fatal(err)
				}
				got, err := dst.Space.CopyOut(ref2.Base(), size)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, dense) {
					t.Fatal("installed stack diverges from source bytes")
				}
			})
		}
	}
}

// TestBulkMigrateMovesBatch: a batch of suspended threads crosses in
// one BulkMigrate call; every thread lands on its destination with
// state intact and finishes there.
func TestBulkMigrateMovesBatch(t *testing.T) {
	const n = 12
	m := newMachine(t, 4, nil)
	fails := make([]string, n)
	threads := make([]*converse.Thread, n)
	for i := 0; i < n; i++ {
		i := i
		strat := All()[i%len(All())]
		th, err := m.pes[0].Sched.CthCreate(converse.ThreadOptions{
			Strategy:  strat,
			StackSize: 4 * vmem.PageSize,
		}, func(c *converse.Ctx) {
			frame, err := c.PushFrame(64)
			if err != nil {
				fails[i] = err.Error()
				return
			}
			if err := c.Space().WriteUint64(frame, uint64(0x1000+i)); err != nil {
				fails[i] = err.Error()
				return
			}
			c.Suspend()
			if v, err := c.Space().ReadUint64(frame); err != nil || v != uint64(0x1000+i) {
				fails[i] = fmt.Sprintf("stack after bulk move = %#x/%v", v, err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		threads[i] = th
		m.pes[0].Sched.Start(th)
	}
	m.runAll()
	// Exclusive strategies share one canonical stack address per
	// space, but suspended threads are all switched out, so a batch
	// mixing all three strategies is fine.
	ops := make([]Op, n)
	for i, th := range threads {
		ops[i] = Op{T: th, Src: m.pes[0], Dst: m.pes[1+i%3]}
	}
	results := BulkMigrate(ops, nil)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("op %d: %v", i, res.Err)
		}
		if !res.Suspended {
			t.Errorf("op %d not reported suspended", i)
		}
		if res.Bytes <= 0 {
			t.Errorf("op %d reports %d bytes", i, res.Bytes)
		}
		if threads[i].Scheduler() != m.pes[1+i%3].Sched {
			t.Errorf("thread %d on wrong PE", i)
		}
	}
	for _, th := range threads {
		th.Awaken()
	}
	m.runAll()
	for i, f := range fails {
		if f != "" {
			t.Errorf("thread %d: %s", i, f)
		}
		if threads[i].State() != converse.Exited {
			t.Errorf("thread %d state = %s", i, threads[i].State())
		}
	}
}

// TestBulkMigrateConcurrentStress is the -race stress test: several
// goroutines, each calling BulkMigrate on its own threads, move them
// between overlapping source and destination PEs, repeatedly.
// Isomalloc is used because its per-thread unique addresses make
// concurrent installs into one space legal (the exclusive strategies
// still work in a batch, but this test maximizes genuinely parallel
// page traffic).
func TestBulkMigrateConcurrentStress(t *testing.T) {
	const n = 24
	m := newMachine(t, 4, nil)
	fails := make([]string, n)
	threads := make([]*converse.Thread, n)
	for i := 0; i < n; i++ {
		i := i
		th, err := m.pes[i%4].Sched.CthCreate(converse.ThreadOptions{
			Strategy:  Isomalloc{},
			StackSize: 4 * vmem.PageSize,
		}, func(c *converse.Ctx) {
			frame, err := c.PushFrame(64)
			if err != nil {
				fails[i] = err.Error()
				return
			}
			if err := c.Space().WriteUint64(frame, uint64(i)*7); err != nil {
				fails[i] = err.Error()
				return
			}
			c.Suspend()
			if v, err := c.Space().ReadUint64(frame); err != nil || v != uint64(i)*7 {
				fails[i] = fmt.Sprintf("stack = %#x/%v", v, err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		threads[i] = th
		m.pes[i%4].Sched.Start(th)
	}
	m.runAll()
	// Goroutine g owns threads g, g+movers, ...: its batches share
	// every PE with the other goroutines' batches, never a thread.
	const movers = 4
	var wg sync.WaitGroup
	for g := 0; g < movers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				var ops []Op
				for i := g; i < n; i += movers {
					src := threads[i].Scheduler().PE()
					ops = append(ops, Op{T: threads[i], Src: src, Dst: m.pes[(src.Index+1+i%3)%4]})
				}
				for j, res := range BulkMigrate(ops, nil) {
					if res.Err != nil {
						t.Errorf("mover %d round %d op %d: %v", g, round, j, res.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, th := range threads {
		th.Awaken()
	}
	m.runAll()
	for i, f := range fails {
		if f != "" {
			t.Errorf("thread %d: %s", i, f)
		}
		if threads[i].State() != converse.Exited {
			t.Errorf("thread %d state = %s", i, threads[i].State())
		}
	}
}
