package converse_test

import (
	"fmt"
	"math/rand"
	"testing"

	"migflow/internal/converse"
	"migflow/internal/mem"
	"migflow/internal/migrate"
	"migflow/internal/platform"
	"migflow/internal/swapglobal"
	"migflow/internal/vmem"
)

// newPEs boots n PEs of one machine on the given platform, sharing an
// isomalloc region.
func newPEs(t testing.TB, n int, prof *platform.Profile, globals *swapglobal.Layout) []*converse.PE {
	t.Helper()
	region, err := mem.NewIsoRegion(mem.DefaultIsoBase, uint64(n)*256*vmem.PageSize*16, n)
	if err != nil {
		t.Fatal(err)
	}
	pes := make([]*converse.PE, n)
	for i := 0; i < n; i++ {
		pe, err := converse.NewPE(converse.PEConfig{
			Index: i, Profile: prof, IsoRegion: region, Globals: globals,
		})
		if err != nil {
			t.Fatal(err)
		}
		pes[i] = pe
	}
	return pes
}

func onePE(t testing.TB) *converse.PE {
	return newPEs(t, 1, platform.Opteron(), nil)[0]
}

func TestThreadRunsToCompletion(t *testing.T) {
	pe := onePE(t)
	ran := false
	th, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
		ran = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if th.State() != converse.Created {
		t.Errorf("state before Start = %s", th.State())
	}
	pe.Sched.Start(th)
	pe.Sched.RunUntilIdle()
	if !ran {
		t.Error("body did not run")
	}
	if th.State() != converse.Exited {
		t.Errorf("state after run = %s", th.State())
	}
	if pe.Sched.Live() != 0 {
		t.Errorf("Live = %d after exit", pe.Sched.Live())
	}
}

func TestYieldInterleaves(t *testing.T) {
	pe := onePE(t)
	var order []string
	mk := func(name string) func(*converse.Ctx) {
		return func(c *converse.Ctx) {
			for i := 0; i < 3; i++ {
				order = append(order, fmt.Sprintf("%s%d", name, i))
				c.Yield()
			}
		}
	}
	for _, name := range []string{"a", "b"} {
		th, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, mk(name))
		if err != nil {
			t.Fatal(err)
		}
		pe.Sched.Start(th)
	}
	pe.Sched.RunUntilIdle()
	want := []string{"a0", "b0", "a1", "b1", "a2", "b2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestSuspendAwaken(t *testing.T) {
	pe := onePE(t)
	stage := 0
	th, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
		stage = 1
		c.Suspend()
		stage = 2
	})
	if err != nil {
		t.Fatal(err)
	}
	pe.Sched.Start(th)
	pe.Sched.RunUntilIdle()
	if stage != 1 {
		t.Fatalf("stage = %d, want 1 (suspended)", stage)
	}
	if th.State() != converse.Suspended {
		t.Fatalf("state = %s, want suspended", th.State())
	}
	th.Awaken()
	if th.State() != converse.Ready {
		t.Fatalf("state after Awaken = %s", th.State())
	}
	pe.Sched.RunUntilIdle()
	if stage != 2 {
		t.Errorf("stage = %d, want 2", stage)
	}
	// Awaken on an exited thread is a no-op.
	th.Awaken()
}

func TestWakePendingWhileRunning(t *testing.T) {
	pe := onePE(t)
	hits := 0
	th, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
		// Awaken arrives while we are still running...
		c.Thread().Awaken()
		// ...so this Suspend must return immediately.
		c.Suspend()
		hits++
	})
	if err != nil {
		t.Fatal(err)
	}
	pe.Sched.Start(th)
	pe.Sched.RunUntilIdle()
	if hits != 1 {
		t.Errorf("hits = %d; lost wakeup", hits)
	}
}

func TestPriorityOrdering(t *testing.T) {
	pe := onePE(t)
	var order []int
	for _, prio := range []int{5, 1, 3} {
		prio := prio
		th, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}, Priority: prio}, func(c *converse.Ctx) {
			order = append(order, prio)
		})
		if err != nil {
			t.Fatal(err)
		}
		pe.Sched.Start(th)
	}
	pe.Sched.RunUntilIdle()
	if fmt.Sprint(order) != fmt.Sprint([]int{1, 3, 5}) {
		t.Errorf("priority order = %v", order)
	}
}

func TestStackFrames(t *testing.T) {
	pe := onePE(t)
	var fail string
	th, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}, StackSize: 2 * vmem.PageSize}, func(c *converse.Ctx) {
		top := c.Thread().SP()
		f1, err := c.PushFrame(64)
		if err != nil {
			fail = err.Error()
			return
		}
		if c.Thread().StackBytesUsed() != 64 {
			fail = fmt.Sprintf("used = %d, want 64", c.Thread().StackBytesUsed())
			return
		}
		if err := c.Space().WriteUint64(f1, 0x1111); err != nil {
			fail = err.Error()
			return
		}
		f2, err := c.PushFrame(100) // rounds to 112
		if err != nil {
			fail = err.Error()
			return
		}
		if err := c.Space().WriteUint64(f2, 0x2222); err != nil {
			fail = err.Error()
			return
		}
		c.Yield() // survive a context switch
		v1, err := c.Space().ReadUint64(f1)
		if err != nil || v1 != 0x1111 {
			fail = fmt.Sprintf("frame1 = %#x/%v", v1, err)
			return
		}
		v2, _ := c.Space().ReadUint64(f2)
		if v2 != 0x2222 {
			fail = fmt.Sprintf("frame2 = %#x", v2)
			return
		}
		c.PopFrame(100)
		c.PopFrame(64)
		if c.Thread().SP() != top {
			fail = "SP not restored after pops"
		}
		// Overflow: a frame bigger than the stack.
		if _, err := c.PushFrame(4 * vmem.PageSize); err == nil {
			fail = "overflow not detected"
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	pe.Sched.Start(th)
	pe.Sched.RunUntilIdle()
	if fail != "" {
		t.Error(fail)
	}
}

func TestMallocInterposition(t *testing.T) {
	pe := onePE(t)
	region := pe.Iso.Slot()
	var inThreadAddr vmem.Addr
	th, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
		a, err := c.Malloc(128)
		if err != nil {
			t.Errorf("in-thread malloc: %v", err)
			return
		}
		inThreadAddr = a
	})
	if err != nil {
		t.Fatal(err)
	}
	pe.Sched.Start(th)
	pe.Sched.RunUntilIdle()
	if !region.Contains(inThreadAddr) {
		t.Errorf("in-thread malloc returned %s, outside isomalloc slot %s", inThreadAddr, region)
	}
	// Outside thread context the interposer uses the system heap.
	a, err := pe.Inter.Malloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if region.Contains(a) {
		t.Errorf("out-of-thread malloc landed in the isomalloc slot: %s", a)
	}
}

func TestGlobalsPrivatizedAcrossThreads(t *testing.T) {
	layout := swapglobal.NewLayout()
	layout.Declare("counter", 8)
	pe := newPEs(t, 1, platform.Opteron(), layout)[0]
	results := map[int]uint64{}
	for i := 0; i < 2; i++ {
		i := i
		th, err := pe.Sched.CthCreate(converse.ThreadOptions{
			Strategy: migrate.Isomalloc{}, Globals: layout,
		}, func(c *converse.Ctx) {
			got := c.GlobalsGOT()
			for k := 0; k < 5; k++ {
				v, err := got.LoadUint64("counter")
				if err != nil {
					t.Errorf("load: %v", err)
					return
				}
				if err := got.StoreUint64("counter", v+uint64(i+1)); err != nil {
					t.Errorf("store: %v", err)
					return
				}
				c.Yield() // interleave with the other thread
			}
			results[i], _ = got.LoadUint64("counter")
		})
		if err != nil {
			t.Fatal(err)
		}
		pe.Sched.Start(th)
	}
	pe.Sched.RunUntilIdle()
	if results[0] != 5 || results[1] != 10 {
		t.Errorf("privatized counters = %v, want map[0:5 1:10]", results)
	}
}

func TestCthCreateValidation(t *testing.T) {
	pe := onePE(t)
	if _, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, nil); err == nil {
		t.Error("nil body accepted")
	}
	if _, err := pe.Sched.CthCreate(converse.ThreadOptions{}, func(*converse.Ctx) {}); err == nil {
		t.Error("nil strategy accepted")
	}
	if _, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}, StackSize: converse.MaxStackSize + vmem.PageSize}, func(*converse.Ctx) {}); err == nil {
		t.Error("oversized stack accepted")
	}
	layout := swapglobal.NewLayout()
	layout.Declare("x", 8)
	if _, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}, Globals: layout}, func(*converse.Ctx) {}); err == nil {
		t.Error("globals without a GOT accepted")
	}
}

func TestUserThreadLimit(t *testing.T) {
	prof := platform.Opteron()
	prof.MaxUserThreads = platform.Limit{N: 3}
	pes := newPEs(t, 1, prof, nil)
	pe := pes[0]
	for i := 0; i < 3; i++ {
		if _, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}, StackSize: vmem.PageSize}, func(*converse.Ctx) {}); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	if _, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}, StackSize: vmem.PageSize}, func(*converse.Ctx) {}); err == nil {
		t.Error("ULT limit not enforced")
	}
}

func TestVirtualClockChargesSwitches(t *testing.T) {
	pe := onePE(t)
	before := pe.Clock.Now()
	th, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
		c.Yield()
		c.Yield()
	})
	if err != nil {
		t.Fatal(err)
	}
	afterCreate := pe.Clock.Now()
	if afterCreate-before != pe.Prof.UThreadCreate {
		t.Errorf("creation charged %g, want %g", afterCreate-before, pe.Prof.UThreadCreate)
	}
	pe.Sched.Start(th)
	pe.Sched.RunUntilIdle()
	if pe.Sched.Switches() != 3 {
		t.Errorf("switches = %d, want 3", pe.Sched.Switches())
	}
	perSwitch := pe.Prof.AMPISwitch.At(1)
	want := afterCreate + 3*perSwitch
	if got := pe.Clock.Now(); got != want {
		t.Errorf("clock = %g, want %g", got, want)
	}
}

func TestSchedulerRunStopAndIdleHandler(t *testing.T) {
	pe := onePE(t)
	idles := 0
	pe.Sched.SetIdleHandler(func() bool {
		idles++
		return idles < 3 // stop Run after 3 idle polls
	})
	count := 0
	th, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
		count++
	})
	if err != nil {
		t.Fatal(err)
	}
	pe.Sched.Start(th)
	pe.Sched.Run() // returns when idle handler says stop
	if count != 1 || idles != 3 {
		t.Errorf("count = %d idles = %d", count, idles)
	}
}

func TestSchedulerStop(t *testing.T) {
	pe := onePE(t)
	done := make(chan struct{})
	go func() {
		pe.Sched.Run()
		close(done)
	}()
	pe.Sched.Stop()
	<-done // must return promptly
}

func TestNewPEValidation(t *testing.T) {
	region, _ := mem.NewIsoRegion(mem.DefaultIsoBase, 1024*vmem.PageSize, 2)
	if _, err := converse.NewPE(converse.PEConfig{Profile: nil, IsoRegion: region}); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := converse.NewPE(converse.PEConfig{Index: 5, Profile: platform.Opteron(), IsoRegion: region}); err == nil {
		t.Error("index beyond region accepted")
	}
	if _, err := converse.NewPE(converse.PEConfig{Index: 0, Profile: platform.Opteron()}); err == nil {
		t.Error("empty region accepted")
	}
}

// TestNewPE32BitIsoRegionExhaustion boots a PE whose isomalloc region
// exceeds the 32-bit platform's address space — the §3.4.2 failure.
func TestNewPE32BitIsoRegionExhaustion(t *testing.T) {
	big, err := mem.NewIsoRegion(mem.DefaultIsoBase, 4<<30, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = converse.NewPE(converse.PEConfig{Index: 0, Profile: platform.LinuxX86(), IsoRegion: big})
	if err == nil {
		t.Fatal("32-bit PE accepted a 4 GiB isomalloc region")
	}
	if _, err := converse.NewPE(converse.PEConfig{Index: 0, Profile: platform.Opteron(), IsoRegion: big}); err != nil {
		t.Errorf("64-bit PE rejected the same region: %v", err)
	}
}

func TestFastThreads(t *testing.T) {
	s := converse.NewFastScheduler()
	var order []converse.ID
	var ids []converse.ID
	for i := 0; i < 3; i++ {
		th := s.Create(func(c *converse.FastCtx) {
			order = append(order, c.ID())
			c.Yield()
			order = append(order, c.ID())
		})
		ids = append(ids, th.ID())
		_ = th.String()
		s.Start(th)
	}
	s.RunUntilIdle()
	if len(order) != 6 {
		t.Fatalf("order len = %d", len(order))
	}
	// Round robin: first three entries are the three ids in order.
	for i := 0; i < 3; i++ {
		if order[i] != ids[i] || order[i+3] != ids[i] {
			t.Errorf("round robin broken: %v (ids %v)", order, ids)
		}
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestMinimalSwapRoutines(t *testing.T) {
	var a, b converse.RegContext
	for i := range b.Regs {
		b.Regs[i] = uint64(i + 100)
	}
	b.SP = 0xB000
	live := [converse.CalleeSavedRegs]uint64{1, 2, 3, 4, 5, 6, 7}
	sp := uint64(0xA000)
	converse.MinimalSwap(&a, &b, &live, &sp)
	if a.SP != 0xA000 || a.Regs[0] != 1 || a.Regs[6] != 7 {
		t.Errorf("old context not saved: %+v", a.Regs[:8])
	}
	if sp != 0xB000 || live[0] != 100 {
		t.Errorf("new context not loaded: sp=%#x live=%v", sp, live)
	}
	// Swap back restores the original.
	converse.MinimalSwap(&b, &a, &live, &sp)
	if sp != 0xA000 || live[0] != 1 {
		t.Errorf("swap back failed: sp=%#x live=%v", sp, live)
	}

	var fl [converse.FullRegs]uint64
	converse.FullSwap(&a, &b, &fl, &sp)
	mask := uint64(0)
	converse.SigmaskSwap(&a, &b, &fl, &sp, &mask)
	if mask == 0 {
		t.Error("sigmask syscall not simulated")
	}
}

// TestExclusiveThreadsInterleave: two stack-copy threads share the
// canonical stack address; the scheduler's switch-out/switch-in
// discipline lets them interleave correctly, each seeing only its own
// stack data.
func TestExclusiveThreadsInterleave(t *testing.T) {
	for _, strat := range []converse.StackStrategy{migrate.StackCopy{}, migrate.MemoryAlias{}} {
		t.Run(strat.Name(), func(t *testing.T) {
			pe := onePE(t)
			var fail string
			mk := func(marker uint64) func(*converse.Ctx) {
				return func(c *converse.Ctx) {
					f, err := c.PushFrame(32)
					if err != nil {
						fail = err.Error()
						return
					}
					if err := c.Space().WriteUint64(f, marker); err != nil {
						fail = err.Error()
						return
					}
					for i := 0; i < 5; i++ {
						c.Yield()
						v, err := c.Space().ReadUint64(f)
						if err != nil {
							fail = err.Error()
							return
						}
						if v != marker {
							fail = fmt.Sprintf("thread %d sees %#x at its frame, want %#x (stack bled through the canonical address)", marker, v, marker)
							return
						}
					}
				}
			}
			for _, marker := range []uint64{0xAAAA, 0xBBBB} {
				th, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: strat, StackSize: 2 * 4096}, mk(marker))
				if err != nil {
					t.Fatal(err)
				}
				pe.Sched.Start(th)
			}
			pe.Sched.RunUntilIdle()
			if fail != "" {
				t.Fatal(fail)
			}
		})
	}
}

// TestSchedulerModelCheck drives many threads through seeded random
// yield/suspend sequences and checks the scheduler's accounting
// exactly against the model: every thread runs each of its segments
// exactly once, the switch count equals the total segment count, and
// nothing leaks.
func TestSchedulerModelCheck(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pe := onePE(t)
		const nThreads = 20
		type model struct {
			ops      []int // 0 = yield, 1 = suspend
			executed int
		}
		models := make([]*model, nThreads)
		threads := make([]*converse.Thread, nThreads)
		for i := 0; i < nThreads; i++ {
			m := &model{}
			for k := rng.Intn(8); k > 0; k-- {
				m.ops = append(m.ops, rng.Intn(2))
			}
			models[i] = m
			th, err := pe.Sched.CthCreate(converse.ThreadOptions{
				Strategy:  migrate.Isomalloc{},
				StackSize: 2 * 4096,
				Priority:  rng.Intn(3),
			}, func(c *converse.Ctx) {
				for _, op := range m.ops {
					m.executed++
					if op == 0 {
						c.Yield()
					} else {
						c.Suspend()
					}
				}
				m.executed++
			})
			if err != nil {
				t.Fatal(err)
			}
			threads[i] = th
			pe.Sched.Start(th)
		}
		// Drive: run to idle, wake all suspended, repeat.
		for rounds := 0; ; rounds++ {
			if rounds > 1000 {
				t.Fatal("did not converge")
			}
			pe.Sched.RunUntilIdle()
			woke := false
			for _, th := range threads {
				if th.State() == converse.Suspended {
					th.Awaken()
					woke = true
				}
			}
			if !woke {
				break
			}
		}
		// Model agreement.
		var wantSwitches uint64
		for i, m := range models {
			if threads[i].State() != converse.Exited {
				t.Fatalf("seed %d: thread %d is %s", seed, i, threads[i].State())
			}
			if m.executed != len(m.ops)+1 {
				t.Errorf("seed %d: thread %d executed %d segments, want %d", seed, i, m.executed, len(m.ops)+1)
			}
			wantSwitches += uint64(len(m.ops) + 1)
		}
		if got := pe.Sched.Switches(); got != wantSwitches {
			t.Errorf("seed %d: switches = %d, want exactly %d", seed, got, wantSwitches)
		}
		if pe.Sched.Live() != 0 || pe.Sched.ReadyLen() != 0 {
			t.Errorf("seed %d: leaked threads: live=%d ready=%d", seed, pe.Sched.Live(), pe.Sched.ReadyLen())
		}
		if len(pe.Sched.Threads()) != 0 {
			t.Errorf("seed %d: registry leaked %d threads", seed, len(pe.Sched.Threads()))
		}
		// All stacks and heaps returned to the allocators.
		if n := pe.Iso.LiveSlabs(); n != 0 {
			t.Errorf("seed %d: %d isomalloc slabs leaked", seed, n)
		}
	}
}

func TestThreadStateString(t *testing.T) {
	for _, s := range []converse.State{converse.Created, converse.Ready, converse.Running, converse.Suspended, converse.Migrating, converse.Exited, converse.State(99)} {
		if s.String() == "" {
			t.Error("empty state string")
		}
	}
}

// TestThreadPanicReachesSchedulerCaller: a panic in a thread body
// surfaces on the goroutine driving the scheduler — where the caller
// can recover it — naming the thread and the PE.
func TestThreadPanicReachesSchedulerCaller(t *testing.T) {
	pe := onePE(t)
	th, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
		c.Yield()
		panic("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	pe.Sched.Start(th)
	var got any
	func() {
		defer func() { got = recover() }()
		pe.Sched.RunUntilIdle()
	}()
	want := fmt.Sprintf("converse: thread %d on PE 0 panicked: boom", th.ID())
	if got != want {
		t.Errorf("recovered %v, want %q", got, want)
	}
}
