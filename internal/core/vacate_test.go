package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"migflow/internal/converse"
	"migflow/internal/migrate"
	"migflow/internal/swapglobal"
)

// moveOne forcibly moves th to PE dest in a one-move MigrateMany.
func moveOne(t *testing.T, m *Machine, th *converse.Thread, dest int) {
	t.Helper()
	moved, err := m.MigrateMany([]Move{{T: th, Dest: dest}})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("MigrateMany moved %d threads, want 1", moved)
	}
}

// TestMigrateExternalReady forcibly moves a runnable thread between
// PEs from outside its scheduler, with a one-move MigrateMany; it must
// run to completion on the destination with its state intact.
func TestMigrateExternalReady(t *testing.T) {
	layout := swapglobal.NewLayout()
	layout.Declare("x", 8)
	m, err := NewMachine(Config{NumPEs: 2, Globals: layout})
	if err != nil {
		t.Fatal(err)
	}
	ranOn := -1
	var sawX uint64
	th, err := m.PE(0).Sched.CthCreate(converse.ThreadOptions{
		Strategy: migrate.Isomalloc{}, Globals: layout,
	}, func(c *converse.Ctx) {
		ranOn = c.PE().Index
		sawX, _ = c.GlobalsGOT().LoadUint64("x")
	})
	if err != nil {
		t.Fatal(err)
	}
	m.PE(0).Sched.Start(th) // Ready on PE 0, never run
	// Pre-set its privatized global directly through its instance.
	slot, err := layout.SlotOf("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PE(0).Space.WriteUint64(th.Globals().Image()[slot], 77); err != nil {
		t.Fatal(err)
	}
	moveOne(t, m, th, 1)
	if got := m.PE(0).Sched.ReadyLen(); got != 0 {
		t.Errorf("source still has %d ready threads", got)
	}
	m.RunUntilQuiescent()
	if ranOn != 1 {
		t.Errorf("thread ran on PE %d, want 1", ranOn)
	}
	if sawX != 77 {
		t.Errorf("global after forced migration = %d, want 77", sawX)
	}
}

// TestMigrateExternalSuspended moves a thread blocked in Suspend with
// a one-move MigrateMany; it must keep waiting on the destination and
// resume there when woken.
func TestMigrateExternalSuspended(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	resumedOn := -1
	th, err := m.PE(0).Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
		c.Suspend()
		resumedOn = c.PE().Index
	})
	if err != nil {
		t.Fatal(err)
	}
	m.PE(0).Sched.Start(th)
	m.RunUntilQuiescent() // thread now Suspended on PE 0
	if th.State() != converse.Suspended {
		t.Fatalf("state = %s", th.State())
	}
	moveOne(t, m, th, 1)
	if th.State() != converse.Suspended {
		t.Fatalf("state after external migration = %s, want suspended", th.State())
	}
	if m.PE(1).Sched.Live() != 1 || m.PE(0).Sched.Live() != 0 {
		t.Errorf("ownership not transferred: live %d/%d", m.PE(0).Sched.Live(), m.PE(1).Sched.Live())
	}
	th.Awaken()
	m.RunUntilQuiescent()
	if resumedOn != 1 {
		t.Errorf("resumed on PE %d, want 1", resumedOn)
	}
}

// TestWakeDuringFlight delivers an Awaken between eviction and
// adoption; the wake must not be lost.
func TestWakeDuringFlight(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	resumed := false
	th, err := m.PE(0).Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
		c.Suspend()
		resumed = true
	})
	if err != nil {
		t.Fatal(err)
	}
	m.PE(0).Sched.Start(th)
	m.RunUntilQuiescent()
	// Simulate the race: evict, wake mid-flight, then complete the
	// move by hand.
	if _, err := m.PE(0).Sched.Evict(th); err != nil {
		t.Fatal(err)
	}
	th.Awaken() // in flight: must be remembered
	var im migrate.ThreadImage
	if err := migrate.Extract(th, m.PE(0), &im); err != nil {
		t.Fatal(err)
	}
	if err := migrate.Install(th, m.PE(1), &im, nil); err != nil {
		t.Fatal(err)
	}
	m.PE(0).Sched.Disown(th)
	m.PE(1).Sched.AdoptSuspended(th)
	if th.State() != converse.Ready {
		t.Fatalf("state = %s, want ready (pending wake honoured)", th.State())
	}
	m.RunUntilQuiescent()
	if !resumed {
		t.Error("wake lost during flight")
	}
}

func TestEvictValidation(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.PE(0).Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {})
	if err != nil {
		t.Fatal(err)
	}
	// Created (never started): not evictable.
	if _, err := m.PE(0).Sched.Evict(th); err == nil {
		t.Error("evicting a Created thread accepted")
	}
	m.PE(0).Sched.Start(th)
	m.RunUntilQuiescent()
	// Exited: not evictable.
	if _, err := m.PE(0).Sched.Evict(th); err == nil {
		t.Error("evicting an Exited thread accepted")
	}
}

// TestVacate evacuates a full PE: runnable and suspended threads of
// all three stack techniques all land on survivors and finish.
func TestVacate(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 3})
	if err != nil {
		t.Fatal(err)
	}
	const perStrat = 2
	finished := 0
	var threads []*converse.Thread
	for _, strat := range migrate.All() {
		for i := 0; i < perStrat; i++ {
			th, err := m.PE(0).Sched.CthCreate(converse.ThreadOptions{Strategy: strat, StackSize: 4096 * 4}, func(c *converse.Ctx) {
				c.Suspend() // park until the post-vacate wake
				if c.PE().Index == 0 {
					t.Error("thread resumed on the vacated PE")
				}
				finished++
			})
			if err != nil {
				t.Fatal(err)
			}
			m.PE(0).Sched.Start(th)
			threads = append(threads, th)
		}
	}
	m.RunUntilQuiescent() // all suspended on PE 0
	moved, err := m.Vacate(0)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 3*perStrat {
		t.Errorf("moved %d, want %d", moved, 3*perStrat)
	}
	if m.PE(0).Sched.Live() != 0 {
		t.Errorf("PE 0 still owns %d threads", m.PE(0).Sched.Live())
	}
	// Survivors share the evacuees.
	if m.PE(1).Sched.Live()+m.PE(2).Sched.Live() != 3*perStrat {
		t.Errorf("survivors own %d+%d", m.PE(1).Sched.Live(), m.PE(2).Sched.Live())
	}
	for _, th := range threads {
		th.Awaken()
	}
	m.RunUntilQuiescent()
	if finished != 3*perStrat {
		t.Errorf("finished = %d", finished)
	}
}

func TestVacateValidation(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Vacate(0); err == nil {
		t.Error("vacating the only PE accepted")
	}
	if _, err := m.Vacate(5); err == nil {
		t.Error("vacating a bad PE accepted")
	}
}

// TestStealVacateRace races migration initiators over the same thread
// population: bulk Vacate batches and random MigrateMany batches from
// an outside goroutine, against the PE schedulers of a live
// RunParallel. (The name dates from when idle-PE stealing was a third
// initiator; no PE steals now.) Threads that are Running, already Migrating, or
// owned by a different scheduler than the batch snapshot saw must be
// skipped (ErrNotEvictable), never corrupted — run under -race.
func TestStealVacateRace(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	var done atomic.Int64
	threads := make([]*converse.Thread, 0, n)
	for i := 0; i < n; i++ {
		pe := i % 4
		th, err := m.PE(pe).Sched.CthCreate(converse.ThreadOptions{
			Strategy: migrate.Isomalloc{},
		}, func(c *converse.Ctx) {
			for k := 0; k < 10; k++ {
				c.Work(10_000)
				c.Yield()
			}
			done.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		m.PE(pe).Sched.Start(th)
		threads = append(threads, th)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for !stop.Load() {
			switch rng.Intn(2) {
			case 0:
				if _, err := m.Vacate(rng.Intn(4)); err != nil {
					t.Errorf("Vacate: %v", err)
					return
				}
			case 1:
				var moves []Move
				for _, th := range threads {
					if rng.Intn(4) == 0 {
						moves = append(moves, Move{T: th, Dest: rng.Intn(4)})
					}
				}
				if _, err := m.MigrateMany(moves); err != nil {
					t.Errorf("MigrateMany: %v", err)
					return
				}
			}
		}
	}()
	m.RunParallel(func(bool) bool { return done.Load() == n })
	stop.Store(true)
	wg.Wait()
	if done.Load() != n {
		t.Fatalf("only %d/%d threads finished", done.Load(), n)
	}
	for _, th := range threads {
		if th.State() != converse.Exited {
			t.Errorf("thread %d ended %s, want exited", th.ID(), th.State())
		}
	}
}

// TestMigrateManyResumesOnAnotherGoroutine bounces two suspended
// threads between two PEs with MigrateMany, called from outside a
// running RunParallel: every hop takes them off the scheduler goroutine
// that parked them, and every slice resumes on the other PE's
// goroutine. A thread parked by one goroutine must resume, with its
// simulated stack intact, when a different goroutine switches to it.
func TestMigrateManyResumesOnAnotherGoroutine(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	const trips = 40
	var fail atomic.Value
	var exited atomic.Int64
	ths := make([]*converse.Thread, 2)
	for i := range ths {
		th, err := m.PE(0).Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
			defer exited.Add(1)
			frame, err := c.PushFrame(8)
			if err != nil {
				fail.Store(err.Error())
				return
			}
			for k := uint64(0); k < 2*trips; k++ {
				_ = c.Space().WriteUint64(frame, k<<8|uint64(i))
				c.Suspend()
				if want := int(k+1) % 2; c.PE().Index != want {
					fail.Store(fmt.Sprintf("thread %d slice %d resumed on PE %d, want %d", i, k, c.PE().Index, want))
				}
				if v, err := c.Space().ReadUint64(frame); err != nil || v != k<<8|uint64(i) {
					fail.Store(fmt.Sprintf("thread %d slice %d: frame = %#x/%v after the hop", i, k, v, err))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		m.PE(0).Sched.Start(th)
		ths[i] = th
	}
	var abort atomic.Bool
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		m.RunParallel(func(bool) bool { return abort.Load() || exited.Load() == int64(len(ths)) })
	}()
	// parkedOn waits until both threads sit Suspended on pe.
	parkedOn := func(pe *converse.PE) bool {
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
			n := 0
			for _, th := range ths {
				if th.State() == converse.Suspended && th.Scheduler() == pe.Sched {
					n++
				}
			}
			if n == len(ths) {
				return true
			}
		}
		return false
	}
	for hop := 0; hop < 2*trips && fail.Load() == nil; hop++ {
		victim, thief := m.PE(hop%2), hop%2^1
		if !parkedOn(victim) {
			fail.Store(fmt.Sprintf("hop %d: threads did not park on PE %d", hop, victim.Index))
			break
		}
		moves := make([]Move, len(ths))
		for i, th := range ths {
			moves[i] = Move{T: th, Dest: thief}
		}
		if moved, err := m.MigrateMany(moves); err != nil || moved != len(ths) {
			fail.Store(fmt.Sprintf("hop %d: MigrateMany moved %d threads, want %d (%v)", hop, moved, len(ths), err))
			break
		}
		for _, th := range ths {
			th.Awaken()
		}
	}
	if fail.Load() != nil {
		abort.Store(true)
		m.Wake()
	}
	<-ran
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
	for _, th := range ths {
		if th.State() != converse.Exited {
			t.Errorf("thread %d is %s after %d round trips", th.ID(), th.State(), trips)
		}
	}
}
