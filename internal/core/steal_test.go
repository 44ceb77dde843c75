package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"migflow/internal/converse"
	"migflow/internal/migrate"
)

// TestStealRedistributes: a machine with stealing enabled and all the
// work parked on PE 0 must finish with other PEs having executed some
// of it. Work charges make PE 0 the modeled-busy victim; the other
// PEs start modeled-idle so the busy gate lets them rob it. Real jobs
// re-probe when message traffic fires their wake gates; this job has
// no traffic, so a background Wake pump stands in for it.
func TestStealRedistributes(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 4, Steal: true, StealAttempts: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	// Every thread runs at least 8 slices and then keeps going until
	// some slice has run off PE 0: the whole job is a few hundred
	// microseconds of wall time, which PE 0 can finish before the
	// other PEs' goroutines are first scheduled. The cap turns a
	// broken steal path into a failure below instead of a hang.
	const maxSlices = 1 << 16
	var done, onHome, offHome atomic.Int64
	for i := 0; i < n; i++ {
		th, err := m.PE(0).Sched.CthCreate(converse.ThreadOptions{
			Strategy: migrate.Isomalloc{},
		}, func(c *converse.Ctx) {
			for k := 0; k < 8 || (offHome.Load() == 0 && k < maxSlices); k++ {
				c.Work(50_000)
				if c.PE().Index == 0 {
					onHome.Add(1)
				} else {
					offHome.Add(1)
				}
				// Yield the OS thread too: modeled Work is wall-instant,
				// so without this PE 0 drains its whole queue before the
				// woken thieves ever get scheduled to probe it.
				runtime.Gosched()
				c.Yield()
			}
			done.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		m.PE(0).Sched.Start(th)
	}
	stop := make(chan struct{})
	var wakers sync.WaitGroup
	wakers.Add(1)
	go func() {
		defer wakers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.Wake()
				runtime.Gosched()
			}
		}
	}()
	m.RunParallel(func() bool { return done.Load() == n })
	close(stop)
	wakers.Wait()
	if done.Load() != n {
		t.Fatalf("only %d/%d threads finished", done.Load(), n)
	}
	st := m.StealStats()
	if st.Moved == 0 {
		t.Fatalf("no threads stolen from a 16-deep queue: %+v", st)
	}
	elsewhere := offHome.Load()
	if elsewhere == 0 {
		t.Errorf("all work slices ran on PE 0 despite %d steals", st.Moved)
	}
	t.Logf("steals: %+v, slices off PE0: %d/%d", st, elsewhere, elsewhere+onHome.Load())
}

// TestStealDisabledByDefault: without Config.Steal the idle handler
// must never rob a queue, keeping RunParallel placement-deterministic.
func TestStealDisabledByDefault(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Int64
	const n = 8
	for i := 0; i < n; i++ {
		th, err := m.PE(0).Sched.CthCreate(converse.ThreadOptions{
			Strategy: migrate.Isomalloc{},
		}, func(c *converse.Ctx) {
			c.Work(1000)
			c.Yield()
			done.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		m.PE(0).Sched.Start(th)
	}
	m.RunParallel(func() bool { return done.Load() == n })
	if st := m.StealStats(); st.Attempts != 0 || st.Moved != 0 {
		t.Fatalf("stealing disabled but stats = %+v", st)
	}
}

// TestWakeDuringTeardown hammers Machine.Wake from outside while
// RunParallel repeatedly starts and tears down: the gates slice is
// installed and nilled under the machine lock, so concurrent Wake
// calls must neither race nor panic — including after the final
// teardown when gates is nil.
func TestWakeDuringTeardown(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.Wake()
			}
		}
	}()
	for i := 0; i < 100; i++ {
		m.RunParallel(func() bool { return true })
	}
	close(stop)
	wg.Wait()
	m.Wake() // after teardown: gates nil, must be a no-op
}

// TestStealVacateRace races three migration initiators over the same
// thread population: the idle thieves inside RunParallel, bulk Vacate
// batches, and random MigrateMany batches from an outside goroutine.
// Threads that are Running, already Migrating, or owned by a different
// scheduler than the batch snapshot saw must be skipped (ErrNotEvictable),
// never corrupted — run under -race.
func TestStealVacateRace(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 4, Steal: true, StealAttempts: 4})
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
	m.RunParallel(func() bool { return done.Load() == n })
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
