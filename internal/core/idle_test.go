package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"migflow/internal/comm"
	"migflow/internal/converse"
	"migflow/internal/migrate"
)

// TestRunParallelQuiescentNoSpin: a machine in RunParallel with
// nothing to do must block in its wake gates, not poll. Each PE gets
// one fruitless poll when it first goes idle; across a 100 ms
// quiescent window no more may accumulate (the old implementation
// spun through Gosched and racked up millions).
func TestRunParallelQuiescentNoSpin(t *testing.T) {
	const pes = 4
	m, err := NewMachine(Config{NumPEs: pes})
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	go func() {
		time.Sleep(100 * time.Millisecond)
		done.Store(true)
		m.Wake()
	}()
	m.RunParallel(func(bool) bool { return done.Load() })
	if polls := m.IdlePolls(); polls > 2*pes {
		t.Errorf("quiescent machine made %d idle polls, want ≤ %d (block, don't spin)", polls, 2*pes)
	}
}

// TestRunParallelIdlePEDoesNotSpin: while one PE works through a long
// run of yields, a PE with no work must park on its gate rather than
// poll in step with its neighbour's context switches.
func TestRunParallelIdlePEDoesNotSpin(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	th, err := m.PE(0).Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
		for i := 0; i < 200; i++ {
			c.Yield()
		}
		done.Store(true)
	})
	if err != nil {
		t.Fatal(err)
	}
	m.PE(0).Sched.Start(th)
	m.RunParallel(func(bool) bool { return done.Load() })
	if polls := m.IdlePolls(); polls > 16 {
		t.Errorf("idle PE made %d polls during neighbour's 200 yields, want a handful", polls)
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
		m.RunParallel(func(bool) bool { return true })
	}
	close(stop)
	wg.Wait()
	m.Wake() // after teardown: gates nil, must be a no-op
}

// TestStealDisabledByDefault: an idle PE in RunParallel never takes
// work from a busy one. All the work is parked on PE 0 of a 4-PE
// machine; with no plan moving a thread, every slice must run there,
// keeping RunParallel placement-deterministic.
func TestStealDisabledByDefault(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var done, offHome atomic.Int64
	const n = 8
	for i := 0; i < n; i++ {
		th, err := m.PE(0).Sched.CthCreate(converse.ThreadOptions{
			Strategy: migrate.Isomalloc{},
		}, func(c *converse.Ctx) {
			for k := 0; k < 8; k++ {
				c.Work(1000)
				if c.PE().Index != 0 {
					offHome.Add(1)
				}
				c.Yield()
			}
			done.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		m.PE(0).Sched.Start(th)
	}
	m.RunParallel(func(bool) bool { return done.Load() == n })
	if got := offHome.Load(); got != 0 {
		t.Fatalf("%d slices ran off PE 0 with no plan moving a thread", got)
	}
}

// TestQuiescenceDetectorIsNotEarly: a run that ends at the detector's
// first quiet verdict has no work left anywhere. Tokens hop from PE to
// PE through message handlers, while threads that yield between steps
// are moved between PEs by MigrateMany from outside the machine — a
// thread in a batch sits in no ready queue. Every hop and every step
// must have happened when RunParallel returns.
func TestQuiescenceDetectorIsNotEarly(t *testing.T) {
	const pes, tokens, hops, threads, steps = 4, 8, 100, 1, 300
	for round := 0; round < 20; round++ {
		m, err := NewMachine(Config{NumPEs: pes})
		if err != nil {
			t.Fatal(err)
		}
		var left atomic.Int64
		left.Store(tokens*hops + threads*steps)
		for pe := 0; pe < pes; pe++ {
			if err := m.RegisterEntity(comm.EntityID(pe+1), pe, func(at int, msg *comm.Message) {
				left.Add(-1)
				if msg.Tag > 1 {
					_ = m.Network().Endpoint(at).Send(&comm.Message{To: comm.EntityID((at+1)%pes + 1), Tag: msg.Tag - 1})
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < tokens; k++ {
			if err := m.Network().Endpoint(0).Send(&comm.Message{To: comm.EntityID(k%pes + 1), Tag: hops}); err != nil {
				t.Fatal(err)
			}
		}
		var ths []*converse.Thread
		for k := 0; k < threads; k++ {
			th, err := m.PE(k%pes).Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
				for i := 0; i < steps; i++ {
					left.Add(-1)
					c.Yield()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			ths = append(ths, th)
			m.PE(k % pes).Sched.Start(th)
		}
		stop := make(chan struct{})
		moverDone := make(chan struct{})
		go func() {
			defer close(moverDone)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = m.MigrateMany([]Move{{T: ths[i%threads], Dest: i % pes}})
			}
		}()
		m.RunParallel(func(quiet bool) bool { return quiet })
		close(stop)
		<-moverDone
		if n := left.Load(); n != 0 {
			t.Fatalf("round %d: RunParallel ended quiet with %d hops and steps left", round, n)
		}
	}
}
