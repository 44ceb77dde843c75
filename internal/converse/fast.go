package converse

import "sync"

// FastThread is the plain, non-migratable Cth thread used as the
// user-level-thread baseline in Figures 4-8 ("we used the
// non-migratable version of these threads"): no simulated stack, no
// isomalloc heap, no GOT swap — just a suspendable flow of control
// with a user-level scheduler. Its real (wall-clock) switch cost is
// the floor the migratable strategies are compared against in the
// ablation benchmarks.
type FastThread struct {
	co coroutine
}

// FastScheduler round-robins FastThreads. The zero value is unusable;
// call NewFastScheduler.
type FastScheduler struct {
	mu    sync.Mutex
	ready []*FastThread
}

// NewFastScheduler returns an empty scheduler.
func NewFastScheduler() *FastScheduler { return &FastScheduler{} }

// Create makes a fast thread; Start it to make it runnable.
func (s *FastScheduler) Create(body func(*FastCtx)) *FastThread {
	t := &FastThread{}
	t.co.start(func() { body(&FastCtx{t: t}) })
	return t
}

// Start enqueues the thread.
func (s *FastScheduler) Start(t *FastThread) {
	s.mu.Lock()
	s.ready = append(s.ready, t)
	s.mu.Unlock()
}

// RunUntilIdle runs threads until none are runnable.
func (s *FastScheduler) RunUntilIdle() {
	for {
		s.mu.Lock()
		if len(s.ready) == 0 {
			s.mu.Unlock()
			return
		}
		t := s.ready[0]
		s.ready = s.ready[1:]
		s.mu.Unlock()

		if t.co.resume() == outYield {
			s.mu.Lock()
			s.ready = append(s.ready, t)
			s.mu.Unlock()
		}
	}
}

// FastCtx is the API surface of a FastThread body.
type FastCtx struct{ t *FastThread }

// Yield hands the processor to the next ready thread.
func (c *FastCtx) Yield() { c.t.co.park(outYield) }
