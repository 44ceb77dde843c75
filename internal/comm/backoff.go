// The one busy-wait backoff ladder. Every poll loop that can face a
// co-located process on the far side of a fabric — a reader on an
// empty shm ring, a writer on a full one, the shard migration driver
// scanning for a migratable rank — waits its unproductive polls out
// on the same three rungs, differing only in how long the first two
// last:
//
//	rung 1  runtime.Gosched — cheap (~150ns); catches work already in
//	        flight from another goroutine of this process.
//	rung 2  osYield — when the spinner is the only runnable goroutine,
//	        Gosched returns instantly and the spin would burn its
//	        whole OS quantum, starving the peer process that is
//	        producing the very thing it waits for (and the netpoller:
//	        on one core a bare Gosched spin degrades each wait to
//	        sysmon's 10 ms forced preemption). sched_yield (~340ns,
//	        not a futex) hands the core over at one scheduling round
//	        of latency.
//	rung 3  one-millisecond timer naps. Linux timer granularity makes
//	        any sub-millisecond request sleep ~1ms regardless, so the
//	        nap is an honest millisecond, entered only after the
//	        yield rung has covered about that long; an idle poller
//	        then costs ~0.1% of a core.
package comm

import (
	"runtime"
	"syscall"
	"time"
)

// backoffNap is the rung-3 sleep.
const backoffNap = time.Millisecond

// osYield surrenders the rest of this thread's kernel timeslice via
// sched_yield, then rotates the local run queue too. runtime.Gosched
// alone only rotates goroutines within this process; the OS yield
// alone would conversely starve same-process goroutines (the
// in-process harnesses run both workers in one runtime). Both
// together cost ~500ns and give everyone else a turn.
func osYield() {
	syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	runtime.Gosched()
}

// Backoff walks the ladder for one poll loop: Wait after every
// unproductive poll, Reset after a productive one. Not safe for
// concurrent use — each loop owns its own.
type Backoff struct {
	spins, yields int // lengths of rungs 1 and 2, in polls
	idle          int // unproductive polls since the last Reset
}

// NewBackoff returns a ladder whose Gosched rung lasts spins polls
// and whose OS-yield rung lasts yields polls.
func NewBackoff(spins, yields int) Backoff {
	return Backoff{spins: spins, yields: yields}
}

// Wait waits out one unproductive poll on the current rung. It
// reports true when this wait is the streak's first nap — the
// spinning→parked transition.
func (b *Backoff) Wait() (parked bool) {
	b.idle++
	switch {
	case b.idle <= b.spins:
		runtime.Gosched()
	case b.idle <= b.spins+b.yields:
		osYield()
	default:
		parked = b.idle == b.spins+b.yields+1
		time.Sleep(backoffNap)
	}
	return parked
}

// Reset ends the unproductive streak. It reports true when the streak
// had reached the nap rung — the poller is waking from a park.
func (b *Backoff) Reset() (woke bool) {
	woke = b.idle > b.spins+b.yields
	b.idle = 0
	return woke
}
