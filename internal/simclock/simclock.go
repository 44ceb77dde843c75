// Package simclock provides the virtual time base used to reproduce
// the paper's platform-dependent measurements (Figures 4-8, 11, 12).
//
// Two time bases coexist in this repository: real wall-clock time
// (testing.B) is used where the measured cost is real work performed
// by this implementation (e.g. the memcpy of stack-copying threads in
// Figure 9), and virtual time is used where the measured cost belongs
// to a 2006-era platform being emulated (e.g. a Solaris kernel thread
// context switch). Virtual time is accumulated in float64 nanoseconds
// so that sub-microsecond per-switch costs charged millions of times
// stay exact enough for ratio comparisons.
package simclock

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Clock is a monotonically advancing virtual clock. The zero value is
// a clock at time 0, ready to use. It is one atomic word holding the
// float64 bits of the time: a PE's clock is read and charged on every
// modeled event, and almost always by that PE alone, so a read is a
// load and a charge one compare-and-swap, with no lock. Writers on
// other goroutines (a migration raising its destination PE's clock)
// stay correct: every update is a CAS against the value it read.
type Clock struct {
	bits atomic.Uint64 // math.Float64bits of the time in nanoseconds
}

// New returns a clock at virtual time zero.
func New() *Clock { return &Clock{} }

// Advance moves the clock forward by ns nanoseconds. Negative
// advances panic: virtual time never flows backwards.
func (c *Clock) Advance(ns float64) {
	if ns < 0 {
		panic(fmt.Sprintf("simclock: negative advance %g", ns))
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+ns)) {
			return
		}
	}
}

// AdvanceTo moves the clock to at least ns (used when merging
// per-entity timelines: the PE clock jumps to the max of its own time
// and an incoming message's send time plus latency). Only ns > now
// moves it, so NaN, -0 and an equal time leave it as it is.
func (c *Clock) AdvanceTo(ns float64) {
	for {
		old := c.bits.Load()
		if !(ns > math.Float64frombits(old)) || c.bits.CompareAndSwap(old, math.Float64bits(ns)) {
			return
		}
	}
}

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() float64 { return math.Float64frombits(c.bits.Load()) }

// Stopwatch measures virtual-time intervals against a Clock.
type Stopwatch struct {
	c     *Clock
	start float64
}

// NewStopwatch starts a stopwatch at the clock's current time.
func NewStopwatch(c *Clock) *Stopwatch {
	return &Stopwatch{c: c, start: c.Now()}
}

// Elapsed returns nanoseconds of virtual time since the stopwatch
// started (or was last Restarted).
func (s *Stopwatch) Elapsed() float64 { return s.c.Now() - s.start }
