//go:build go1.23

package converse

import "iter"

// coroutine is the package's one control-transfer primitive, the Go
// substitution for the paper's machine-stack swap. iter.Pull compiles
// to the runtime's coroswitch: the resuming goroutine hands the
// processor straight to the coroutine's and back — no run queue, no
// channel — and the resumer may be a different goroutine each time,
// which is how a thread parks on one PE and continues on another.
// (Only this file needs go1.23; the constraint raises its language
// version while go.mod stays at 1.22 for the bench module.)
type coroutine struct {
	next  func() (outcome, bool)
	yield func(outcome) bool
}

// start creates the coroutine; body begins on the first resume. One
// that never finishes stays parked forever, as unfinished threads
// always have.
func (c *coroutine) start(body func()) {
	c.next, _ = iter.Pull(func(yield func(outcome) bool) {
		c.yield = yield
		body()
	})
}

// resume runs the coroutine until it parks (returning the reason it
// gave) or its body returns (outExit); a panic in the body propagates
// to the caller.
func (c *coroutine) resume() outcome {
	if out, ok := c.next(); ok {
		return out
	}
	return outExit
}

// park switches back to whoever resumed the coroutine and returns on
// the next resume. Only the coroutine's own body may call it.
func (c *coroutine) park(out outcome) { c.yield(out) }
