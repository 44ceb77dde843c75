package core

// An explicit-state explorer for the quiescence detector and the
// adapter around it. A world is the detector, each local PE's place in
// RunParallel's loop with its inbox, ready queue and suspended threads,
// and two goroutines outside it: a MigrateMany caller and a caller of
// Wake. From each world every enabled event is taken in turn — a PE
// runs a thread, arms, pumps a message, parks, reads one PE for its
// scan, hands the reading to scan, ends the run, leaves its park; a
// hook fires; the batch begins, takes a flow, installs it, ends —
// breadth first, with every world visited once. A PE's steps are the
// adapter's code (RunParallel's idle handler, Machine.wake,
// MigrateMany): every detector call is one step, as it is one critical
// section of Machine.detMu, and the steps between them are as fine as
// the races they can lose. Checking the inbox and the ready queue and
// then parking is one step, because the PE armed before it checked:
// whatever lands on it after that disarms its gate, so the order of
// those checks against a delivery changes nothing.
//
// Safety is checked at every scan, and liveness once the search is
// done: every world in which no work is left — no message in an inbox,
// no ready thread and no batch in flight — must reach the run's end by
// the machine's own steps alone, with no outside batch or Wake. A
// violation prints the shortest event trace reaching it.
//
// Messages come from the machine's own threads and handlers. A message
// sent from outside the machine races the verdict by its nature, as
// one sent just after it would: outside input reaches a running
// machine through MigrateMany, or through an end callback flipped from
// outside and a Wake.

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// dpc is where a PE's goroutine is in RunParallel.
type dpc uint8

const (
	atRun   dpc = iota // Scheduler.Run's loop: run a ready thread, or go idle and arm
	atCheck            // armed: pump a message, or find the queues empty and park
	atPump             // pumped a message: pump the next, or go back to the loop
	atRead             // parked last: read PE k's inbox and ready queue
	atScan             // read every PE: hand the reading to scan
	atEnd              // scan said quiet: end answers true, so end the run
	atEnded            // ended the run: wake the other PEs
	atWait             // parked on the channel arm gave it
	atHook             // delivered a message to PE k: its wake hook is next
	atDone             // idle returned false
)

// dpe is one PE: its goroutine and its queues.
type dpe struct {
	at                     dpc
	back                   dpc  // atHook: where the PE goes after the hook
	k                      int8 // atRead: the PE to read next; atHook: the PE to wake
	idle                   bool // atRead, atScan: the reading so far is idle
	ticket                 uint64
	closed                 bool // the channel arm gave the PE is closed
	ready, sleeping, inbox int8
}

// Stages of the MigrateMany caller.
const (
	mvIdle      = iota
	mvBegun     // batchBegin done: takes a flow
	mvHolding   // holds the flow: installs it
	mvHook      // installed a ready thread on PE mvTo: enqueue's wake hook is next
	mvInstalled // batchEnd is next
	mvEnded     // MigrateMany's Wake is next
)

type dworld struct {
	d       detector
	p       []dpe
	sends   int8 // messages threads and handlers may still send
	batches int8 // batches the outside may still begin
	wakes   int8 // Wakes the outside may still call
	mv      int8 // the MigrateMany caller's stage
	mvTo    int8
	carry   bool // the batch holds a ready thread
	bad     string
}

// newDWorld starts n PEs at the top of the loop with one ready thread
// on PE 0 and one suspended thread on PE 1, which a message wakes; two
// messages may be sent, one batch begun and one Wake called.
func newDWorld(n int) *dworld {
	w := &dworld{d: detector{armed: make([]bool, n), parked: make([]bool, n)}, p: make([]dpe, n), sends: 2, batches: 1, wakes: 1}
	w.p[0].ready = 1
	w.p[1].sleeping = 1
	return w
}

func (w *dworld) clone() *dworld {
	c := *w
	c.d.armed = append([]bool(nil), w.d.armed...)
	c.d.parked = append([]bool(nil), w.d.parked...)
	c.p = append([]dpe(nil), w.p...)
	return &c
}

// key encodes a world for the visited set. A field goes in only where
// it can still be read: a scan's reading and ticket while the PE scans,
// a hook's target while it is pending, the channel while the PE waits
// on it. A ticket matters only by whether it still equals the wake
// count, which only grows.
func (w *dworld) key() string {
	b := make([]byte, 0, 8+8*len(w.p))
	b = append(b, byte(w.d.nparked), byte(w.d.batches), b2(w.d.ended), byte(w.sends), byte(w.batches), byte(w.wakes),
		byte(w.mv), b2(w.bad != ""))
	switch w.mv {
	case mvHolding:
		b = append(b, b2(w.carry))
	case mvHook:
		b = append(b, byte(w.mvTo))
	}
	for i, p := range w.p {
		b = append(b, byte(p.at), byte(p.ready), byte(p.sleeping), byte(p.inbox), b2(w.d.armed[i]), b2(w.d.parked[i]))
		switch p.at {
		case atRead, atScan:
			b = append(b, byte(p.k), b2(p.idle), b2(p.ticket == w.d.wakes))
		case atHook:
			b = append(b, byte(p.k), byte(p.back))
		case atWait:
			b = append(b, b2(p.closed))
		}
	}
	return string(b)
}

func b2(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// wake is Machine.wake of PE k: the detector's verdict, and the
// channel closed when the gate was armed. It is the channel PE k
// holds, since k armed (taking the then-current one) and no wake
// released it since.
func (w *dworld) wake(k int) {
	if w.d.wake(k) {
		w.p[k].closed = true
	}
}

// wakeAll is Machine.Wake: one critical section over every PE.
func (w *dworld) wakeAll() {
	for k := range w.p {
		w.wake(k)
	}
}

// noWork reports whether no message, ready thread or batch is left.
func (w *dworld) noWork() bool {
	for _, p := range w.p {
		if p.inbox > 0 || p.ready > 0 {
			return false
		}
	}
	return w.mv == mvIdle || w.mv == mvEnded
}

// devent is one step out of a world; outside marks a step only the
// outside world starts, which liveness may not count on.
type devent struct {
	label   string
	outside bool
	apply   func(*dworld)
}

func (w *dworld) events() []devent {
	var evs []devent
	add := func(outside bool, apply func(*dworld), format string, a ...any) {
		evs = append(evs, devent{fmt.Sprintf(format, a...), outside, apply})
	}
	n := len(w.p)
	for i := range w.p {
		i, p := i, w.p[i]
		switch p.at {
		case atRun:
			if p.ready == 0 {
				add(false, func(w *dworld) {
					if !w.d.arm(i) {
						w.p[i].at = atDone
						return
					}
					w.p[i].closed, w.p[i].at = false, atCheck
				}, "p%d: arms", i)
				break
			}
			add(false, func(w *dworld) { w.p[i].ready-- }, "p%d: a thread finishes", i)
			add(false, func(w *dworld) { w.p[i].ready--; w.p[i].sleeping++ }, "p%d: a thread suspends", i)
			for j := 0; j < n && w.sends > 0; j++ {
				j := j
				add(false, func(w *dworld) {
					w.p[i].ready--
					w.send(i, j, atRun)
				}, "p%d: a thread sends to p%d and finishes", i, j)
			}
		case atCheck, atPump:
			if p.inbox > 0 {
				add(false, func(w *dworld) { w.p[i].inbox--; w.p[i].at = atPump }, "p%d: pumps a message", i)
				if p.sleeping > 0 && p.ready == 0 {
					add(false, func(w *dworld) {
						q := &w.p[i]
						q.inbox--
						q.sleeping--
						q.ready++
						q.at = atPump
						w.wake(i)
					}, "p%d: pumps a message that wakes a thread", i)
				}
				for j := 0; j < n && w.sends > 0; j++ {
					j := j
					add(false, func(w *dworld) {
						w.p[i].inbox--
						w.send(i, j, atPump)
					}, "p%d: pumps a message that sends to p%d", i, j)
				}
				break
			}
			if p.at == atPump || p.ready > 0 {
				add(false, func(w *dworld) { w.p[i].at = atRun }, "p%d: found work", i)
				break
			}
			add(false, func(w *dworld) {
				last, ticket := w.d.park(i)
				q := &w.p[i]
				q.at = atWait
				if last {
					q.at, q.k, q.idle, q.ticket = atRead, 0, true, ticket
				}
			}, "p%d: parks", i)
		case atRead:
			k := int(p.k)
			add(false, func(w *dworld) {
				q := &w.p[i]
				q.idle = q.idle && w.p[k].inbox == 0 && w.p[k].ready == 0
				if q.k++; int(q.k) == n {
					q.at = atScan
				}
			}, "p%d: reads p%d", i, k)
		case atScan:
			add(false, func(w *dworld) {
				q := &w.p[i]
				if !w.d.scan(q.ticket, q.idle) {
					q.at = atWait
					return
				}
				if !w.noWork() {
					w.bad = fmt.Sprintf("p%d's scan says quiet with work left: %s", i, w.work())
				}
				q.at = atEnd
			}, "p%d: scans", i)
		case atEnd:
			add(false, func(w *dworld) { w.d.end(); w.p[i].at = atEnded }, "p%d: ends the run", i)
		case atEnded:
			add(false, func(w *dworld) { w.wakeAll(); w.p[i].at = atDone }, "p%d: wakes the machine", i)
		case atWait:
			if p.closed {
				add(false, func(w *dworld) { w.p[i].at = atRun }, "p%d: leaves its park", i)
			}
		case atHook:
			k := int(p.k)
			add(false, func(w *dworld) { w.wake(k); w.p[i].at = w.p[i].back }, "p%d: wakes p%d", i, k)
		}
	}
	switch w.mv {
	case mvBegun:
		add(false, func(w *dworld) { w.mv = mvHolding }, "batch takes a suspended flow")
		for s := range w.p {
			if w.p[s].ready > 0 {
				s := s
				add(false, func(w *dworld) { w.p[s].ready--; w.carry = true; w.mv = mvHolding }, "batch takes p%d's ready thread", s)
			}
		}
	case mvHolding:
		if !w.carry {
			add(false, func(w *dworld) { w.mv = mvInstalled }, "batch installs the suspended flow")
		}
		for t := range w.p {
			if w.carry && w.p[t].ready == 0 {
				t := t
				add(false, func(w *dworld) {
					w.p[t].ready++
					w.carry, w.mvTo, w.mv = false, int8(t), mvHook
				}, "batch installs the thread on p%d", t)
			}
		}
	case mvHook:
		add(false, func(w *dworld) { w.wake(int(w.mvTo)); w.mv = mvInstalled }, "batch's install wakes p%d", w.mvTo)
	case mvInstalled:
		add(false, func(w *dworld) { w.d.batchEnd(); w.mv = mvEnded }, "batch ends")
	case mvEnded:
		add(false, func(w *dworld) { w.wakeAll(); w.mv = mvIdle }, "MigrateMany wakes the machine")
	}
	if w.d.ended {
		return evs // the run is over; the outside starts nothing more in it
	}
	if w.mv == mvIdle && w.batches > 0 {
		add(true, func(w *dworld) { w.batches--; w.d.batchBegin(); w.mv = mvBegun }, "MigrateMany begins a batch")
	}
	if w.wakes > 0 {
		add(true, func(w *dworld) { w.wakes--; w.wakeAll() }, "outside Wake")
	}
	return evs
}

// send is PE i delivering a message to PE j: the message is in j's
// inbox, and i's next step is j's wake hook.
func (w *dworld) send(i, j int, back dpc) {
	w.sends--
	w.p[j].inbox++
	q := &w.p[i]
	q.at, q.k, q.back = atHook, int8(j), back
}

// work describes the work a world holds.
func (w *dworld) work() string {
	var parts []string
	for i, p := range w.p {
		if p.inbox > 0 {
			parts = append(parts, fmt.Sprintf("%d messages for p%d", p.inbox, i))
		}
		if p.ready > 0 {
			parts = append(parts, fmt.Sprintf("%d ready threads on p%d", p.ready, i))
		}
	}
	if !(w.mv == mvIdle || w.mv == mvEnded) {
		parts = append(parts, "a batch in flight")
	}
	return strings.Join(parts, ", ")
}

// check returns the invariant a world breaks, or "".
func (w *dworld) check() string {
	if w.bad != "" {
		return w.bad
	}
	n := 0
	for i, parked := range w.d.parked {
		if parked {
			n++
			if !w.d.armed[i] {
				return fmt.Sprintf("p%d is parked but not armed", i)
			}
		}
	}
	if n != w.d.nparked {
		return fmt.Sprintf("%d PEs parked, the detector counts %d", n, w.d.nparked)
	}
	return ""
}

// exploreDetector searches every world reachable from start. It
// returns the number visited, or the shortest trace to a world that
// breaks safety or liveness, with the broken property.
func exploreDetector(start *dworld) (int, []string, string) {
	type node struct {
		w      *dworld
		parent int32
		label  string
		noWork bool // no work is left, and the run has not ended
		ended  bool
		stuck  bool // no event is left, and a PE has not left the loop
	}
	nodes := []node{{w: start, parent: -1}}
	trace := func(i int) []string {
		var labels []string
		for ; i > 0; i = int(nodes[i].parent) {
			labels = append([]string{nodes[i].label}, labels...)
		}
		return labels
	}
	seen := map[string]int32{start.key(): 0}
	var from, to []int32 // the machine's own steps, for liveness
	for at := 0; at < len(nodes); at++ {
		w := nodes[at].w
		evs := w.events()
		nodes[at].noWork, nodes[at].ended = w.noWork() && !w.d.ended, w.d.ended
		for _, p := range w.p {
			nodes[at].stuck = nodes[at].stuck || len(evs) == 0 && p.at != atDone
		}
		for _, ev := range evs {
			next := w.clone()
			ev.apply(next)
			k := next.key()
			id, ok := seen[k]
			if !ok {
				id = int32(len(nodes))
				seen[k] = id
				nodes = append(nodes, node{w: next, parent: int32(at), label: ev.label})
				if bad := next.check(); bad != "" {
					return len(seen), trace(int(id)), bad
				}
			}
			if !ev.outside {
				from, to = append(from, int32(at)), append(to, id)
			}
		}
		nodes[at].w = nil // only the trace is needed from here on
	}
	// Liveness: walk the machine's own steps backwards from every world
	// in which the run has ended.
	into := make([][]int32, len(nodes))
	for e := range from {
		into[to[e]] = append(into[to[e]], from[e])
	}
	ends := make([]bool, len(nodes))
	var queue []int32
	for i, nd := range nodes {
		if nd.ended {
			ends[i] = true
			queue = append(queue, int32(i))
		}
	}
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, j := range into[i] {
			if !ends[j] {
				ends[j] = true
				queue = append(queue, j)
			}
		}
	}
	for i, nd := range nodes {
		switch {
		case nd.stuck:
			return len(seen), trace(i), "no event is left, and a PE has not left RunParallel's loop"
		case nd.noWork && !ends[i]:
			return len(seen), trace(i), "no work is left, and no step of the machine's own ends the run (a lost wake)"
		}
	}
	return len(seen), nil, ""
}

// TestDetectorExplored runs the explorer over 2 and 3 PEs, each world
// starting with one ready thread on PE 0 and one suspended thread on
// PE 1: up to 2 messages sent by threads, handlers or the outside, one
// MigrateMany batch that moves a ready thread or a suspended flow, and
// one outside Wake. Every reachable world must keep these:
//   - scan never says quiet while a message, a ready thread or a batch
//     exists;
//   - from every world where no work is left, the machine's own steps
//     can end the run, so no wake is lost;
//   - the detector counts exactly the PEs it marks parked, and a parked
//     PE is armed;
//   - no world is stuck before every PE has left the loop.
func TestDetectorExplored(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("pes=%d", n), func(t *testing.T) {
			began := time.Now()
			visited, trace, bad := exploreDetector(newDWorld(n))
			if bad != "" {
				t.Fatalf("%s after %d events:\n  %s", bad, len(trace), strings.Join(trace, "\n  "))
			}
			t.Logf("%d worlds in %v", visited, time.Since(began))
		})
	}
}
