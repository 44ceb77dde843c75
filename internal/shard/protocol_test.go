package shard

// An explicit-state explorer for the termination protocol. A world is
// every worker's protocol value, an abstract job per worker (its
// unfinished ranks, and the records it has extracted but not yet
// shipped) and the control frames in flight on each ordered worker
// pair's FIFO link. From each world every enabled event is taken in
// turn — a rank finishes, a worker begins an extract or ships one, a
// worker sees its job done, the head frame of a link arrives — breadth
// first, with every world visited once. One worker may fail on its
// own: it dies holding a live rank, or its job refuses a RECORD. A
// worker whose run failed, that one or a survivor the failure reached,
// closes without BYE, as Worker.Close does, so its peers see a
// hang-up. Invariants are checked at every world, and a violation
// prints the shortest event trace reaching it.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// wire is one entry of a link: a control frame, or the hang-up of a
// dead or failed worker, after every frame it sent.
type wire struct {
	kind    uint32
	payload []byte
	hangup  bool
}

type world struct {
	n       int
	p       []protocol
	local   []int   // unfinished ranks in each worker's job
	held    [][]int // per worker: destinations of records extracted, not shipped
	links   [][]wire
	left    int  // extracts the run may still begin
	mayFail bool // one worker may fail on its own
	failed  int  // the worker that did, -1 if none
	closed  int  // bit i: worker i has hung up without BYE
}

func newWorld(n, extracts int, mayFail bool) *world {
	w := &world{n: n, local: make([]int, n), held: make([][]int, n), links: make([][]wire, n*n), left: extracts, mayFail: mayFail, failed: -1}
	for i := 0; i < n; i++ {
		w.p = append(w.p, newProtocol(i, n))
		w.local[i] = 1
	}
	return w
}

func (w *world) clone() *world {
	c := *w
	c.p = append([]protocol(nil), w.p...)
	for i := range c.p {
		c.p[i].peers = append([]report(nil), w.p[i].peers...)
	}
	c.local = append([]int(nil), w.local...)
	c.held = make([][]int, w.n)
	for i := range w.held {
		c.held[i] = append([]int(nil), w.held[i]...)
	}
	c.links = make([][]wire, len(w.links))
	for i := range w.links {
		c.links[i] = append([]wire(nil), w.links[i]...)
	}
	return &c
}

// key encodes a world for the visited set. Every count it holds is
// below 256 on the configurations explored.
func (w *world) key() string {
	b := []byte{byte(w.left), byte(w.failed + 1), byte(w.closed)}
	rep := func(r report) { b = append(b, bool2byte(r.done), byte(r.installs), byte(r.acked)) }
	for i, p := range w.p {
		b = append(b, byte(p.installs), byte(p.acked), byte(p.outstanding), bool2byte(p.stopped), bool2byte(p.err != nil), byte(w.local[i]))
		rep(p.last)
		for _, r := range p.peers {
			rep(r)
		}
		b = append(b, byte(len(w.held[i])))
		for _, to := range w.held[i] {
			b = append(b, byte(to))
		}
	}
	for _, l := range w.links {
		b = append(b, byte(len(l)))
		for _, f := range l {
			b = append(b, byte(f.kind), bool2byte(f.hangup), byte(len(f.payload)))
			b = append(b, f.payload...)
		}
	}
	return string(b)
}

func bool2byte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// send queues frames from worker from; a closed worker's are lost.
func (w *world) send(from int, frames []ctrlFrame) {
	for _, f := range frames {
		if !w.isClosed(f.to) {
			w.links[from*w.n+f.to] = append(w.links[from*w.n+f.to], wire{kind: f.kind, payload: f.payload})
		}
	}
}

func (w *world) isClosed(i int) bool { return w.closed&(1<<i) != 0 }

// live reports whether worker i takes events: not closed, run not
// ended.
func (w *world) live(i int) bool { return !w.isClosed(i) && !w.p[i].ended() }

// hangUp closes worker i without BYE: what it was sent is lost, and
// every open peer's link from it ends in a hang-up.
func (w *world) hangUp(i int) {
	w.closed |= 1 << i
	for k := 0; k < w.n; k++ {
		w.links[k*w.n+i] = nil
		if !w.isClosed(k) {
			w.links[i*w.n+k] = append(w.links[i*w.n+k], wire{hangup: true})
		}
	}
}

// deliver pops the head of the link from→to and hands it to worker to
// as its adapter would.
func (w *world) deliver(from, to int) {
	l := w.links[from*w.n+to]
	f := l[0]
	w.links[from*w.n+to] = l[1:]
	p := &w.p[to]
	switch {
	case p.ended():
		// closed: the frame is dropped
	case f.hangup:
		p.linkFault(from, errors.New("peer hung up without BYE"))
	default:
		if f.kind == ctrlRecord {
			w.local[to]++ // the job installs it first
		}
		frames, _ := p.arrived(from, f.kind, f.payload)
		w.send(to, frames)
	}
}

// event is one step out of a world.
type event struct {
	label string
	apply func(*world)
}

func (w *world) events() []event {
	var evs []event
	for i := 0; i < w.n; i++ {
		if !w.live(i) {
			continue
		}
		i := i
		if w.local[i] > 0 {
			evs = append(evs, event{fmt.Sprintf("w%d: a rank finishes", i), func(w *world) { w.local[i]-- }})
			for to := 0; to < w.n && w.left > 0; to++ {
				if to == i {
					continue
				}
				to := to
				evs = append(evs, event{fmt.Sprintf("w%d: extract for w%d", i, to), func(w *world) {
					w.left--
					w.p[i].extractBegun()
					w.local[i]--
					w.held[i] = append(w.held[i], to)
				}})
			}
		}
		for k, to := range w.held[i] {
			k, to := k, to
			evs = append(evs, event{fmt.Sprintf("w%d: ship to w%d", i, to), func(w *world) {
				w.held[i] = append(w.held[i][:k], w.held[i][k+1:]...)
				notices, record := w.p[i].extractShipped(to, 0, 0, nil)
				w.send(i, append(notices, record...))
			}})
		}
		if w.local[i] == 0 {
			evs = append(evs, event{fmt.Sprintf("w%d: job done", i), func(w *world) { w.send(i, w.p[i].localDone()) }})
		}
		for from := 0; from < w.n; from++ {
			if l := w.links[from*w.n+i]; len(l) > 0 {
				from := from
				evs = append(evs, event{fmt.Sprintf("w%d: %s from w%d", i, wireName(l[0]), from), func(w *world) { w.deliver(from, i) }})
				if w.mayFail && w.failed < 0 && !l[0].hangup && l[0].kind == ctrlRecord {
					// The job refuses the record, as Worker.control
					// fails the run on a ShardInstall error.
					evs = append(evs, event{fmt.Sprintf("w%d: refuses RECORD from w%d", i, from), func(w *world) {
						w.links[from*w.n+i] = w.links[from*w.n+i][1:]
						w.p[i].fail(errProtocol, "record refused")
						w.failed = i
					}})
				}
			}
		}
		if w.mayFail && w.failed < 0 && (w.local[i] > 0 || len(w.held[i]) > 0) {
			evs = append(evs, event{fmt.Sprintf("w%d dies", i), func(w *world) { w.failed = i; w.hangUp(i) }})
		}
	}
	for i := 0; i < w.n; i++ {
		if !w.isClosed(i) && w.p[i].err != nil {
			i := i
			evs = append(evs, event{fmt.Sprintf("w%d: closes without BYE", i), func(w *world) { w.hangUp(i) }})
		}
	}
	// Frames left to a worker that ended are dropped at its close.
	for i := 0; i < w.n; i++ {
		for from := 0; from < w.n && !w.isClosed(i) && w.p[i].ended(); from++ {
			if len(w.links[from*w.n+i]) > 0 {
				from, i := from, i
				evs = append(evs, event{fmt.Sprintf("w%d: drops a frame from w%d", i, from), func(w *world) { w.deliver(from, i) }})
			}
		}
	}
	return evs
}

func wireName(f wire) string {
	if f.hangup {
		return "hang-up"
	}
	return map[uint32]string{ctrlDoneReport: "DONE", ctrlRecord: "RECORD", ctrlMoved: "MOVED", ctrlAck: "ACK", ctrlStop: "STOP"}[f.kind]
}

// check returns the invariant a world breaks, or "". terminal says no
// event can move it.
func (w *world) check(terminal bool) string {
	if c := &w.p[0]; c.stopped {
		var installs, acked uint64
		for i, r := range c.peers {
			if !r.done {
				return fmt.Sprintf("STOP without a DONE report from w%d", i)
			}
			installs += r.installs
			acked += r.acked
		}
		if installs != acked {
			return fmt.Sprintf("STOP with %d installs reported against %d acked extracts", installs, acked)
		}
		for i := 0; i < w.n; i++ {
			if w.local[i] > 0 || len(w.held[i]) > 0 {
				return fmt.Sprintf("STOP while w%d holds a live rank", i)
			}
			for from := 0; from < w.n; from++ {
				for _, f := range w.links[from*w.n+i] {
					if !f.hangup && f.kind == ctrlRecord {
						return fmt.Sprintf("STOP with a RECORD in flight w%d→w%d", from, i)
					}
				}
			}
		}
	}
	for i := 0; i < w.n; i++ {
		p := &w.p[i]
		switch {
		case i == w.failed:
		case w.failed >= 0 && p.stopped:
			return fmt.Sprintf("w%d stopped after w%d failed", i, w.failed)
		case w.failed < 0 && p.err != nil:
			return fmt.Sprintf("w%d failed with no failure: %v", i, p.err)
		case p.err != nil && !w.namesClosed(p.err):
			return fmt.Sprintf("w%d failed with %v, which names no worker that hung up", i, p.err)
		case terminal && !p.ended():
			return fmt.Sprintf("w%d hangs: no event left and its run has not ended", i)
		}
	}
	return ""
}

// namesClosed reports whether err is errPeerLost naming a worker that
// hung up without BYE.
func (w *world) namesClosed(err error) bool {
	for k := 0; k < w.n && errors.Is(err, errPeerLost); k++ {
		if w.isClosed(k) && strings.Contains(err.Error(), fmt.Sprintf("link to worker %d", k)) {
			return true
		}
	}
	return false
}

// explore searches every world reachable from start and returns the
// number visited, or the shortest trace to a broken invariant.
func explore(start *world) (int, []string, string) {
	type node struct {
		w      *world
		parent int
		label  string
	}
	nodes := []node{{w: start, parent: -1}}
	trace := func(i int) []string {
		var labels []string
		for ; i > 0; i = nodes[i].parent {
			labels = append([]string{nodes[i].label}, labels...)
		}
		return labels
	}
	seen := map[string]bool{start.key(): true}
	for at := 0; at < len(nodes); at++ {
		w := nodes[at].w
		here := w.key()
		moved := false
		for _, ev := range w.events() {
			next := w.clone()
			ev.apply(next)
			k := next.key()
			if k == here {
				continue
			}
			moved = true
			if seen[k] {
				continue
			}
			seen[k] = true
			nodes = append(nodes, node{w: next, parent: at, label: ev.label})
			if bad := next.check(false); bad != "" {
				return len(seen), trace(len(nodes) - 1), bad
			}
		}
		if bad := w.check(!moved); bad != "" {
			return len(seen), trace(at), bad
		}
		nodes[at].w = nil // only the trace is needed from here on
	}
	return len(seen), nil, ""
}

// TestProtocolExplored runs the explorer over 2 and 3 workers, each
// starting with one rank, up to 2 extracts, with and without one
// worker failing mid-run. Every invariant must hold in every reachable
// world:
//   - STOP only when every worker reported done and the reported
//     installs equal the reported acked extracts;
//   - at STOP no rank is alive: none running, none extracted and
//     unshipped, no RECORD in flight;
//   - with no failure, every worker ends at STOP, with no error;
//   - when a worker dies holding a rank or refuses a record, every
//     other worker ends with errPeerLost naming a worker that hung up,
//     never with a hang or a STOP.
func TestProtocolExplored(t *testing.T) {
	for _, n := range []int{2, 3} {
		for _, failure := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/failure=%v", n, failure), func(t *testing.T) {
				visited, trace, bad := explore(newWorld(n, 2, failure))
				if bad != "" {
					t.Fatalf("%s after %d events:\n  %s", bad, len(trace), strings.Join(trace, "\n  "))
				}
				t.Logf("%d worlds", visited)
			})
		}
	}
}
