package shard

// An explicit-state explorer for the termination protocol and the
// links under it. A world is every worker's protocol value, an
// abstract job per worker — which ranks live there, finished or not,
// which it has extracted but not yet shipped, and where its directory
// places every rank — and the frames in flight on each ordered worker
// pair's FIFO link. From each world every enabled event is taken in
// turn — a rank finishes, sends a data frame to a rank on another
// worker, or is extracted for another worker; a worker ships an
// extract, sees its job done, or closes; the head frame of a link
// arrives — breadth first, with every world visited once. A data
// frame goes where the sender's directory places its rank; a worker
// whose directory places the rank elsewhere forwards it there, and one
// that places it here hands it to the rank's slot. A rank finishes
// only once every data frame sent to it has arrived, as a program's
// rank waits in its receive. One worker may fail on its own: it dies
// holding a live rank, or its job refuses a RECORD. A worker whose run
// failed, that one or a survivor the failure reached, closes without
// BYE, as Worker.Close does, so its peers see a hang-up; a worker that
// stopped closes with BYE, and a peer that has read BYE takes the
// hang-up after it as the link's orderly end. Invariants are checked
// at every world, and a violation prints the shortest event trace
// reaching it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// wire is one entry of a link: a control frame, a data frame for rank,
// BYE, or the hang-up that ends the link once its sender closed.
type wire struct {
	kind    uint32
	payload []byte
	data    bool // a data frame for rank
	rank    int8 // a data frame's or a RECORD's rank
	bye     bool
	hangup  bool
}

// move is an extract held by its source until shipped.
type move struct{ rank, to int8 }

type world struct {
	n       int
	p       []protocol
	home    []int8   // per rank: the worker its slot lives on, -1 while it moves
	fin     int      // bit r: rank r finished
	pending []int8   // per rank: data frames sent to it and not yet in its slot
	dir     [][]int8 // dir[w][r]: where worker w's directory places rank r
	held    [][]move // per worker: records extracted, not shipped
	links   [][]wire
	left    int    // extracts the run may still begin
	sends   int    // data frames the run may still send
	mayFail bool   // one worker may fail on its own
	failed  int    // the worker that did, -1 if none
	closed  int    // bit i: worker i has hung up
	byes    int    // bit from*n+to: worker to has read BYE from worker from
	bad     string // an invariant a delivery broke
}

// newWorld starts n workers with one rank each, rank r on worker r.
func newWorld(n, extracts, sends int, mayFail bool) *world {
	w := &world{n: n, home: make([]int8, n), pending: make([]int8, n), dir: make([][]int8, n), held: make([][]move, n),
		links: make([][]wire, n*n), left: extracts, sends: sends, mayFail: mayFail, failed: -1}
	for i := 0; i < n; i++ {
		w.p = append(w.p, newProtocol(i, n))
		w.home[i] = int8(i)
		w.dir[i] = make([]int8, n)
		for r := range w.dir[i] {
			w.dir[i][r] = int8(r)
		}
	}
	return w
}

// clone copies w for one event. Links are shared with their capacity
// clipped: an event only pops a link's head or appends to it, and an
// append to a clipped slice copies it first.
func (w *world) clone() *world {
	c := *w
	c.p = append([]protocol(nil), w.p...)
	c.p[0].peers = append([]report(nil), w.p[0].peers...)
	c.home = append([]int8(nil), w.home...)
	c.pending = append([]int8(nil), w.pending...)
	c.dir = make([][]int8, w.n)
	dir := make([]int8, w.n*w.n)
	c.held = make([][]move, w.n)
	for i := 0; i < w.n; i++ {
		c.dir[i] = dir[i*w.n : (i+1)*w.n : (i+1)*w.n]
		copy(c.dir[i], w.dir[i])
		if len(w.held[i]) > 0 {
			c.held[i] = append([]move(nil), w.held[i]...)
		}
	}
	c.links = make([][]wire, len(w.links))
	for i, l := range w.links {
		c.links[i] = l[:len(l):len(l)]
	}
	return &c
}

// key encodes a world for the visited set. Every count it holds is
// below 256 on the configurations explored. Once no data frame can be
// sent or is in flight, nothing reads a rank's identity or a
// directory, so the key keeps neither: ranks are a sorted list of
// (home, finished), held extracts their destinations, and RECORD and
// MOVED frames their kinds. Worlds equal up to renaming the ranks then
// share one key.
func (w *world) key() string {
	data := w.sends > 0
	for _, l := range w.links {
		for _, f := range l {
			data = data || f.data
		}
	}
	b := make([]byte, 0, 256)
	b = append(b, byte(w.left), byte(w.sends), byte(w.failed+1), byte(w.closed), byte(w.byes), byte(w.byes>>8), bool2byte(w.bad != ""))
	ranks := make([]byte, w.n)
	for r, h := range w.home {
		ranks[r] = byte(h+1)<<1 | bool2byte(w.finished(r))
	}
	if data {
		b = append(b, ranks...)
		b = append(b, bytes8(w.pending)...)
		for _, d := range w.dir {
			b = append(b, bytes8(d)...)
		}
	} else {
		slices.Sort(ranks)
		b = append(b, ranks...)
	}
	rep := func(r report) { b = append(b, bool2byte(r.done), byte(r.installs), byte(r.acked)) }
	for i, p := range w.p {
		b = append(b, byte(p.installs), byte(p.acked), byte(p.outstanding), bool2byte(p.stopped), bool2byte(p.err != nil))
		rep(p.last)
		for _, r := range p.peers {
			rep(r)
		}
		held := make([]byte, 0, 2*len(w.held[i]))
		for _, m := range w.held[i] {
			if data {
				held = append(held, byte(m.rank))
			}
			held = append(held, byte(m.to))
		}
		if !data {
			slices.Sort(held)
		}
		b = append(b, byte(len(w.held[i])))
		b = append(b, held...)
	}
	for _, l := range w.links {
		b = append(b, byte(len(l)))
		for _, f := range l {
			b = append(b, byte(f.kind), bool2byte(f.data), bool2byte(f.bye), bool2byte(f.hangup))
			if data || f.kind != ctrlRecord && f.kind != ctrlMoved {
				b = append(b, byte(f.rank), byte(len(f.payload)))
				b = append(b, f.payload...)
			}
		}
	}
	return string(b)
}

func bytes8(v []int8) []byte {
	b := make([]byte, len(v))
	for i, x := range v {
		b[i] = byte(x)
	}
	return b
}

func bool2byte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func (w *world) finished(r int) bool { return w.fin&(1<<r) != 0 }

// live counts worker i's unfinished resident ranks.
func (w *world) live(i int) int {
	n := 0
	for r, h := range w.home {
		if int(h) == i && !w.finished(r) {
			n++
		}
	}
	return n
}

// send queues frames from worker from; a closed worker's are lost.
func (w *world) send(from int, frames []ctrlFrame) {
	for _, f := range frames {
		e := wire{kind: f.kind, payload: f.payload}
		if f.kind == ctrlRecord {
			e.rank = int8(f.payload[0])
		}
		w.put(from, f.to, e)
	}
}

// put queues e on the link from→to, unless to has closed.
func (w *world) put(from, to int, e wire) {
	if !w.isClosed(to) {
		w.links[from*w.n+to] = append(w.links[from*w.n+to], e)
	}
}

func (w *world) isClosed(i int) bool { return w.closed&(1<<i) != 0 }

// running reports whether worker i takes events: not closed, run not
// ended.
func (w *world) running(i int) bool { return !w.isClosed(i) && !w.p[i].ended() }

// hangUp closes worker i, with BYE when its run stopped cleanly: what
// it was sent is lost, and every open peer's link from it ends in BYE,
// if any, and a hang-up.
func (w *world) hangUp(i int, bye bool) {
	w.closed |= 1 << i
	for k := 0; k < w.n; k++ {
		w.links[k*w.n+i] = nil
		if bye {
			w.put(i, k, wire{bye: true})
		}
		w.put(i, k, wire{hangup: true})
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
	case f.bye:
		w.byes |= 1 << (from*w.n + to)
	case f.hangup:
		if w.byes&(1<<(from*w.n+to)) == 0 {
			p.linkFault(from, errors.New("peer hung up without BYE"))
		}
	case f.data:
		r := int(f.rank)
		if there := int(w.dir[to][r]); there != to {
			w.put(to, there, f) // forwarded after the directory
			return
		}
		if int(w.home[r]) != to {
			w.bad = fmt.Sprintf("a data frame for rank %d taken into w%d's slot, which rank %d does not hold", r, to, r)
		}
		w.pending[r]--
	default:
		switch f.kind {
		case ctrlRecord:
			// The job installs it first: the slot and the directory
			// flip together, under the rank's lock.
			w.home[f.rank], w.dir[to][f.rank] = int8(to), int8(to)
		case ctrlMoved:
			w.dir[to][binary.LittleEndian.Uint32(f.payload)] = int8(binary.LittleEndian.Uint32(f.payload[4:]))
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
		if !w.running(i) {
			continue
		}
		i := i
		for r, h := range w.home {
			if int(h) != i || w.finished(r) {
				continue
			}
			r := r
			if w.pending[r] == 0 {
				evs = append(evs, event{fmt.Sprintf("w%d: rank %d finishes", i, r), func(w *world) { w.fin |= 1 << r }})
			}
			for q := range w.home {
				if to := int(w.dir[i][q]); w.sends > 0 && to != i && !w.finished(q) {
					q := q
					evs = append(evs, event{fmt.Sprintf("w%d: rank %d sends to rank %d on w%d", i, r, q, to), func(w *world) {
						w.sends--
						w.pending[q]++
						w.put(i, to, wire{data: true, rank: int8(q)})
					}})
				}
			}
			for to := 0; to < w.n && w.left > 0; to++ {
				if to == i {
					continue
				}
				to := to
				evs = append(evs, event{fmt.Sprintf("w%d: extract rank %d for w%d", i, r, to), func(w *world) {
					w.left--
					w.p[i].extractBegun()
					w.home[r], w.dir[i][r] = -1, int8(to)
					w.held[i] = append(w.held[i], move{int8(r), int8(to)})
				}})
			}
		}
		for k, m := range w.held[i] {
			k, m := k, m
			evs = append(evs, event{fmt.Sprintf("w%d: ship rank %d to w%d", i, m.rank, m.to), func(w *world) {
				w.held[i] = append(w.held[i][:k], w.held[i][k+1:]...)
				notices, record := w.p[i].extractShipped(int(m.to), int(m.rank), int(m.to), []byte{byte(m.rank)})
				w.send(i, append(notices, record...))
			}})
		}
		if w.live(i) == 0 {
			evs = append(evs, event{fmt.Sprintf("w%d: job done", i), func(w *world) { w.send(i, w.p[i].localDone()) }})
		}
		for from := 0; from < w.n; from++ {
			if l := w.links[from*w.n+i]; len(l) > 0 {
				from := from
				evs = append(evs, event{fmt.Sprintf("w%d: %s from w%d", i, wireName(l[0]), from), func(w *world) { w.deliver(from, i) }})
				if w.mayFail && w.failed < 0 && !l[0].data && !l[0].bye && !l[0].hangup && l[0].kind == ctrlRecord {
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
		if w.mayFail && w.failed < 0 && (w.live(i) > 0 || len(w.held[i]) > 0) {
			evs = append(evs, event{fmt.Sprintf("w%d dies", i), func(w *world) { w.failed = i; w.hangUp(i, false) }})
		}
	}
	for i := 0; i < w.n; i++ {
		if !w.isClosed(i) && w.p[i].ended() {
			i, bye := i, w.p[i].err == nil
			label := map[bool]string{true: "with", false: "without"}[bye]
			evs = append(evs, event{fmt.Sprintf("w%d: closes %s BYE", i, label), func(w *world) { w.hangUp(i, bye) }})
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
	switch {
	case f.hangup:
		return "hang-up"
	case f.bye:
		return "BYE"
	case f.data:
		return fmt.Sprintf("data for rank %d", f.rank)
	}
	return map[uint32]string{ctrlDoneReport: "DONE", ctrlRecord: "RECORD", ctrlMoved: "MOVED", ctrlAck: "ACK", ctrlStop: "STOP"}[f.kind]
}

// check returns the invariant a world breaks, or "". terminal says no
// event can move it.
func (w *world) check(terminal bool) string {
	if w.bad != "" {
		return w.bad
	}
	for k, l := range w.links {
		for j := 1; j < len(l); j++ {
			if l[j-1].bye && !l[j].hangup {
				return fmt.Sprintf("a %s after BYE on w%d→w%d", wireName(l[j]), k/w.n, k%w.n)
			}
		}
	}
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
			if w.live(i) > 0 || len(w.held[i]) > 0 {
				return fmt.Sprintf("STOP while w%d holds a live rank", i)
			}
			for from := 0; from < w.n; from++ {
				for _, f := range w.links[from*w.n+i] {
					if f.data || !f.bye && !f.hangup && f.kind == ctrlRecord {
						return fmt.Sprintf("STOP with a %s in flight w%d→w%d", wireName(f), from, i)
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
// starting with one rank: up to 2 extracts with and without one worker
// failing mid-run, and one extract with one data frame. Every
// invariant must hold in every reachable world:
//   - STOP only when every worker reported done and the reported
//     installs equal the reported acked extracts;
//   - at STOP no rank is alive: none running, none extracted and
//     unshipped, no RECORD or data frame in flight;
//   - a data frame reaches its rank's slot only on the worker that
//     holds the rank, however it raced the rank's RECORD;
//   - nothing follows BYE on a link but the hang-up;
//   - with no failure, every worker ends at STOP, with no error, and
//     closing with BYE fails no peer that has yet to hear STOP;
//   - when a worker dies holding a rank or refuses a record, every
//     other worker ends with errPeerLost naming a worker that hung up,
//     never with a hang or a STOP.
func TestProtocolExplored(t *testing.T) {
	explored := func(t *testing.T, start *world) {
		visited, trace, bad := explore(start)
		if bad != "" {
			t.Fatalf("%s after %d events:\n  %s", bad, len(trace), strings.Join(trace, "\n  "))
		}
		t.Logf("%d worlds", visited)
	}
	for _, n := range []int{2, 3} {
		for _, failure := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/failure=%v", n, failure), func(t *testing.T) { explored(t, newWorld(n, 2, 0, failure)) })
		}
		t.Run(fmt.Sprintf("workers=%d/data", n), func(t *testing.T) { explored(t, newWorld(n, 1, 1, false)) })
	}
}
