// LinkTransport: the one multi-process Transport. A worker holds one
// link to every peer worker — a stream socket (socket.go) or a pair
// of shared-memory rings (shm.go) — and everything that does not
// depend on how bytes move lives here, once: peer validation, frame
// building, the send queue and writer goroutine of each link, its
// reader goroutine and frame dispatch, the control plane, teardown
// ordering, the failure policy and the counters.
//
// Every link carries the same frames, `u32 len | u8 type | body`:
// envelope frames hold the PUP image of wire.go, control frames a
// small typed blob for the orchestration layer (termination barriers,
// migration records, step exchanges).
//
// A link carries envelopes, not messages: Deliver appends each
// message to the link's open envelope frame, sealed when the
// destination PE changes, when the next message would take it past
// the link's cap, or when the writer takes the queue. A message waits
// at most one writer pass, and while one batch is on the wire the next
// coalesces. There is no flush call and no timer; virtual time cannot
// move, because Arrival is stamped before a message is staged.
//
// What the skeleton guarantees, on every fabric:
//
//   - per link, frames arrive in the order they were accepted —
//     envelopes and control frames share one FIFO, which the shard
//     layer exploits: a DONE sent after the last data frame is
//     received after it too;
//   - a message or frame accepted before Close is flushed, never
//     dropped; a send after Close is rejected;
//   - two workers closing concurrently cannot deadlock: Close hangs up
//     every link before it waits for any reader;
//   - Close ends every link with a BYE frame, after every frame it
//     accepted; Abort hangs up without one. A reader that has seen BYE
//     takes the hang-up that follows as the link's orderly end. A
//     hang-up without BYE, a frame after BYE, a frame that does not
//     decode or a control frame naming another sender than the link's
//     peer is a link fault. It goes to the fault handler
//     (SetFaultHandler), which the shard layer makes the run's error;
//     with none, Close returns the first fault. Nothing panics. After
//     the local Close, faults are teardown noise. A write error means
//     the peer is gone, which its reader sees too, and only the reader
//     knows whether a BYE came first: the writer stops writing and
//     leaves the verdict to it;
//   - a transport never attached to a Network is control-only: it
//     carries SendControl, Deliver on it is an error, and an
//     envelope frame arriving on it is a link fault.
//
// What a link must provide is the four-method contract below.
package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Frame types on a link.
const (
	frameEnvelope byte = 1
	frameControl  byte = 2
	// frameBye is a link's last frame: its sender hangs up in good
	// order. It has no body.
	frameBye byte = 3
)

const (
	// maxFrameLen caps a claimed frame length (hostile-input guard: a
	// forged prefix cannot make a reader allocate unbounded memory).
	maxFrameLen = 64 << 20
	// envelopeCap caps an open envelope frame, prefix included; a
	// larger message crosses in an envelope of its own.
	envelopeCap = 64 << 10
	// envelopeHead is an envelope frame's bytes before its first
	// message: length prefix, type byte, destination PE and count.
	envelopeHead = 4 + 1 + envWireMin
)

var (
	errLinkClosed = errors.New("comm: transport closed")
	// errLinkEnded is read's orderly end: not a fault.
	errLinkEnded   = errors.New("comm: link ended")
	errControlOnly = errors.New("comm: Deliver on a control-only transport")
)

// link moves finished frames to one peer worker and back, write on
// the link's writer goroutine, read on its reader goroutine.
type link interface {
	// write puts whole frames on the wire in order, behind every frame
	// written before, and keeps none. An error means the peer is gone.
	write(frames [][]byte) error
	// read blocks for the next frame and returns its type byte and
	// body in a recycled buffer the caller putBufs. A length prefix of
	// zero or beyond maxFrameLen is an error, rejected before any
	// buffer is drawn. errLinkEnded reports that close was called
	// here, io.EOF that the peer hung up and the link is drained.
	// Whether that hang-up was orderly is the skeleton's call: it was
	// if a BYE frame came first.
	read() ([]byte, error)
	// close hangs up once the writer has written its last frame (the
	// BYE), and makes a blocked or later read return.
	close()
	// release frees the link's OS resources. Called after close, once
	// no read is in progress.
	release()
}

// peerLink is the skeleton's side of one link: the send queue and the
// open envelope its writer drains, in recycled buffers (bufpool.go).
// The queue is unbounded, as the socket link's always was: flow
// control is the program's.
type peerLink struct {
	link
	// limit is the largest frame the link carries, prefix included; an
	// open envelope is sealed at cap = min(envelopeCap, limit).
	limit, cap int

	mu      sync.Mutex
	q       [][]byte // sealed frames, in acceptance order
	open    []byte   // the open envelope frame, nil when none
	openPE  int
	openN   int  // messages in open
	kicked  bool // the writer has been woken and has not taken the queue since
	closed  bool // under mu, so it orders against the writer's last pass
	kick    chan struct{}
	flushed chan struct{} // the writer has exited

	// spare is the writer's recycled queue slice; broken is set on a
	// write error, after which batches are recycled unwritten.
	spare  [][]byte
	broken bool
}

// linkCounters are the transport's counters; links add to the ones
// only they can see (syscalls, parks, wakes).
type linkCounters struct {
	writeBatches  atomic.Uint64
	writeSyscalls atomic.Uint64
	framesSent    atomic.Uint64
	bytesWritten  atomic.Uint64
	framesRecv    atomic.Uint64
	bytesRead     atomic.Uint64
	wakes         atomic.Uint64
	parks         atomic.Uint64
}

// ControlHandler receives control frames: the sending worker's index,
// the frame kind, and its payload. It runs on the link's reader
// goroutine — keep it quick and thread-safe. The payload slice is a
// view into a recycled read buffer and is valid only for the duration
// of the call: a handler that keeps the bytes must copy them.
type ControlHandler func(from int, kind uint32, payload []byte)

// LinkTransport bridges this process's PEs to its peer workers.
// Construct with NewSocketTransport (plus one AddPeer per peer) or
// NewShmTransport, wire it to the network with Attach — or skip that
// for a control-only transport — then Start.
type LinkTransport struct {
	self    int
	workers int
	owner   func(pe int) int // global PE → owning worker index
	network *Network
	ctrl    ControlHandler
	links   []*peerLink // links[w]: the link to worker w; nil for self

	closed  atomic.Bool
	readers sync.WaitGroup
	stats   linkCounters
	faults  func(w int, err error) // the fault handler, if set
	fault   atomic.Pointer[error]  // else the first link fault, for Close
}

func newLinkTransport(self, workers int, owner func(pe int) int) *LinkTransport {
	return &LinkTransport{self: self, workers: workers, owner: owner, links: make([]*peerLink, workers)}
}

// addLink makes l the link to worker w, carrying frames of at most
// limit bytes, and starts its writer.
func (t *LinkTransport) addLink(w int, l link, limit int) {
	limit = min(limit, 4+maxFrameLen)
	pl := &peerLink{link: l, limit: limit, cap: min(envelopeCap, limit),
		kick: make(chan struct{}, 1), flushed: make(chan struct{})}
	t.links[w] = pl
	go t.writeLoop(pl)
}

// SetControlHandler installs the control-frame callback (before
// Start).
func (t *LinkTransport) SetControlHandler(h ControlHandler) { t.ctrl = h }

// SetFaultHandler installs the callback that receives each link fault
// before the local Close (before Start): the peer worker's index and
// what went wrong. It runs on the link's reader goroutine, which exits.
func (t *LinkTransport) SetFaultHandler(h func(w int, err error)) { t.faults = h }

// Attach shards n onto this transport: PEs [peLo, peHi) are local.
func (t *LinkTransport) Attach(n *Network, peLo, peHi int) error {
	if err := n.SetTransport(t, peLo, peHi); err != nil {
		return err
	}
	t.network = n
	return nil
}

// Start launches one reader goroutine per link. Every peer must be
// linked.
func (t *LinkTransport) Start() error {
	for w, l := range t.links {
		if l == nil && w != t.self {
			return fmt.Errorf("comm: Start: no link to worker %d", w)
		}
	}
	for w, l := range t.links {
		if l != nil {
			t.readers.Add(1)
			go t.readLoop(w, l)
		}
	}
	return nil
}

// peer returns the link to worker w, which must be a linked peer.
func (t *LinkTransport) peer(w int) (*peerLink, error) {
	if w < 0 || w >= t.workers || w == t.self || t.links[w] == nil {
		return nil, fmt.Errorf("comm: no link from worker %d to worker %d (of %d)", t.self, w, t.workers)
	}
	return t.links[w], nil
}

// Deliver implements Transport: append msg's wire image to the open
// envelope of the link to the worker owning pe, and free it. A message
// whose envelope could never fit the link is refused here, not on the
// writer.
func (t *LinkTransport) Deliver(pe int, msg *Message) error {
	defer msg.Free()
	if t.owner == nil || t.network == nil {
		return errControlOnly
	}
	l, err := t.peer(t.owner(pe))
	if err != nil {
		return err
	}
	size := msgWireMin + len(msg.Data)
	if envelopeHead+size > l.limit {
		return fmt.Errorf("comm: envelope of %d bytes exceeds the link's %d-byte frame limit", envelopeHead+size, l.limit)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errLinkClosed
	}
	if l.open != nil && (pe != l.openPE || len(l.open)+size > l.cap) {
		t.seal(l)
	}
	switch {
	case l.open == nil:
		l.open = append(appendU32(getBuf(envelopeHead+size), 0), frameEnvelope)
		l.open = appendU32(appendU32(l.open, uint32(pe)), 0)
		l.openPE = pe
	case len(l.open)+size > cap(l.open):
		grown := append(getBuf(max(2*cap(l.open), len(l.open)+size)), l.open...)
		putBuf(l.open)
		l.open = grown
	}
	l.open = appendMessage(l.open, msg)
	l.openN++
	t.wake(l)
	return nil
}

// seal closes l's open envelope — its length and count fill in — and
// queues it. Caller holds l.mu.
func (t *LinkTransport) seal(l *peerLink) {
	if l.open == nil {
		return
	}
	binary.LittleEndian.PutUint32(l.open, uint32(len(l.open)-4))
	binary.LittleEndian.PutUint32(l.open[envelopeHead-4:], uint32(l.openN))
	t.network.remoteEnvelopes.Add(1)
	t.network.remotePayloads.Add(uint64(l.openN))
	t.queue(l, l.open)
	l.open, l.openN = nil, 0
}

// queue appends a finished frame to l's queue. Caller holds l.mu.
func (t *LinkTransport) queue(l *peerLink, frame []byte) {
	l.q = append(l.q, frame)
	t.stats.framesSent.Add(1)
	t.stats.bytesWritten.Add(uint64(len(frame)))
}

// wake unlocks l.mu, waking l's writer if nothing has since it last
// took the queue.
func (t *LinkTransport) wake(l *peerLink) {
	woken := l.kicked
	l.kicked = true
	l.mu.Unlock()
	if !woken {
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
}

// SendControl sends a control frame to peer worker w, FIFO with any
// envelopes previously accepted for w.
func (t *LinkTransport) SendControl(w int, kind uint32, payload []byte) error {
	n := 4 + 1 + 8 + len(payload)
	frame := append(appendU32(getBuf(n), uint32(n-4)), frameControl)
	frame = appendU32(appendU32(frame, uint32(t.self)), kind)
	return t.send(w, append(frame, payload...))
}

// send seals the open envelope of the link to worker w and queues a
// finished frame behind it. The link owns frame from here on.
func (t *LinkTransport) send(w int, frame []byte) error {
	l, err := t.peer(w)
	if err == nil && len(frame) > l.limit {
		err = fmt.Errorf("comm: frame of %d bytes exceeds the link's %d-byte frame limit", len(frame), l.limit)
	}
	if err != nil {
		putBuf(frame)
		return err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		putBuf(frame)
		return errLinkClosed
	}
	t.seal(l)
	t.queue(l, frame)
	t.wake(l)
	return nil
}

// writeLoop is l's writer: each wake-up it takes the whole queue,
// sealing the open envelope first, writes it as one batch and recycles
// the frames, until the queue stays empty. It exits once Close has
// queued BYE and the queue is drained.
func (t *LinkTransport) writeLoop(l *peerLink) {
	defer close(l.flushed)
	for range l.kick {
		for {
			l.mu.Lock()
			t.seal(l)
			batch, closed := l.q, l.closed
			l.q, l.spare, l.kicked = l.spare[:0], nil, false
			l.mu.Unlock()
			if len(batch) == 0 {
				l.spare = batch
				if closed {
					return
				}
				break
			}
			if !l.broken {
				t.stats.writeBatches.Add(1)
				l.broken = l.write(batch) != nil
			}
			for i := range batch {
				putBuf(batch[i])
				batch[i] = nil
			}
			l.spare = batch[:0]
		}
	}
}

// readLoop pulls frames off one link and dispatches them until the
// link ends or fails. The read buffer is only lent to dispatchFrame —
// DecodeEnvelope copies every payload out and control handlers
// must not retain (see ControlHandler) — so it goes back to the pool
// on every path.
//
// After the peer's BYE, whatever error the hang-up reads as ends the
// link quietly: EOF, or ECONNRESET from a unix socket whose closer
// left frames of ours unread.
func (t *LinkTransport) readLoop(w int, l link) {
	defer t.readers.Done()
	bye := false
	for {
		buf, err := l.read()
		switch {
		case err == nil && bye:
			err = fmt.Errorf("frame type %d after BYE", buf[0])
			putBuf(buf)
		case err == nil && buf[0] == frameBye:
			putBuf(buf)
			bye = true
			continue
		case err == nil:
			t.stats.framesRecv.Add(1)
			t.stats.bytesRead.Add(uint64(4 + len(buf)))
			err = dispatchFrame(t.network, t.ctrl, w, buf)
			putBuf(buf)
			if err == nil {
				continue
			}
		case err == errLinkEnded || bye:
			return
		case err == io.EOF:
			err = errors.New("peer hung up without BYE")
		}
		t.linkFailed(w, err)
		return
	}
}

// dispatchFrame routes one frame (type byte + body) off the link to
// worker w: envelopes to DeliverLocal, control frames to the handler.
func dispatchFrame(network *Network, ctrl ControlHandler, w int, buf []byte) error {
	switch buf[0] {
	case frameEnvelope:
		pe, msgs, err := DecodeEnvelope(buf[1:])
		if err != nil {
			return err
		}
		if network == nil {
			return fmt.Errorf("comm: envelope frame on a control-only transport")
		}
		return network.DeliverLocal(pe, msgs)
	case frameControl:
		if len(buf) < 9 {
			return fmt.Errorf("control frame truncated: %d bytes", len(buf))
		}
		if from := binary.LittleEndian.Uint32(buf[1:5]); from != uint32(w) {
			return fmt.Errorf("control frame from worker %d on the link to worker %d", from, w)
		}
		if ctrl != nil {
			ctrl(w, binary.LittleEndian.Uint32(buf[5:9]), buf[9:])
		}
		return nil
	default:
		return fmt.Errorf("unknown frame type %d", buf[0])
	}
}

// linkFailed hands a link fault before the local Close to the fault
// handler, or keeps the first one for Close.
func (t *LinkTransport) linkFailed(w int, err error) {
	if t.closed.Load() {
		return // expected teardown noise
	}
	if t.faults != nil {
		t.faults(w, err)
		return
	}
	err = fmt.Errorf("comm: worker %d: link to worker %d failed: %w", t.self, w, err)
	t.fault.CompareAndSwap(nil, &err)
}

// Retire does nothing. Close's BYE frame is what tells a peer that a
// hang-up is orderly; the method stays for the bench module, which
// still calls it before Close.
func (t *LinkTransport) Retire() {}

// Close implements Transport: queue BYE behind everything each link
// accepted, let every writer drain, hang up every link, wait for the
// readers, then release the links. It returns the first link fault
// when no fault handler took it.
func (t *LinkTransport) Close() error { return t.hangUp(true) }

// Abort is Close without the BYE: every peer takes the hang-up for a
// link fault, as it would this process's death. A worker whose run
// failed ends with it, so no peer waits on it.
func (t *LinkTransport) Abort() error { return t.hangUp(false) }

func (t *LinkTransport) hangUp(bye bool) error {
	if t.closed.Swap(true) {
		return nil
	}
	for _, l := range t.links {
		if l != nil {
			l.mu.Lock()
			l.closed = true
			t.seal(l)
			if bye {
				l.q = append(l.q, append(appendU32(getBuf(5), 1), frameBye))
			}
			t.wake(l)
		}
	}
	for _, l := range t.links {
		if l != nil {
			<-l.flushed
			l.close()
		}
	}
	t.readers.Wait()
	for _, l := range t.links {
		if l != nil {
			l.release()
		}
	}
	if err := t.fault.Load(); err != nil {
		return *err
	}
	return nil
}

// SocketStats snapshots a LinkTransport's counters (one shape for
// both fabrics). FramesSent/WriteBatches is the mean frames a writer
// pass took; on the shared-memory fabric WriteSyscalls is zero (no
// syscalls at all) and Wakes/Parks describe the spin-then-park
// reader.
type SocketStats struct {
	WriteBatches  uint64 // writer passes that wrote a batch
	WriteSyscalls uint64 // writev syscalls issued (1024-iovec chunks; 0 on shm)
	FramesSent    uint64 // frames accepted onto the links: sealed envelopes and control frames
	BytesWritten  uint64 // wire bytes of those frames (prefixes included)
	FramesRecv    uint64 // frames read off the links
	BytesRead     uint64 // wire bytes read
	Wakes         uint64 // shm readers finding data after having parked
	Parks         uint64 // shm reader transitions from spinning to sleeping
}

// SocketStats returns the current link counters.
func (t *LinkTransport) SocketStats() SocketStats {
	return SocketStats{
		WriteBatches:  t.stats.writeBatches.Load(),
		WriteSyscalls: t.stats.writeSyscalls.Load(),
		FramesSent:    t.stats.framesSent.Load(),
		BytesWritten:  t.stats.bytesWritten.Load(),
		FramesRecv:    t.stats.framesRecv.Load(),
		BytesRead:     t.stats.bytesRead.Load(),
		Wakes:         t.stats.wakes.Load(),
		Parks:         t.stats.parks.Load(),
	}
}
