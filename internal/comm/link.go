// LinkTransport: the one multi-process Transport. A worker holds one
// link to every peer worker — a stream socket (socket.go) or a pair
// of shared-memory rings (shm.go) — and everything that does not
// depend on how bytes move lives here, once: peer validation, frame
// building, the per-link reader goroutine and frame dispatch, the
// control plane, teardown ordering, the failure policy and the
// counters.
//
// Every link carries the same frames, `u32 len | u8 type | body`:
// envelope frames hold the PUP image of wire.go, control frames a
// small typed blob for the orchestration layer (termination barriers,
// migration records, step exchanges).
//
// What the skeleton guarantees, on every fabric:
//
//   - per link, frames arrive in the order they were accepted —
//     envelopes and control frames share one FIFO, which the shard
//     layer exploits: a DONE sent after the last data frame is
//     received after it too;
//   - a frame accepted before Close is flushed, never dropped; a send
//     after Close is rejected;
//   - two workers closing concurrently cannot deadlock: Close hangs up
//     every link before it waits for any reader;
//   - Close ends every link with a BYE frame, after every frame it
//     accepted. A reader that has seen BYE takes the hang-up that
//     follows as the link's orderly end. A hang-up without BYE, a
//     frame after BYE, or a frame that does not decode is a link fault
//     and panics — a worker process dying mid-run is a hard error for
//     now, there is no restart or rebalance protocol. After the local
//     Close, faults are teardown noise;
//   - a transport never attached to a Network is control-only: it
//     carries SendControl/Broadcast, Deliver on it is an error, and an
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

// maxFrameLen caps a claimed frame length (hostile-input guard: a
// forged prefix cannot make a reader allocate unbounded memory).
const maxFrameLen = 64 << 20

var (
	errLinkClosed = errors.New("comm: transport closed")
	// errLinkEnded is read's orderly end: not a fault.
	errLinkEnded   = errors.New("comm: link ended")
	errControlOnly = errors.New("comm: Deliver on a control-only transport")
)

// link moves finished frames to one peer worker and back. push may be
// called from any goroutine; read is called from the link's single
// reader goroutine only.
type link interface {
	// push takes ownership of a complete frame (prefix included) in a
	// recycled buffer and putBufs it once it is off the wire, or at
	// once on error. A nil return means the frame reaches the peer,
	// after every frame pushed before it, unless the link fails; once
	// close has begun push returns errLinkClosed.
	push(frame []byte) error
	// read blocks for the next frame and returns its type byte and
	// body in a recycled buffer the caller putBufs. A length prefix of
	// zero or beyond maxFrameLen is an error, rejected before any
	// buffer is drawn. errLinkEnded reports that close was called
	// here, io.EOF that the peer hung up and the link is drained.
	// Whether that hang-up was orderly is the skeleton's call: it was
	// if a BYE frame came first.
	read() ([]byte, error)
	// close puts every accepted frame on the wire, then bye (a BYE
	// frame in a recycled buffer the link now owns) as the last one,
	// refuses further frames, and makes a blocked or later read
	// return.
	close(bye []byte)
	// release frees the link's OS resources. Called after close, once
	// no read is in progress.
	release()
}

// linkCounters are the transport's counters; links add to the ones
// only they can see (write batches, syscalls, parks, wakes).
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
	links   []link // links[w]: the link to worker w; nil for self

	closed  atomic.Bool
	readers sync.WaitGroup
	stats   linkCounters
	// onFault replaces the panic of the failure policy (linkFailed);
	// nil outside tests.
	onFault func(w int, err error)
}

func newLinkTransport(self, workers int, owner func(pe int) int) *LinkTransport {
	return &LinkTransport{self: self, workers: workers, owner: owner, links: make([]link, workers)}
}

// SetControlHandler installs the control-frame callback (before
// Start).
func (t *LinkTransport) SetControlHandler(h ControlHandler) { t.ctrl = h }

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

// Deliver implements Transport: encode msgs as one envelope frame —
// appended straight into a recycled buffer, no intermediate body
// slice — free the messages, and push the frame onto the link to the
// worker owning pe.
func (t *LinkTransport) Deliver(pe int, msgs []*Message) error {
	if t.owner == nil || t.network == nil {
		return errControlOnly
	}
	frame, err := newFrame(frameEnvelope, envelopeWireSize(msgs))
	if err != nil {
		return err
	}
	frame = appendEnvelope(frame, pe, msgs)
	for _, m := range msgs {
		m.Free()
	}
	return t.send(t.owner(pe), frame)
}

// SendControl sends a control frame to peer worker w, FIFO with any
// envelopes previously accepted for w.
func (t *LinkTransport) SendControl(w int, kind uint32, payload []byte) error {
	frame, err := newFrame(frameControl, 8+len(payload))
	if err != nil {
		return err
	}
	frame = appendU32(appendU32(frame, uint32(t.self)), kind)
	return t.send(w, append(frame, payload...))
}

// Broadcast sends a control frame to every peer.
func (t *LinkTransport) Broadcast(kind uint32, payload []byte) error {
	for w := range t.links {
		if w == t.self {
			continue
		}
		if err := t.SendControl(w, kind, payload); err != nil {
			return err
		}
	}
	return nil
}

// newFrame starts a frame in a recycled buffer: the length prefix,
// then the type byte. The caller appends the body bytes it announced.
func newFrame(typ byte, body int) ([]byte, error) {
	n := 1 + body
	if n > maxFrameLen {
		return nil, fmt.Errorf("comm: frame of %d bytes exceeds the %d limit", n, maxFrameLen)
	}
	return append(appendU32(getBuf(4+n), uint32(n)), typ), nil
}

// send pushes a finished frame onto the link to worker w, which must
// be a linked peer.
func (t *LinkTransport) send(w int, frame []byte) error {
	if w < 0 || w >= t.workers || w == t.self || t.links[w] == nil {
		putBuf(frame)
		return fmt.Errorf("comm: no link from worker %d to worker %d (of %d)", t.self, w, t.workers)
	}
	n := uint64(len(frame)) // the link owns frame once push is called
	if err := t.links[w].push(frame); err != nil {
		return err
	}
	t.stats.framesSent.Add(1)
	t.stats.bytesWritten.Add(n)
	return nil
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
			err = dispatchFrame(t.network, t.ctrl, buf)
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

// dispatchFrame routes one frame (type byte + body): envelopes to
// DeliverLocal, control frames to the handler.
func dispatchFrame(network *Network, ctrl ControlHandler, buf []byte) error {
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
		from := int(binary.LittleEndian.Uint32(buf[1:5]))
		kind := binary.LittleEndian.Uint32(buf[5:9])
		if ctrl != nil {
			ctrl(from, kind, buf[9:])
		}
		return nil
	default:
		return fmt.Errorf("unknown frame type %d", buf[0])
	}
}

// linkFailed enforces the hard-error policy: a link fault before the
// local Close kills the process.
func (t *LinkTransport) linkFailed(w int, err error) {
	if t.closed.Load() {
		return // expected teardown noise
	}
	if t.onFault != nil {
		t.onFault(w, err)
		return
	}
	panic(fmt.Sprintf("comm: worker %d: link to worker %d failed: %v", t.self, w, err))
}

// Retire does nothing. Close's BYE frame is what tells a peer that a
// hang-up is orderly; the method stays for the bench module, which
// still calls it before Close.
func (t *LinkTransport) Retire() {}

// Close implements Transport: flush every link, end it with BYE and
// hang up, wait for the readers, then release the links.
func (t *LinkTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	for _, l := range t.links {
		if l != nil {
			bye, _ := newFrame(frameBye, 0)
			l.close(bye)
		}
	}
	t.readers.Wait()
	for _, l := range t.links {
		if l != nil {
			l.release()
		}
	}
	return nil
}

// SocketStats snapshots a LinkTransport's counters (one shape for
// both fabrics). FramesSent/WriteSyscalls is the mean envelopes
// coalesced per syscall — the amortization the socket link's writer
// bought; on the shared-memory fabric WriteSyscalls is zero (no
// syscalls at all), every frame is its own publish (WriteBatches ==
// FramesSent) and Wakes/Parks describe the spin-then-park reader.
type SocketStats struct {
	WriteBatches  uint64 // socket: whole-queue net.Buffers writes; shm: ring publishes
	WriteSyscalls uint64 // writev syscalls issued (1024-iovec chunks; 0 on shm)
	FramesSent    uint64 // frames accepted onto the links
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
