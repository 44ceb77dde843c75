// The socket link: one stream connection (unix-domain or TCP —
// anything net.Conn) to a peer worker. push appends the frame to a
// pending queue; a dedicated writer goroutine drains every frame
// queued since its last write into a single net.Buffers write — the
// writev-style coalescing that turns a burst of fine-grained
// envelopes into one syscall — and read pulls length-prefixed frames
// through a bufio.Reader. Frame order on the link is push order, so
// the skeleton's FIFO guarantee falls out of stream FIFO.
//
// A stream socket has no out-of-band "peer closed in good order"
// signal: the skeleton's BYE frame is it, and read hands EOF up as
// is. A write error is not judged where it happens: it means the peer
// has hung up, which the link's reader is bound to see as well, and
// only the reader knows whether a BYE came first. So the writer stops
// writing and leaves the verdict to the reader.
package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// sockLink is a connection plus the pending frame queue its writer
// goroutine drains. Queued frames live in recycled buffers
// (bufpool.go); ownership passes push → drain, which returns them to
// the pool once the writev completes. spare/scratch are the
// writer-side slice recycling: spare is the previous batch's queue
// slice handed back for reuse, scratch the net.Buffers copy WriteTo
// is allowed to consume (it reslices its argument in place, and we
// still need the original frame pointers to recycle them).
type sockLink struct {
	conn  net.Conn
	br    *bufio.Reader
	hdr   [4]byte // read's prefix scratch (a local would escape per frame)
	stats *linkCounters
	// broken is set by the writer goroutine (its only user) on a write
	// error: later batches are recycled unwritten.
	broken bool

	mu     sync.Mutex
	q      net.Buffers
	closed bool // under mu, so it orders against the writer's final drain

	kick    chan struct{}
	done    chan struct{} // close: flush and stop the writer
	flushed chan struct{} // the writer has exited
	spare   net.Buffers
	scratch net.Buffers
}

// NewSocketTransport builds a transport for worker self of workers
// total whose links are stream sockets, added one per peer with
// AddPeer. owner maps a global PE index to the worker owning it; it
// may be nil for a control-only transport that never Delivers
// envelopes.
func NewSocketTransport(self, workers int, owner func(pe int) int) *LinkTransport {
	return newLinkTransport(self, workers, owner)
}

// AddPeer makes conn the link to peer worker idx and starts its
// writer. Must be called for every peer before Start.
func (t *LinkTransport) AddPeer(idx int, conn net.Conn) error {
	if idx < 0 || idx >= t.workers || idx == t.self {
		return fmt.Errorf("comm: AddPeer(%d): invalid peer for worker %d of %d", idx, t.self, t.workers)
	}
	if t.links[idx] != nil {
		return fmt.Errorf("comm: AddPeer(%d): duplicate peer", idx)
	}
	l := &sockLink{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 1<<16),
		stats:   &t.stats,
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		flushed: make(chan struct{}),
	}
	go l.writeLoop()
	t.links[idx] = l
	return nil
}

func (l *sockLink) push(frame []byte) error {
	l.mu.Lock()
	// A frame appended here is flushed by close's final drain, which
	// runs after closed was set under this lock; one that finds closed
	// set is rejected — never silently dropped between the writer's
	// last pass and the connection teardown.
	if l.closed {
		l.mu.Unlock()
		putBuf(frame)
		return errLinkClosed
	}
	l.q = append(l.q, frame)
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return nil
}

// writeLoop drains the pending queue into single net.Buffers writes —
// on unix/TCP connections Go issues these as writev, so every frame
// queued between two wakeups coalesces into (usually) one syscall.
func (l *sockLink) writeLoop() {
	defer close(l.flushed)
	for {
		select {
		case <-l.kick:
			l.drain()
		case <-l.done:
			l.drain() // final flush before teardown
			return
		}
	}
}

// drain writes every queued frame in one batch, repeating until the
// queue stays empty, and recycles the frame buffers afterwards; once a
// write has failed it only recycles them (see the file comment). The
// WriteTo goes through a scratch copy of the batch because
// net.Buffers consumes (reslices) the slice it writes from — the
// original batch keeps the frame pointers the pool needs back.
func (l *sockLink) drain() {
	for {
		l.mu.Lock()
		batch := l.q
		l.q = l.spare[:0]
		l.spare = nil
		l.mu.Unlock()
		if len(batch) == 0 {
			l.spare = batch // hand the empty slice back for reuse
			return
		}
		if l.broken {
			l.recycle(batch)
			continue
		}
		l.stats.writeBatches.Add(1)
		// Go's net.Buffers issues writev in chunks of up to 1024
		// iovecs, so the syscall count is derivable from the batch
		// size (partial writes can add more; this is the floor).
		l.stats.writeSyscalls.Add(uint64((len(batch) + 1023) / 1024))
		// wb and scratch share a backing array; WriteTo consumes wb
		// (advancing both the slice and its elements), scratch keeps
		// the original header so its capacity survives for next time.
		scratch := append(l.scratch[:0], batch...)
		wb := scratch
		_, err := wb.WriteTo(l.conn)
		l.scratch = scratch[:0]
		l.broken = err != nil
		l.recycle(batch)
	}
}

// recycle returns a written (or abandoned) batch's frames to the pool
// and keeps the emptied slice for the next batch.
func (l *sockLink) recycle(batch net.Buffers) {
	for i := range batch {
		putBuf(batch[i])
		batch[i] = nil
	}
	l.spare = batch[:0]
}

func (l *sockLink) read() ([]byte, error) {
	if _, err := io.ReadFull(l.br, l.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(l.hdr[:])
	if n == 0 || n > maxFrameLen {
		return nil, fmt.Errorf("frame length %d out of range", n)
	}
	buf := getBuf(int(n))[:n]
	if _, err := io.ReadFull(l.br, buf); err != nil {
		putBuf(buf)
		return nil, err
	}
	return buf, nil
}

// close queues bye behind every accepted frame, stops the writer after
// one last drain, then closes the connection, which is what unblocks
// the reader.
func (l *sockLink) close(bye []byte) {
	l.mu.Lock()
	l.closed = true
	l.q = append(l.q, bye)
	l.mu.Unlock()
	close(l.done)
	<-l.flushed
	l.conn.Close()
}

func (l *sockLink) release() {}
