// The socket link: one stream connection (unix-domain or TCP —
// anything net.Conn) to a peer worker. write hands the writer's whole
// batch to a single net.Buffers write — the writev that turns a burst
// of envelopes into one syscall — and read pulls length-prefixed
// frames through a bufio.Reader. Frame order on the link is write
// order, so the skeleton's FIFO guarantee falls out of stream FIFO.
//
// A stream socket has no out-of-band "peer closed in good order"
// signal: the skeleton's BYE frame is it, and read hands EOF up as
// is.
package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// sockLink is a connection plus the writer's scratch batch: WriteTo
// consumes (reslices) the net.Buffers it writes from, and the skeleton
// still needs the original frames to recycle them.
type sockLink struct {
	conn    net.Conn
	br      *bufio.Reader
	hdr     [4]byte // read's prefix scratch (a local would escape per frame)
	stats   *linkCounters
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
	t.addLink(idx, &sockLink{conn: conn, br: bufio.NewReaderSize(conn, 1<<16), stats: &t.stats}, 4+maxFrameLen)
	return nil
}

// write issues frames as one net.Buffers write; on unix/TCP
// connections Go makes that writev, in chunks of up to 1024 iovecs, so
// the syscall count is derivable from the batch size (partial writes
// can add more; this is the floor).
func (l *sockLink) write(frames [][]byte) error {
	l.stats.writeSyscalls.Add(uint64((len(frames) + 1023) / 1024))
	l.scratch = append(l.scratch[:0], frames...)
	wb := l.scratch
	_, err := wb.WriteTo(l.conn)
	return err
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

// close closes the connection, which is what unblocks the reader.
func (l *sockLink) close() { l.conn.Close() }

func (l *sockLink) release() {}
