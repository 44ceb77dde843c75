// The shared-memory link, for co-located workers. Processes on one
// host do not need the kernel to move bytes between them (the socket
// link prices every cross-worker Send at a writev + read pair — a
// ~120x tax over the in-process path): this fabric maps one file per
// ordered worker pair (created at rendezvous by CreateShmMesh, before
// any worker starts) and runs a lock-free single-producer/
// single-consumer byte ring in each, so a push is a memcpy into the
// peer's ring and a read is a memcpy out. A link is the pair's two
// rings: out (self → peer) and in (peer → self).
//
// Ring layout (one mmap'd file, header page + data):
//
//	off   0  u64 magic
//	off   8  u64 capacity        (power of two, data bytes)
//	off  64  u64 head            (reader cursor, absolute)
//	off 128  u64 tail            (writer cursor, absolute)
//	off 192  u32 wclosed         (writer: no more frames)
//	off 224  u32 rclosed         (reader: detached, stop writing)
//	off 256  data[capacity]
//
// head and tail are absolute byte counters (wrap = cursor &
// (capacity-1)), each on its own cache line, each written by exactly
// one side and read by the other through atomics — the classic SPSC
// ring, no cross-process locks anywhere. A frame is published by one
// release-store of tail after its bytes are in place, so the reader
// only ever observes whole frames; the link's writer goroutine
// (link.go) is the single producer, and an envelope never outgrows the
// ring, so every frame fits once the reader has drained enough.
//
// Wakeup is futex-free spin-then-park: an empty-ring reader and a
// full-ring writer wait on the Backoff ladder (backoff.go).
// Wakes/Parks in SocketStats count the reader's sleep transitions,
// and a parked reader's wake latency is bounded by one nap — no
// descriptor, no syscall on the send side at all.
//
// close marks the outbound ring wclosed after the writer has published
// the skeleton's BYE frame, so every accepted frame is published
// before the peer can observe the mark. A reader that
// finds its inbound ring wclosed and drained reports the peer's
// hang-up as io.EOF, exactly as a socket does.
package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"unsafe"
)

const (
	shmMagic   uint64 = 0x6d6967666c6f7731 // "migflow1"
	shmHdrSize        = 256
	shmOffHead        = 64
	shmOffTail        = 128
	shmOffWCl         = 192
	shmOffRCl         = 224

	// shmMinRing is the smallest usable ring; a frame must fit whole.
	shmMinRing = 4096

	// DefaultShmRingBytes is the per-pair ring size CreateShmMesh uses
	// when not told otherwise. The shard workloads' frontiers are well
	// under 1 MiB; 4 MiB keeps even paper-scale BigSim step blobs a
	// single-publish affair.
	DefaultShmRingBytes = 4 << 20

	// Backoff rungs for ring polls (backoff.go): 64 Gosched calls, then
	// 4096 OS yields — over a millisecond of keeping the ring warm —
	// before the first nap.
	shmSpinYields = 64
	shmYieldSpins = 4096
)

// shmRing is one mapped SPSC ring (either direction of a pair).
type shmRing struct {
	f        *os.File
	mem      []byte
	data     []byte
	capacity uint64
	head     *atomic.Uint64
	tail     *atomic.Uint64
	wclosed  *atomic.Uint32
	rclosed  *atomic.Uint32
}

// ShmDir returns the directory ring files should live in: /dev/shm
// when it is a writable tmpfs (Linux), else the system temp dir.
// This matters more than it looks: a MAP_SHARED mapping of a
// disk-backed file (ext4 /tmp in most containers) takes a
// write-protect fault through the filesystem's writeback machinery
// every time a clean page is re-dirtied, which turns the ring's
// memcpy publish into tens of microseconds per frame. tmpfs pages
// are page cache with no writeback — the ring then costs what shared
// memory should.
func ShmDir() string {
	const devShm = "/dev/shm"
	if st, err := os.Stat(devShm); err == nil && st.IsDir() {
		if f, err := os.CreateTemp(devShm, "migflow-probe-*"); err == nil {
			f.Close()
			os.Remove(f.Name())
			return devShm
		}
	}
	return os.TempDir()
}

// ShmRingPath names the ring file carrying frames from worker `from`
// to worker `to` under the mesh directory.
func ShmRingPath(dir string, from, to int) string {
	return filepath.Join(dir, fmt.Sprintf("ring-%d-%d.shm", from, to))
}

// CreateShmMesh pre-creates every ordered-pair ring file for a
// workers-wide mesh under dir. The parent calls this before spawning
// workers, so no worker ever races file creation; each worker then
// opens its rings with NewShmTransport. ringBytes is the per-ring
// data capacity (0 = DefaultShmRingBytes; must be a power of two ≥
// shmMinRing).
func CreateShmMesh(dir string, workers, ringBytes int) error {
	if ringBytes == 0 {
		ringBytes = DefaultShmRingBytes
	}
	if ringBytes < shmMinRing || ringBytes&(ringBytes-1) != 0 {
		return fmt.Errorf("comm: shm ring size %d must be a power of two ≥ %d", ringBytes, shmMinRing)
	}
	for i := 0; i < workers; i++ {
		for j := 0; j < workers; j++ {
			if i == j {
				continue
			}
			if err := createShmRing(ShmRingPath(dir, i, j), ringBytes); err != nil {
				return err
			}
		}
	}
	return nil
}

func createShmRing(path string, capacity int) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return fmt.Errorf("comm: creating shm ring: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(int64(shmHdrSize + capacity)); err != nil {
		return fmt.Errorf("comm: sizing shm ring %s: %w", path, err)
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], shmMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(capacity))
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("comm: initializing shm ring %s: %w", path, err)
	}
	return nil
}

// openShmRing maps an existing ring file and validates its header.
func openShmRing(path string) (*shmRing, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("comm: opening shm ring: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size < shmHdrSize+shmMinRing || size > shmHdrSize+(8<<30) {
		f.Close()
		return nil, fmt.Errorf("comm: shm ring %s has implausible size %d", path, size)
	}
	mem, err := mmapShared(f, int(size))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("comm: mapping shm ring %s: %w", path, err)
	}
	r := &shmRing{
		f:       f,
		mem:     mem,
		data:    mem[shmHdrSize:],
		head:    (*atomic.Uint64)(unsafe.Pointer(&mem[shmOffHead])),
		tail:    (*atomic.Uint64)(unsafe.Pointer(&mem[shmOffTail])),
		wclosed: (*atomic.Uint32)(unsafe.Pointer(&mem[shmOffWCl])),
		rclosed: (*atomic.Uint32)(unsafe.Pointer(&mem[shmOffRCl])),
	}
	magic := binary.LittleEndian.Uint64(mem[0:])
	r.capacity = binary.LittleEndian.Uint64(mem[8:])
	if magic != shmMagic || r.capacity != uint64(len(r.data)) ||
		r.capacity&(r.capacity-1) != 0 || r.capacity < shmMinRing {
		r.close()
		return nil, fmt.Errorf("comm: %s is not a valid shm ring (magic %#x, capacity %d, file %d)", path, magic, r.capacity, size)
	}
	return r, nil
}

func (r *shmRing) close() {
	if r.mem != nil {
		munmapShared(r.mem)
		r.mem, r.data = nil, nil
	}
	r.f.Close()
}

// readable is the published byte count awaiting the reader.
func (r *shmRing) readable() uint64 { return r.tail.Load() - r.head.Load() }

// tryPush copies frame into the ring and publishes it with one
// release-store of tail; false when the ring lacks space. Caller is
// the single producer (holds the link's producer mutex).
func (r *shmRing) tryPush(frame []byte) bool {
	need := uint64(len(frame))
	tail := r.tail.Load()
	if r.capacity-(tail-r.head.Load()) < need {
		return false
	}
	off := tail & (r.capacity - 1)
	n1 := copy(r.data[off:], frame)
	copy(r.data, frame[n1:]) // wrap-around remainder (no-op when it fit)
	r.tail.Store(tail + need)
	return true
}

// readFrame pops the next whole frame into a recycled buffer (caller
// putBufs it after dispatch). Returns ok=false with nil error when
// the ring is empty. A corrupt image — torn header, zero or oversized
// length claim, or a length exceeding what was published — is an
// error: the protocol only ever publishes whole frames, so these
// cannot happen short of a scribbled mapping, and the hostile-input
// tests drive exactly those images through here.
func (r *shmRing) readFrame() (buf []byte, ok bool, err error) {
	avail := r.readable()
	if avail == 0 {
		return nil, false, nil
	}
	if avail < 4 {
		return nil, false, fmt.Errorf("comm: torn shm frame header: %d bytes published", avail)
	}
	head := r.head.Load()
	var hdr [4]byte
	r.copyOut(hdr[:], head)
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || uint64(n) > r.capacity-4 || n > maxFrameLen {
		return nil, false, fmt.Errorf("comm: shm frame length %d out of range (ring %d)", n, r.capacity)
	}
	if uint64(4)+uint64(n) > avail {
		return nil, false, fmt.Errorf("comm: torn shm frame: claims %d bytes with %d published", n, avail-4)
	}
	buf = getBuf(int(n))[:n]
	r.copyOut(buf, head+4)
	r.head.Store(head + 4 + uint64(n))
	return buf, true, nil
}

// copyOut copies len(dst) ring bytes starting at absolute position
// pos, handling wrap-around.
func (r *shmRing) copyOut(dst []byte, pos uint64) {
	off := pos & (r.capacity - 1)
	n1 := copy(dst, r.data[off:])
	copy(dst[n1:], r.data)
}

// shmLink is the pair of rings shared with one peer worker.
type shmLink struct {
	peer  int
	out   *shmRing // self → peer; the link's writer is its single producer
	in    *shmRing // peer → self; the reader goroutine is its consumer
	stats *linkCounters

	// stop is set by close: the reader ends once its ring is empty.
	stop atomic.Bool
	idle Backoff // the reader's ladder
}

// NewShmTransport opens worker self's half of the ring mesh under dir
// (created beforehand by CreateShmMesh): one shm link per peer. owner
// maps a global PE index to its owning worker, exactly as for
// NewSocketTransport; it may be nil for a control-only transport that
// never Delivers envelopes.
func NewShmTransport(self, workers int, owner func(pe int) int, dir string) (*LinkTransport, error) {
	if self < 0 || self >= workers || workers < 2 {
		return nil, fmt.Errorf("comm: NewShmTransport: worker %d of %d", self, workers)
	}
	t := newLinkTransport(self, workers, owner)
	links := make([]*shmLink, 0, workers-1)
	for w := 0; w < workers; w++ {
		if w == self {
			continue
		}
		l := &shmLink{peer: w, stats: &t.stats, idle: NewBackoff(shmSpinYields, shmYieldSpins)}
		var err error
		if l.out, err = openShmRing(ShmRingPath(dir, self, w)); err == nil {
			if l.in, err = openShmRing(ShmRingPath(dir, w, self)); err != nil {
				l.out.close()
			}
		}
		if err != nil {
			for _, opened := range links {
				opened.release()
			}
			return nil, err
		}
		links = append(links, l)
	}
	for _, l := range links {
		t.addLink(l.peer, l, int(l.out.capacity))
	}
	return t, nil
}

// write publishes frames into the outbound ring in order, waiting out
// a full ring on the backoff ladder: a full ring means the reader's
// process is behind, and the OS-yield rung gives it the core so it
// can drain. It gives up once the peer's reader has detached.
func (l *shmLink) write(frames [][]byte) error {
	full := NewBackoff(shmSpinYields, shmYieldSpins)
	for _, f := range frames {
		for !l.out.tryPush(f) {
			if l.out.rclosed.Load() != 0 {
				return fmt.Errorf("comm: shm ring to worker %d: reader detached", l.peer)
			}
			full.Wait()
		}
	}
	return nil
}

// read pops the next frame off the inbound ring, spin-then-parking
// while it is empty. It ends when the peer closed the ring and it is
// drained, or when the local close began; every way out detaches the
// reader (rclosed) so a peer blocked on a full ring stops waiting.
func (l *shmLink) read() ([]byte, error) {
	r := l.in
	for {
		buf, ok, err := r.readFrame()
		if err != nil {
			r.rclosed.Store(1)
			return nil, err
		}
		if ok {
			if l.idle.Reset() {
				l.stats.wakes.Add(1)
			}
			return buf, nil
		}
		if r.wclosed.Load() != 0 {
			// The cursors are re-read now that the close is visible:
			// frames published before it are drained, not abandoned.
			if r.readable() != 0 {
				continue
			}
			r.rclosed.Store(1)
			return nil, io.EOF
		}
		if !l.stop.Load() {
			if l.idle.Wait() {
				l.stats.parks.Add(1)
			}
			continue
		}
		r.rclosed.Store(1)
		return nil, errLinkEnded
	}
}

// close marks the outbound ring closed — the writer has published
// every frame, BYE last, before — and ends the reader.
func (l *shmLink) close() {
	l.stop.Store(true)
	l.out.wclosed.Store(1)
}

func (l *shmLink) release() {
	l.in.rclosed.Store(1)
	l.out.close()
	l.in.close()
}
