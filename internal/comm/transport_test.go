package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The LinkTransport contract suite: every case takes the fabric it
// runs on, so one body checks sockets and rings alike. A fabric builds
// the two halves of a two-worker mesh inside this process; owner may
// be nil for a control-only pair.
type fabric struct {
	name     string
	syscalls bool // frames cross through the kernel
	pair     func(t *testing.T, owner func(pe int) int) (t0, t1 *LinkTransport)
	// die makes tr's link to worker 1-self behave like a worker process
	// that dies: the raw bytes of partial reach the peer, then the link
	// hangs up with no BYE.
	die func(tr *LinkTransport, partial []byte)
}

var (
	unixFabric = fabric{name: "unix", syscalls: true, pair: unixPair, die: func(tr *LinkTransport, partial []byte) {
		c := tr.links[1-tr.self].link.(*sockLink).conn
		c.Write(partial)
		c.Close()
	}}
	shmFabric = fabric{name: "shm", pair: func(t *testing.T, owner func(pe int) int) (*LinkTransport, *LinkTransport) {
		return shmPair(t, owner, 1<<16) // small rings, so tests see realistic occupancy
	}, die: func(tr *LinkTransport, partial []byte) {
		r := tr.links[1-tr.self].link.(*shmLink).out
		tail := r.tail.Load()
		copy(r.data[tail&(r.capacity-1):], partial)
		r.tail.Store(tail + uint64(len(partial)))
		r.wclosed.Store(1) // the OS reclaiming a dead writer's side
	}}
	fabrics = []fabric{unixFabric, shmFabric}
)

// unixPair links two transports by a real unix-domain socket pair.
func unixPair(t *testing.T, owner func(pe int) int) (t0, t1 *LinkTransport) {
	t.Helper()
	l, err := net.Listen("unix", filepath.Join(t.TempDir(), "x.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ch := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		ch <- c
	}()
	dialed, err := net.Dial("unix", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted := <-ch
	if accepted == nil {
		t.Fatal("accept failed")
	}
	t0, t1 = NewSocketTransport(0, 2, owner), NewSocketTransport(1, 2, owner)
	if err := t0.AddPeer(1, accepted); err != nil {
		t.Fatal(err)
	}
	if err := t1.AddPeer(0, dialed); err != nil {
		t.Fatal(err)
	}
	return t0, t1
}

// shmPair links two transports by a ring mesh in a temp directory.
func shmPair(t *testing.T, owner func(pe int) int, ringBytes int) (t0, t1 *LinkTransport) {
	t.Helper()
	dir := t.TempDir()
	if err := CreateShmMesh(dir, 2, ringBytes); err != nil {
		t.Fatal(err)
	}
	var err error
	if t0, err = NewShmTransport(0, 2, owner, dir); err != nil {
		t.Fatal(err)
	}
	if t1, err = NewShmTransport(1, 2, owner, dir); err != nil {
		t.Fatal(err)
	}
	return t0, t1
}

// closeBoth is every test's teardown. The first Close ends its links
// with BYE, so the second transport's readers take that hang-up for an
// orderly end, not a fault.
func closeBoth(t0, t1 *LinkTransport) {
	t0.Close()
	t1.Close()
}

// faultLog is a transport's fault handler that records the faults, so
// a test can assert on them.
type faultLog struct {
	mu   sync.Mutex
	errs []error
}

func (f *faultLog) watch(tr *LinkTransport) {
	tr.SetFaultHandler(func(_ int, err error) {
		f.mu.Lock()
		f.errs = append(f.errs, err)
		f.mu.Unlock()
	})
}

func (f *faultLog) snapshot() []error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]error(nil), f.errs...)
}

// twoWorkers builds two sharded 4-PE networks in one test process —
// worker 0 owning PEs [0,2), worker 1 owning [2,4) — attached to the
// pair (the sharded-run invariant, identical directory contents on
// both sides, is the caller's to keep).
func twoWorkers(t *testing.T, t0, t1 *LinkTransport) (n0, n1 *Network) {
	t.Helper()
	lat := LatencyModel{Alpha: 100, BetaPerByte: 1}
	n0, n1 = NewNetwork(4, lat), NewNetwork(4, lat)
	if err := t0.Attach(n0, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := t1.Attach(n1, 2, 4); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeBoth(t0, t1) })
	return n0, n1
}

func ownerByPair(pe int) int { return pe / 2 }

func startBoth(t *testing.T, t0, t1 *LinkTransport) {
	t.Helper()
	if err := t0.Start(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Start(); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// ctrlLog collects control frames as "from/kind/payload" strings.
type ctrlLog struct {
	mu  sync.Mutex
	got []string
}

func (c *ctrlLog) handle(from int, kind uint32, payload []byte) {
	c.mu.Lock()
	c.got = append(c.got, fmt.Sprintf("%d/%d/%s", from, kind, payload))
	c.mu.Unlock()
}

func (c *ctrlLog) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.got...)
}

// contractSend sends PE0→PE2 across the link and checks the messages
// arrive bit-for-bit, in order, with the latency accounting a local
// delivery would get. The link may coalesce them: every frame is a
// sealed envelope, and there are no more frames than sends.
func contractSend(t *testing.T, f fabric) {
	t0, t1 := f.pair(t, ownerByPair)
	n0, n1 := twoWorkers(t, t0, t1)
	for _, n := range []*Network{n0, n1} {
		if err := n.Register(EntityID(9), 2); err != nil {
			t.Fatal(err)
		}
	}
	startBoth(t, t0, t1)

	const count = 50
	for i := 0; i < count; i++ {
		msg := &Message{To: 9, From: 1, Tag: i, Seq: uint64(i) + 7, Data: []byte{byte(i), 2, 3, 4}, SendTime: float64(i) * 10, VTime: float64(i)}
		if err := n0.Endpoint(0).Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	dst := n1.Endpoint(2)
	waitFor(t, "cross-worker delivery", func() bool { return dst.Pending() == count })
	for i := 0; i < count; i++ {
		want := Message{To: 9, From: 1, Tag: i, Hops: 1, Seq: uint64(i) + 7, Data: []byte{byte(i), 2, 3, 4},
			SendTime: float64(i) * 10, Arrival: float64(i)*10 + n0.Latency().Cost(4), VTime: float64(i)}
		if m := dst.Poll(); !msgEqual(m, &want) {
			t.Fatalf("message %d: got %+v, want %+v", i, *m, want)
		}
	}

	s := n0.Snapshot()
	if s.Sent != count || s.RemotePayloads != count || s.RemoteBytes != count*4 {
		t.Fatalf("sender snapshot: %+v", s)
	}
	if s1 := n1.Snapshot(); s1.RemoteEnvelopes != 0 || s1.Sent != 0 {
		t.Fatalf("receiver snapshot should be clean: %+v", s1)
	}
	st := t0.SocketStats()
	if st.FramesSent != s.RemoteEnvelopes || st.FramesSent == 0 || st.FramesSent > count || (st.WriteSyscalls != 0) != f.syscalls {
		t.Fatalf("link stats (every frame an envelope, no more frames than sends, syscalls only through the kernel): %+v, %d envelopes", st, s.RemoteEnvelopes)
	}
	if r := t1.SocketStats(); r.FramesRecv != st.FramesSent || r.BytesRead != st.BytesWritten {
		t.Fatalf("receiver link stats %+v vs sender %+v", r, st)
	}
}

// contractAggregated drives SendStream traffic across the shard
// boundary: a flushed TRAM bucket is one aggregation envelope, and the
// link carries its payloads in at most as many frames.
func contractAggregated(t *testing.T, f fabric) {
	t0, t1 := f.pair(t, ownerByPair)
	n0, n1 := twoWorkers(t, t0, t1)
	for _, n := range []*Network{n0, n1} {
		for i := 0; i < 8; i++ {
			if err := n.Register(EntityID(100+i), 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	n0.EnableAggregation(AggPolicy{MaxPayloads: 8})
	startBoth(t, t0, t1)

	src := n0.Endpoint(1)
	for i := 0; i < 8; i++ {
		if err := src.SendStream(&Message{To: EntityID(100 + i), From: 1, Data: []byte("abcd")}); err != nil {
			t.Fatal(err)
		}
	}
	dst := n1.Endpoint(3)
	waitFor(t, "aggregated delivery", func() bool { return dst.Pending() == 8 })
	s := n0.Snapshot()
	if s.Envelopes != 1 || s.AggPayloads != 8 {
		t.Fatalf("agg stats: %+v", s)
	}
	if s.RemotePayloads != 8 || s.RemoteEnvelopes == 0 || s.RemoteEnvelopes > 8 {
		t.Fatalf("the link must carry all 8 payloads in at most 8 envelopes: %+v", s)
	}
	if st := t0.SocketStats(); st.FramesSent != s.RemoteEnvelopes {
		t.Fatalf("link frames: %+v", st)
	}
}

// contractForward moves an entity across the shard boundary
// mid-stream: a message arriving at the old owner must chase it over
// the link via Endpoint.Forward.
func contractForward(t *testing.T, f fabric) {
	t0, t1 := f.pair(t, ownerByPair)
	n0, n1 := twoWorkers(t, t0, t1)
	base := PinnedEntity | EntityID(1<<20)
	for _, n := range []*Network{n0, n1} {
		if err := n.RegisterRange(base, []int{1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	startBoth(t, t0, t1)

	// A message is sent while worker 1's directory still says PE 1...
	msg := &Message{To: base, From: 99, Data: []byte("chase me"), SendTime: 5}
	if err := n1.Endpoint(2).Send(msg); err != nil {
		t.Fatal(err)
	}
	old := n0.Endpoint(1)
	waitFor(t, "first hop", func() bool { return old.Pending() == 1 })
	got := old.Poll()

	// ...then the entity moves to PE 3 (worker 1) on both directories,
	// and the old owner forwards the straggler back across the link.
	for _, n := range []*Network{n0, n1} {
		if err := n.MoveRangeBatch(base, []RangeMove{{Index: 0, To: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Forward(got); err != nil {
		t.Fatal(err)
	}
	dst := n1.Endpoint(3)
	waitFor(t, "forwarded delivery", func() bool { return dst.Pending() == 1 })
	m := dst.Poll()
	if m.Hops != 2 || string(m.Data) != "chase me" {
		t.Fatalf("forwarded message: hops %d, data %q", m.Hops, m.Data)
	}
	if s := n0.Snapshot(); s.Forwards != 1 {
		t.Fatalf("forward count on worker 0: %+v", s)
	}
}

// contractControl checks control frames share the link FIFO with
// envelopes: data sent before a control frame is readable before the
// handler sees it.
func contractControl(t *testing.T, f fabric) {
	t0, t1 := f.pair(t, ownerByPair)
	n0, n1 := twoWorkers(t, t0, t1)
	for _, n := range []*Network{n0, n1} {
		if err := n.Register(EntityID(5), 0); err != nil {
			t.Fatal(err)
		}
	}
	var log ctrlLog
	t0.SetControlHandler(log.handle)
	startBoth(t, t0, t1)

	if err := n1.Endpoint(3).Send(&Message{To: 5, From: 2, Data: []byte("d")}); err != nil {
		t.Fatal(err)
	}
	if err := t1.SendControl(0, 7, []byte("done")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "control frame", func() bool { return len(log.snapshot()) == 1 })
	if n0.Endpoint(0).Pending() != 1 {
		t.Fatal("envelope must precede the control frame in link FIFO")
	}
	if got := log.snapshot()[0]; got != "1/7/done" {
		t.Fatalf("control frame: %q", got)
	}
}

func TestSocketTransportSend(t *testing.T)       { contractSend(t, unixFabric) }
func TestShmTransportSend(t *testing.T)          { contractSend(t, shmFabric) }
func TestSocketTransportAggregated(t *testing.T) { contractAggregated(t, unixFabric) }
func TestShmTransportAggregated(t *testing.T)    { contractAggregated(t, shmFabric) }
func TestSocketTransportForward(t *testing.T)    { contractForward(t, unixFabric) }
func TestShmTransportForward(t *testing.T)       { contractForward(t, shmFabric) }
func TestSocketTransportControl(t *testing.T)    { contractControl(t, unixFabric) }
func TestShmTransportControl(t *testing.T)       { contractControl(t, shmFabric) }

// TestTransportContract holds the lifecycle half of the contract,
// fabric × case.
func TestTransportContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(*testing.T, fabric)
	}{
		{"ControlOnly", contractControlOnly},
		{"SendAfterClose", contractSendAfterClose},
		{"ConcurrentClose", contractConcurrentClose},
		{"BadFrameRecyclesBuffer", contractBadFrameRecyclesBuffer},
		{"PeerClosedCleanly", contractPeerClosedCleanly},
		{"PeerDiedMidFrame", contractPeerDiedMidFrame},
		{"PeerHungUpWithoutBye", contractPeerHungUpWithoutBye},
		{"PayloadSizes", contractPayloadSizes},
		{"Coalesced", contractCoalesced},
		{"MessageTooLarge", contractMessageTooLarge},
	}
	for _, f := range fabrics {
		for _, c := range cases {
			t.Run(f.name+"/"+c.name, func(t *testing.T) { c.run(t, f) })
		}
	}
}

// contractPayloadSizes sends payloads on both sides of InlineBytes
// across the link, two direct and then two through one TRAM flush, and
// checks every field and byte of each decoded message: a payload of at
// most InlineBytes lands inside its message, a longer one in the
// envelope's arena, each capped at its own length.
func contractPayloadSizes(t *testing.T, f fabric) {
	t0, t1 := f.pair(t, ownerByPair)
	n0, n1 := twoWorkers(t, t0, t1)
	for _, n := range []*Network{n0, n1} {
		if err := n.Register(EntityID(9), 2); err != nil {
			t.Fatal(err)
		}
	}
	n0.EnableAggregation(AggPolicy{MaxPayloads: 2})
	startBoth(t, t0, t1)

	sizes := []int{InlineBytes, InlineBytes + 1, InlineBytes, InlineBytes + 1}
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, sizes[i]) }
	src := n0.Endpoint(0)
	for i := range sizes {
		msg := &Message{To: 9, From: 1, Tag: i, Data: payload(i), SendTime: float64(i) * 10, VTime: float64(i) + 0.5, Seq: uint64(i + 1)}
		send := src.Send
		if i >= 2 {
			send = src.SendStream
		}
		if err := send(msg); err != nil {
			t.Fatal(err)
		}
	}
	dst := n1.Endpoint(2)
	waitFor(t, "cross-worker delivery", func() bool { return dst.Pending() == len(sizes) })
	for i, n := range sizes {
		m := dst.Poll()
		arrival := float64(i)*10 + n0.Latency().Cost(n)
		if i >= 2 { // the coalesced envelope leaves with its last payload
			arrival = 30 + n0.Latency().Cost(sizes[2]+sizes[3])
		}
		want := Message{To: 9, From: 1, Tag: i, Hops: 1, SendTime: float64(i) * 10,
			Arrival: arrival, VTime: float64(i) + 0.5, Seq: uint64(i + 1), Data: payload(i)}
		if !msgEqual(m, &want) {
			t.Fatalf("message %d (%d B): got %+v, want %+v", i, n, *m, want)
		}
		if cap(m.Data) != n {
			t.Errorf("message %d: payload capacity %d, want %d", i, cap(m.Data), n)
		}
		if inline := &m.Data[0] == &m.inline[0]; inline != (n <= InlineBytes) {
			t.Errorf("message %d (%d B): payload inside the message = %v", i, n, inline)
		}
	}
	if s := n0.Snapshot(); s.RemoteEnvelopes == 0 || s.RemoteEnvelopes > 4 || s.RemotePayloads != 4 {
		t.Fatalf("want four payloads in at most four envelopes: %+v", s)
	}
}

// coalescedMsg is message i of sender s in contractCoalesced: every
// field distinct, float64s with arbitrary bit patterns, payloads on
// both sides of InlineBytes.
func coalescedMsg(s, i int) *Message {
	bits := func(k uint64) float64 { return math.Float64frombits(uint64(s*1_000_003+i)*0x9e3779b97f4a7c15 + k) }
	data := make([]byte, (i*7+s)%40)
	for j := range data {
		data[j] = byte(s + i + j)
	}
	return &Message{To: EntityID(s)<<32 | EntityID(i), From: EntityID(s), Tag: i, Hops: s - i, Seq: uint64(i) << 3,
		SendTime: bits(1), Arrival: bits(2), VTime: bits(3), Data: data}
}

// contractCoalesced: two senders stream 10,000 messages each over one
// link, each to its own destination PE of the peer, with control
// frames interleaved. Every field arrives bit-exact, each (sender,
// destination PE) stream in order, each control frame after every
// message accepted before it — and the link carries all of it in
// fewer than one frame per 16 messages.
func contractCoalesced(t *testing.T, f fabric) {
	t0, t1 := f.pair(t, ownerByPair)
	n0, n1 := twoWorkers(t, t0, t1)
	const senders, perSender, ctrlEvery = 2, 10_000, 500
	const total, ctrls = senders * perSender, senders * perSender / ctrlEvery
	delivered := func() int { return n1.Endpoint(2).Pending() + n1.Endpoint(3).Pending() }
	var accepted atomic.Int64
	var ctrlSeen atomic.Int64
	var early ctrlLog
	t1.SetControlHandler(func(from int, kind uint32, payload []byte) {
		if want := binary.LittleEndian.Uint64(payload); uint64(delivered()) < want {
			early.handle(from, kind, []byte(fmt.Sprintf("%d of %d accepted messages delivered", delivered(), want)))
		}
		ctrlSeen.Add(1)
	})
	startBoth(t, t0, t1)

	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := t0.Deliver(2+s, coalescedMsg(s, i)); err != nil {
					errs <- err
					return
				}
				accepted.Add(1)
				if (i+1)%ctrlEvery == 0 {
					if err := t0.SendControl(1, uint32(s), binary.LittleEndian.AppendUint64(nil, uint64(accepted.Load()))); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitFor(t, "every message and control frame", func() bool { return delivered() == total && ctrlSeen.Load() == ctrls })
	if got := early.snapshot(); len(got) != 0 {
		t.Fatalf("%d control frames overtook accepted messages, the first (from/sender/state): %s", len(got), got[0])
	}
	for s := 0; s < senders; s++ {
		dst := n1.Endpoint(2 + s)
		for i := 0; i < perSender; i++ {
			if m, want := dst.Poll(), coalescedMsg(s, i); !msgEqual(m, want) {
				t.Fatalf("sender %d, message %d: got %+v, want %+v", s, i, *m, *want)
			}
		}
	}
	s, st := n0.Snapshot(), t0.SocketStats()
	if s.RemotePayloads != total || s.RemoteEnvelopes+ctrls != st.FramesSent {
		t.Fatalf("%d payloads in %d envelopes, %d frames sent: want %d payloads and the envelopes plus %d control frames",
			s.RemotePayloads, s.RemoteEnvelopes, st.FramesSent, total, ctrls)
	}
	if st.FramesSent >= total/16 {
		t.Fatalf("%d frames for %d messages: the link did not coalesce", st.FramesSent, total)
	}
	t.Logf("%d messages and %d control frames in %d frames, %d writer passes", total, ctrls, st.FramesSent, st.WriteBatches)
}

// contractMessageTooLarge: a message whose envelope could never fit
// the link's frame limit fails Deliver there and then — not later, on
// the writer — and the link carries on.
func contractMessageTooLarge(t *testing.T, f fabric) {
	t0, t1 := f.pair(t, ownerByPair)
	n0, n1 := twoWorkers(t, t0, t1)
	startBoth(t, t0, t1)
	huge := &Message{To: 9, Data: make([]byte, t0.links[1].limit-envelopeHead-msgWireMin+1)}
	if err := t0.Deliver(2, huge); err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("Deliver of a %d-byte message: %v", len(huge.Data), err)
	}
	fits := coalescedMsg(0, 1)
	if err := t0.Deliver(2, coalescedMsg(0, 1)); err != nil {
		t.Fatal(err)
	}
	dst := n1.Endpoint(2)
	waitFor(t, "the next message", func() bool { return dst.Pending() == 1 })
	if m := dst.Poll(); !msgEqual(m, fits) {
		t.Fatalf("got %+v, want %+v", *m, *fits)
	}
	if s := n0.Snapshot(); s.RemotePayloads != 1 {
		t.Fatalf("the refused message was counted: %+v", s)
	}
}

// contractControlOnly: a transport with no owner and no Network
// carries SendControl both ways, and Deliver on it is a
// named error, not a nil dereference.
func contractControlOnly(t *testing.T, f fabric) {
	t0, t1 := f.pair(t, nil)
	t.Cleanup(func() { closeBoth(t0, t1) })
	var log0, log1 ctrlLog
	t0.SetControlHandler(log0.handle)
	t1.SetControlHandler(log1.handle)
	startBoth(t, t0, t1)

	if err := t0.SendControl(1, 3, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := t1.SendControl(0, 4, []byte("all")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "control frames both ways", func() bool {
		return len(log0.snapshot()) == 1 && len(log1.snapshot()) == 1
	})
	if got := log1.snapshot()[0]; got != "0/3/ping" {
		t.Fatalf("worker 1 got %q", got)
	}
	if got := log0.snapshot()[0]; got != "1/4/all" {
		t.Fatalf("worker 0 got %q", got)
	}
	if err := t0.Deliver(2, &Message{To: 9}); !errors.Is(err, errControlOnly) {
		t.Fatalf("Deliver on a control-only transport: %v", err)
	}
}

// contractSendAfterClose: everything accepted before Close reaches the
// peer, and a send after it is rejected instead of silently dropped.
func contractSendAfterClose(t *testing.T, f fabric) {
	t0, t1 := f.pair(t, ownerByPair)
	n0, n1 := twoWorkers(t, t0, t1)
	for _, n := range []*Network{n0, n1} {
		if err := n.Register(EntityID(5), 0); err != nil {
			t.Fatal(err)
		}
	}
	var log ctrlLog
	t0.SetControlHandler(log.handle)
	startBoth(t, t0, t1)

	const count = 200
	for i := 0; i < count; i++ {
		if err := t1.SendControl(0, uint32(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := t1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := t1.SendControl(0, 1, nil); !errors.Is(err, errLinkClosed) {
		t.Fatalf("SendControl after Close: %v", err)
	}
	if err := t1.Deliver(0, &Message{To: 5}); !errors.Is(err, errLinkClosed) {
		t.Fatalf("Deliver after Close: %v", err)
	}
	waitFor(t, "frames accepted before Close", func() bool { return len(log.snapshot()) == count })
	for i, got := range log.snapshot() {
		if want := fmt.Sprintf("1/%d/", i); got != want {
			t.Fatalf("frame %d: got %q want %q", i, got, want)
		}
	}
}

// contractConcurrentClose: two workers closing at the same moment,
// with frames still in flight both ways, must both return.
func contractConcurrentClose(t *testing.T, f fabric) {
	t0, t1 := f.pair(t, nil)
	startBoth(t, t0, t1)
	payload := make([]byte, 1024)
	for i := 0; i < 32; i++ {
		if err := t0.SendControl(1, 1, payload); err != nil {
			t.Fatal(err)
		}
		if err := t1.SendControl(0, 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 2)
	for _, tr := range []*LinkTransport{t0, t1} {
		go func() { closed <- tr.Close() }()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-closed:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("concurrent Close deadlocked")
		}
	}
}

// smallBufsFree counts the recycled buffers parked in the smallest
// size class (requests up to 64 bytes).
func smallBufsFree() int {
	c := &bufClasses[bufMinShift]
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.free)
}

// contractBadFrameRecyclesBuffer: a frame that fails dispatch ends the
// reader, and the read buffer still goes back to the pool.
func contractBadFrameRecyclesBuffer(t *testing.T, f fabric) {
	t0, t1 := f.pair(t, nil)
	t.Cleanup(func() { closeBoth(t0, t1) })
	var faults faultLog
	faults.watch(t0) // the fault below is recorded instead of panicking
	startBoth(t, t0, t1)

	// Frame and read buffer both come from the 64-byte class; spares
	// are parked first so gets and puts both move its free count.
	const body = 40
	for i := 0; i < 4; i++ {
		putBuf(make([]byte, 0, 1<<bufMinShift))
	}
	before := smallBufsFree()
	frame := appendU32(getBuf(4+body), body)
	frame = append(frame, 0x7f) // no such frame type
	frame = append(frame, make([]byte, body-1)...)
	if err := t1.send(0, frame); err != nil {
		t.Fatal(err)
	}
	t0.readers.Wait() // the reader gives up on the bad frame
	waitFor(t, "both buffers back in the pool", func() bool { return smallBufsFree() == before })
	if errs := faults.snapshot(); len(errs) != 1 {
		t.Fatalf("bad frame: faults %v, want exactly one", errs)
	}
}

// contractPeerClosedCleanly: a peer that closes first ends the link in
// good order. Every frame it sent is delivered, then this side's
// reader ends by itself, with no fault, before this side closes.
func contractPeerClosedCleanly(t *testing.T, f fabric) {
	t0, t1 := f.pair(t, nil)
	var log ctrlLog
	var faults faultLog
	t0.SetControlHandler(log.handle)
	faults.watch(t0)
	startBoth(t, t0, t1)
	const count = 64
	for i := 0; i < count; i++ {
		if err := t1.SendControl(0, uint32(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := t1.Close(); err != nil {
		t.Fatal(err)
	}
	t0.readers.Wait() // the reader ends on the BYE'd hang-up, unprompted
	if got := len(log.snapshot()); got != count {
		t.Fatalf("delivered %d of %d frames before the hang-up", got, count)
	}
	if errs := faults.snapshot(); len(errs) != 0 {
		t.Fatalf("orderly close reported as faults: %v", errs)
	}
	if err := t0.Close(); err != nil {
		t.Fatal(err)
	}
}

// contractPeerDiedMidFrame: a peer that dies halfway through a frame
// is a link fault, even though the frames before it were delivered.
func contractPeerDiedMidFrame(t *testing.T, f fabric) {
	torn := appendU32(nil, 100)
	torn = append(torn, frameControl, 1, 2, 3)
	// A ring names the torn frame itself; a socket reads it as an
	// unexpected EOF.
	want := map[string]string{"unix": "unexpected EOF", "shm": "torn"}[f.name]
	peerDied(t, f, torn, want)
}

// contractPeerHungUpWithoutBye: a hang-up at a frame boundary is still
// a fault when no BYE came first — a dead worker, not a finished one.
func contractPeerHungUpWithoutBye(t *testing.T, f fabric) {
	peerDied(t, f, nil, "without BYE")
}

// peerDied sends one whole frame from worker 1, kills its link with
// partial as the last bytes, and checks worker 0 records exactly one
// fault mentioning want.
func peerDied(t *testing.T, f fabric, partial []byte, want string) {
	t0, t1 := f.pair(t, nil)
	t.Cleanup(func() { closeBoth(t0, t1) })
	var log ctrlLog
	var faults, peerFaults faultLog
	t0.SetControlHandler(log.handle)
	faults.watch(t0)
	peerFaults.watch(t1) // the dead side's own reader errors are noise
	startBoth(t, t0, t1)
	if err := t1.SendControl(0, 9, []byte("last words")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the whole frame", func() bool { return len(log.snapshot()) == 1 })
	f.die(t1, partial)
	t0.readers.Wait()
	errs := faults.snapshot()
	if len(errs) != 1 {
		t.Fatalf("faults %v, want exactly one", errs)
	}
	if !strings.Contains(errs[0].Error(), want) {
		t.Fatalf("fault %q does not mention %q", errs[0], want)
	}
}

// TestAbortIsAPeerFault: Abort flushes every frame it accepted, then
// hangs up without BYE, so the peer takes a link fault, as it would
// the process's death.
func TestAbortIsAPeerFault(t *testing.T) {
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			t0, t1 := f.pair(t, nil)
			t.Cleanup(func() { closeBoth(t0, t1) })
			var log ctrlLog
			var faults faultLog
			t0.SetControlHandler(log.handle)
			faults.watch(t0)
			startBoth(t, t0, t1)
			if err := t1.SendControl(0, 9, []byte("last words")); err != nil {
				t.Fatal(err)
			}
			if err := t1.Abort(); err != nil {
				t.Fatal(err)
			}
			t0.readers.Wait()
			if got := len(log.snapshot()); got != 1 {
				t.Fatalf("delivered %d of 1 frames before the hang-up", got)
			}
			if errs := faults.snapshot(); len(errs) != 1 || !strings.Contains(errs[0].Error(), "without BYE") {
				t.Fatalf("faults %v, want one hang-up without BYE", errs)
			}
		})
	}
}

// TestSockLinkReadHostile feeds the socket link's reader forged
// prefixes and truncated frames: each must be an error, and a forged
// length must be rejected before any buffer is sized from it.
func TestSockLinkReadHostile(t *testing.T) {
	u32 := func(n uint32, rest ...byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, n), rest...)
	}
	cases := []struct {
		name string
		img  []byte
	}{
		{"empty stream", nil},
		{"torn prefix", []byte{9, 0}},
		{"zero length", u32(0)},
		{"length past the cap", u32(maxFrameLen + 1)},
		{"length max u32", u32(0xffffffff, 1, 2, 3)},
		{"truncated body", u32(100, frameControl, 1, 2, 3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := &sockLink{br: bufio.NewReader(bytes.NewReader(tc.img))}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			buf, err := l.read()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("hostile stream accepted: %d-byte frame", len(buf))
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("reader allocated %d bytes on a hostile prefix", grew)
			}
		})
	}
	// And a well-formed frame still reads.
	l := &sockLink{br: bufio.NewReader(bytes.NewReader(u32(3, frameControl, 7, 8)))}
	buf, err := l.read()
	if err != nil || !bytes.Equal(buf, []byte{frameControl, 7, 8}) {
		t.Fatalf("valid frame: %v %v", buf, err)
	}
	putBuf(buf)
}
