package comm

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
	"testing"
	"unsafe"
)

// The ring-specific tests: everything the contract suite
// (transport_test.go) cannot reach because it depends on a ring's
// size, layout or mapped image.

// TestShmTransportWrapAround drives far more bytes than the ring
// holds through a deliberately tiny ring, so the cursors wrap many
// times and frames straddle the boundary — order and content must
// survive, with the writer blocking (not corrupting) when full.
func TestShmTransportWrapAround(t *testing.T) {
	t0, t1 := shmPair(t, ownerByPair, shmMinRing)
	n0, n1 := twoWorkers(t, t0, t1)
	for _, n := range []*Network{n0, n1} {
		if err := n.Register(EntityID(9), 2); err != nil {
			t.Fatal(err)
		}
	}
	startBoth(t, t0, t1)

	const count = 500
	payload := make([]byte, 100) // ~172-byte frames vs a 4 KiB ring
	done := make(chan error, 1)
	go func() {
		for i := 0; i < count; i++ {
			for j := range payload {
				payload[j] = byte(i + j)
			}
			if err := n0.Endpoint(0).Send(&Message{To: 9, From: 1, Tag: i, Data: payload}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	dst := n1.Endpoint(2)
	for i := 0; i < count; i++ {
		waitFor(t, "wrapped delivery", func() bool { return dst.Pending() > 0 })
		m := dst.Poll()
		if m.Tag != i {
			t.Fatalf("out of order after wrap: tag %d at %d", m.Tag, i)
		}
		for j, b := range m.Data {
			if b != byte(i+j) {
				t.Fatalf("frame %d corrupted at byte %d: %d != %d", i, j, b, byte(i+j))
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestShmFrameTooLarge checks a frame that cannot ever fit the ring
// is rejected instead of deadlocking the writer.
func TestShmFrameTooLarge(t *testing.T) {
	t0, t1 := shmPair(t, nil, shmMinRing)
	t.Cleanup(func() { closeBoth(t0, t1) })
	startBoth(t, t0, t1)
	if err := t0.SendControl(1, 9, make([]byte, 2*shmMinRing)); err == nil {
		t.Fatal("oversized frame must be rejected")
	}
}

// heapRing builds a shmRing over process memory (no file, no mmap) so
// hostile-image tests and the fuzz target can scribble on it cheaply.
// Backed by a []uint64 so the header atomics are aligned.
func heapRing(capacity int) *shmRing {
	words := make([]uint64, (shmHdrSize+capacity)/8)
	mem := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
	return &shmRing{
		mem:      mem,
		data:     mem[shmHdrSize:],
		capacity: uint64(capacity),
		head:     (*atomic.Uint64)(unsafe.Pointer(&mem[shmOffHead])),
		tail:     (*atomic.Uint64)(unsafe.Pointer(&mem[shmOffTail])),
		wclosed:  (*atomic.Uint32)(unsafe.Pointer(&mem[shmOffWCl])),
		rclosed:  (*atomic.Uint32)(unsafe.Pointer(&mem[shmOffRCl])),
	}
}

// publishRaw plants raw bytes as the ring's published region without
// any framing discipline — the hostile writer.
func publishRaw(r *shmRing, img []byte) {
	copy(r.data, img)
	r.head.Store(0)
	r.tail.Store(uint64(len(img)))
}

// TestShmRingHostile mirrors TestWireHostile for the ring framing:
// torn headers, zero-length frames, oversized claims, and claims
// beyond the published region must all error cleanly — never panic,
// never allocate beyond the claim ceiling.
func TestShmRingHostile(t *testing.T) {
	cases := []struct {
		name string
		img  []byte
	}{
		{"torn header 1B", []byte{7}},
		{"torn header 3B", []byte{7, 0, 0}},
		{"zero length", []byte{0, 0, 0, 0}},
		{"claim beyond published", []byte{200, 0, 0, 0, 1, 2, 3}},
		{"claim exceeds ring", binary.LittleEndian.AppendUint32(nil, uint32(shmMinRing))},
		{"claim max u32", []byte{0xff, 0xff, 0xff, 0xff}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := heapRing(shmMinRing)
			publishRaw(r, tc.img)
			if _, ok, err := r.readFrame(); err == nil {
				t.Fatalf("hostile image accepted (ok=%v)", ok)
			}
		})
	}
}

// TestShmRingRoundTrip pushes frames through a tiny heap ring across
// the wrap boundary and pops them back bit-for-bit.
func TestShmRingRoundTrip(t *testing.T) {
	r := heapRing(shmMinRing)
	frame := func(i, n int) []byte {
		f := binary.LittleEndian.AppendUint32(nil, uint32(1+n))
		f = append(f, frameControl)
		for j := 0; j < n; j++ {
			f = append(f, byte(i+j))
		}
		return f
	}
	next := 0
	popped := 0
	for popped < 200 {
		for next-popped < 8 && r.tryPush(frame(next, 101+next%53)) {
			next++
		}
		buf, ok, err := r.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("ring empty with %d un-popped", next-popped)
		}
		want := frame(popped, 101+popped%53)[4:]
		if !bytes.Equal(buf, want) {
			t.Fatalf("frame %d mismatch", popped)
		}
		putBuf(buf)
		popped++
	}
}

// FuzzShmFrame drives arbitrary published images through readFrame:
// whatever the bytes claim, the reader must either pop a frame whose
// length matches its header or error — no panic, no runaway
// allocation, and the cursor never runs past the published region.
func FuzzShmFrame(f *testing.F) {
	f.Add([]byte{5, 0, 0, 0, 1, 9, 9, 9, 9})          // one valid 5-byte frame
	f.Add([]byte{1, 0, 0, 0, 2, 1, 0, 0, 0, 2})       // two minimal frames
	f.Add([]byte{0, 0, 0, 0})                         // zero length
	f.Add([]byte{255, 255, 255, 255, 1, 2, 3})        // hostile length
	f.Add(binary.LittleEndian.AppendUint32(nil, 800)) // claim > published
	f.Fuzz(func(t *testing.T, img []byte) {
		const capacity = 1 << 10
		if len(img) > capacity {
			img = img[:capacity]
		}
		r := heapRing(capacity)
		publishRaw(r, img)
		for {
			buf, ok, err := r.readFrame()
			if err != nil {
				return // rejected cleanly
			}
			if !ok {
				if got := r.readable(); got != 0 {
					t.Fatalf("reader stopped with %d bytes published", got)
				}
				return
			}
			if len(buf) == 0 || len(buf) > capacity-4 {
				t.Fatalf("popped frame of %d bytes", len(buf))
			}
			if r.head.Load() > r.tail.Load() {
				t.Fatal("head ran past tail")
			}
			putBuf(buf)
		}
	})
}
