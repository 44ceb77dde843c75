package ampi

import (
	"bytes"
	"fmt"
	"testing"
)

func TestBcast(t *testing.T) {
	const ranks = 5
	got := make([][]byte, ranks)
	runProg(t, 2, ranks, Options{}, Bcast(2,
		func(*PC) []byte { return []byte("from root two") },
		func(pc *PC, b []byte) { got[pc.Rank()] = b }))
	for rk, d := range got {
		if string(d) != "from root two" {
			t.Errorf("rank %d got %q", rk, d)
		}
	}
}

// TestBcastBadRoot: a collective rooted outside the job is a program
// bug, reported by name when the rank starts it.
func TestBcastBadRoot(t *testing.T) {
	got := runPanics(t, 1, Bcast(5, func(*PC) []byte { return nil }, nil))
	wantPanic(t, "Bcast(5) on 1 rank", got, "Bcast root 5 of 1")
}

func TestReduceAtRoot(t *testing.T) {
	const ranks = 6
	rootGot, calls := -1.0, 0
	runProg(t, 2, ranks, Options{}, Reduce(0, "max",
		func(pc *PC) float64 { return float64(pc.Rank() * 10) },
		func(pc *PC, v float64) {
			calls++
			if pc.Rank() != 0 {
				t.Errorf("non-root rank %d got %g", pc.Rank(), v)
			}
			rootGot = v
		}))
	if rootGot != 50 || calls != 1 {
		t.Errorf("root max = %g after %d deliveries, want 50 once", rootGot, calls)
	}
}

func TestGatherScatter(t *testing.T) {
	const ranks = 4
	var gathered [][]byte
	scattered := make([]string, ranks)
	runProg(t, 3, ranks, Options{}, Seq(
		// Gather rank names at root 1.
		Gather(1, func(pc *PC) []byte { return []byte(fmt.Sprintf("rank-%d", pc.Rank())) },
			func(_ *PC, parts [][]byte) { gathered = parts }),
		// Scatter chunks from root 1.
		Scatter(1, func(pc *PC) [][]byte {
			var chunks [][]byte
			for i := 0; i < pc.Size(); i++ {
				chunks = append(chunks, []byte(fmt.Sprintf("chunk-%d", i)))
			}
			return chunks
		}, func(pc *PC, c []byte) { scattered[pc.Rank()] = string(c) }),
	))
	if len(gathered) != ranks {
		t.Fatalf("gathered %d", len(gathered))
	}
	for i, d := range gathered {
		if string(d) != fmt.Sprintf("rank-%d", i) {
			t.Errorf("gathered[%d] = %q", i, d)
		}
	}
	for i := 0; i < ranks; i++ {
		if scattered[i] != fmt.Sprintf("chunk-%d", i) {
			t.Errorf("scattered[%d] = %q", i, scattered[i])
		}
	}
}

// TestScatterValidation: a root whose chunk list does not hold one
// chunk per rank stops the job, by name.
func TestScatterValidation(t *testing.T) {
	got := runPanics(t, 2, Scatter(0, func(*PC) [][]byte { return [][]byte{{1}} }, nil))
	wantPanic(t, "Scatter with 1 chunk for 2 ranks", got, "Scatter: 1 chunks for 2 ranks")
}

func TestAlltoall(t *testing.T) {
	const ranks = 4
	results := make([][][]byte, ranks)
	runProg(t, 2, ranks, Options{}, Alltoall(func(pc *PC) [][]byte {
		chunks := make([][]byte, pc.Size())
		for i := range chunks {
			chunks[i] = []byte(fmt.Sprintf("%d->%d", pc.Rank(), i))
		}
		return chunks
	}, func(pc *PC, out [][]byte) { results[pc.Rank()] = out }))
	for rk := 0; rk < ranks; rk++ {
		for from := 0; from < ranks; from++ {
			want := fmt.Sprintf("%d->%d", from, rk)
			if string(results[rk][from]) != want {
				t.Errorf("rank %d from %d = %q, want %q", rk, from, results[rk][from], want)
			}
		}
	}
}

// TestSendrecvRing is the halo-exchange pattern Sendrecv names, with
// per-rank peers: an eager send to the next rank, then a blocking
// receive from the previous one, is deadlock-free on a ring.
func TestSendrecvRing(t *testing.T) {
	const ranks = 5
	froms := make([]int, ranks)
	runProg(t, 2, ranks, Options{}, Seq(
		Do(func(pc *PC) { pc.Send((pc.Rank()+1)%ranks, 3, []byte{byte(pc.Rank())}) }),
		RecvFrom(func(pc *PC) int { return (pc.Rank() + ranks - 1) % ranks }, 3,
			func(pc *PC, data []byte, from int) {
				if int(data[0]) != from {
					t.Errorf("rank %d payload %d from %d", pc.Rank(), data[0], from)
				}
				froms[pc.Rank()] = from
			}),
	))
	for rk, from := range froms {
		if from != (rk+ranks-1)%ranks {
			t.Errorf("rank %d got from %d", rk, from)
		}
	}
}

// TestNonblocking: an eager Isend is complete at once; an Irecv posted
// before compute completes at Waitall, and waiting again changes
// nothing.
func TestNonblocking(t *testing.T) {
	var first []byte
	reqs := func(pc *PC) []*Req { return pc.Local.(*mixState).reqs }
	runProg(t, 2, 2, Options{}, Seq(
		Do(func(pc *PC) {
			var q *Req
			if pc.Rank() == 0 {
				if q = pc.Isend(1, 9, []byte("overlapped")); !q.Done() {
					t.Error("eager Isend should be complete")
				}
			} else {
				q = pc.Irecv(0, 9)
				pc.Work(1000) // "overlap" computation
			}
			pc.Local = &mixState{reqs: []*Req{q}}
		}),
		Waitall(reqs),
		Do(func(pc *PC) {
			if q := reqs(pc)[0]; pc.Rank() == 1 {
				if !q.Done() || string(q.Data) != "overlapped" || q.From != 0 {
					t.Errorf("Waitall = %v/%q/%d", q.Done(), q.Data, q.From)
				}
				first = q.Data
			}
		}),
		// Waiting again returns the same completed result.
		Waitall(reqs),
		Do(func(pc *PC) {
			if q := reqs(pc)[0]; pc.Rank() == 1 && !bytes.Equal(q.Data, first) {
				t.Error("second Waitall changed the result")
			}
		}),
	))
}

// TestNonblockingValidation: program sends and receives take user tags
// only, and a negative one panics by name.
func TestNonblockingValidation(t *testing.T) {
	runProg(t, 1, 2, Options{}, Do(func(pc *PC) {
		if pc.Rank() != 0 {
			return
		}
		wantPanic(t, "Isend tag -1", panicOf(func() { pc.Isend(1, -1, nil) }), "Isend tag -1")
		wantPanic(t, "Irecv tag -5", panicOf(func() { pc.Irecv(0, -5) }), "Irecv tag -5")
	}))
}

// TestIrecvTestBeforeArrival: a posted receive is not done before its
// message exists, and completes at Waitall once the peer sends.
func TestIrecvTestBeforeArrival(t *testing.T) {
	reqs := func(pc *PC) []*Req { return pc.Local.(*mixState).reqs }
	runProg(t, 2, 2, Options{}, Seq(
		Do(func(pc *PC) {
			pc.Local = &mixState{}
			if pc.Rank() == 1 {
				q := pc.Irecv(0, 4)
				if q.Done() {
					t.Error("Irecv done before any message")
				}
				pc.Local.(*mixState).reqs = []*Req{q}
				pc.Send(0, 5, nil) // tell rank 0 to send, then wait
			}
		}),
		RecvEach(func(pc *PC) []int {
			if pc.Rank() == 0 {
				return []int{1}
			}
			return nil
		}, 5, func(pc *PC, _ []byte, _ int) { pc.Send(1, 4, []byte("now")) }),
		Waitall(reqs),
		Do(func(pc *PC) {
			if pc.Rank() == 1 {
				if q := reqs(pc)[0]; !q.Done() || string(q.Data) != "now" {
					t.Errorf("Waitall = %v/%q", q.Done(), q.Data)
				}
			}
		}),
	))
}
