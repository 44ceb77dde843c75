package ampi

import (
	"math"
	"strings"
	"testing"

	"migflow/internal/comm"
	"migflow/internal/core"
)

// directLink is the transport of a two-process job whose halves live
// in one test process: a remote envelope goes straight into the peer
// network's inbox, so both halves run deterministically on the test
// goroutine.
type directLink struct{ peer *comm.Network }

func (l directLink) Deliver(pe int, msgs []*comm.Message) error { return l.peer.DeliverLocal(pe, msgs) }
func (directLink) Close() error                                 { return nil }

// shardPair builds prog as a 4-rank event job split over two machines:
// a owns PEs 0–1 (ranks 0 and 1), b owns PEs 2–3 (ranks 2 and 3).
func shardPair(t *testing.T, opts Options, prog Proc) (a, b *Job) {
	t.Helper()
	var ms [2]*core.Machine
	for i := range ms {
		m, err := core.NewMachine(core.Config{NumPEs: 4, LocalPELo: 2 * i, LocalPEHi: 2*i + 2})
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	var jobs [2]*Job
	for i, m := range ms {
		if err := m.Network().SetTransport(directLink{ms[1-i].Network()}, 2*i, 2*i+2); err != nil {
			t.Fatal(err)
		}
		j, err := NewProgram(m, 4, opts, prog)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	return jobs[0], jobs[1]
}

// refuseInsideCollective parks rank 0 of a sharded job inside the
// blocking collective name, waiting for want from rank 2 (which lives
// in the other half and has not started). The rank must be reported
// unshippable and ShardExtract must refuse it by naming the site.
// After the refusal the two halves run to completion, and every
// rank's VT and observed result must be bit-identical to an unsharded
// run of the same program.
func refuseInsideCollective(t *testing.T, name string, want matchSpec, prog func(sink []float64) Proc) {
	opts := Options{Mode: ModeEvent, MsgOverheadNs: 250}
	ref := make([]float64, 4)
	m := newMachine(t, 4, nil)
	rj, err := NewProgram(m, 4, opts, prog(ref))
	if err != nil {
		t.Fatal(err)
	}
	rj.Run()
	if !rj.Done() {
		t.Fatal("unsharded reference did not complete")
	}

	sink := make([]float64, 4)
	a, b := shardPair(t, opts, prog(sink))
	a.Start()
	a.m.RunUntilQuiescent()
	if er := &a.ev.store()[0]; er.waiting != want {
		t.Fatalf("rank 0 waits for %+v, want %+v", er.waiting, want)
	}
	if a.ShardMigratable(0) {
		t.Errorf("ShardMigratable(0) = true for a rank parked inside %s", name)
	}
	if data, err := a.ShardExtract(0, 2); err == nil {
		// What a migration driver does with an accepted record: the rank
		// resumes in the other process.
		t.Errorf("ShardExtract accepted rank 0 parked inside %s", name)
		if _, err := b.ShardInstall(data); err != nil {
			t.Fatal(err)
		}
	} else if msg := "rank 0 inside collective " + name; !strings.Contains(err.Error(), msg) {
		t.Fatalf("ShardExtract error %q, want it to contain %q", err, msg)
	}

	b.Start()
	for i := 0; !a.Done() || !b.Done(); i++ {
		if i == 100 {
			t.Fatal("sharded halves did not complete")
		}
		b.m.RunUntilQuiescent()
		a.m.RunUntilQuiescent()
	}
	for r := 0; r < 4; r++ {
		owner := a
		if b.ShardOwns(r) {
			owner = b
		}
		if got, want := math.Float64bits(owner.VT(r)), math.Float64bits(rj.VT(r)); got != want {
			t.Errorf("rank %d VT %#x, unsharded %#x", r, got, want)
		}
		if sink[r] != ref[r] {
			t.Errorf("rank %d observed %v, unsharded %v", r, sink[r], ref[r])
		}
	}
}

// TestShardRefusesRankInsideAlltoall: rank 0 hears from rank 1 and
// parks inside Alltoall waiting for rank 2. Its received chunks are
// collective state no record carries, so it must not cross.
func TestShardRefusesRankInsideAlltoall(t *testing.T) {
	refuseInsideCollective(t, "Alltoall", matchSpec{2, tagAlltoall}, func(sink []float64) Proc {
		return Seq(
			Do(func(pc *PC) { pc.Work(100 * float64(pc.Rank()+1)) }),
			Alltoall(func(pc *PC) [][]byte {
				chunks := make([][]byte, pc.Size())
				for i := range chunks {
					chunks[i] = f64bytes(float64(10*pc.Rank() + i))
				}
				return chunks
			}, func(pc *PC, parts [][]byte) {
				for from, p := range parts {
					sink[pc.Rank()] += f64(p) * float64(from+1)
				}
			}),
		)
	})
}

// TestShardRefusesRankInsideScatter: non-root rank 0 parks inside
// Scatter waiting for root 2's chunk.
func TestShardRefusesRankInsideScatter(t *testing.T) {
	refuseInsideCollective(t, "Scatter", matchSpec{2, tagScatter}, func(sink []float64) Proc {
		return Seq(
			Do(func(pc *PC) { pc.Work(100 * float64(pc.Rank()+1)) }),
			Scatter(2, func(pc *PC) [][]byte {
				chunks := make([][]byte, pc.Size())
				for i := range chunks {
					chunks[i] = f64bytes(float64(7 * (i + 1)))
				}
				return chunks
			}, func(pc *PC, data []byte) { sink[pc.Rank()] = f64(data) }),
		)
	})
}
