package ampi

import (
	"math"
	"testing"

	"migflow/internal/comm"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
)

// directLink is the transport of a two-process job whose halves live
// in one test process: a remote envelope goes straight into the peer
// network's inbox, so both halves run deterministically on the test
// goroutine.
type directLink struct{ peer *comm.Network }

func (l directLink) Deliver(pe int, msg *comm.Message) error {
	return l.peer.DeliverLocal(pe, []*comm.Message{msg})
}
func (directLink) Close() error { return nil }

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

// runPEs drives only the given PEs of m until none of them can make
// progress: ranks placed elsewhere never start, and messages to them
// wait in their PEs' inboxes.
func runPEs(m *core.Machine, pes ...int) {
	for progress := true; progress; {
		progress = false
		for _, p := range pes {
			if m.Pump(p) > 0 {
				progress = true
			}
			if m.PE(p).Sched.ReadyLen() > 0 {
				m.PE(p).Sched.RunUntilIdle()
				progress = true
			}
		}
	}
}

// blockingPoint is a 4-rank program in which rank 0, running with rank
// 1 while ranks 2 and 3 have not started, parks at one blocking point
// waiting for rank 2 (want; zero at the LB gate). Every rank folds what
// it observes into sink.
type blockingPoint struct {
	name string
	want matchSpec
	prog func(sink []float64) Proc
}

// blockingPoints lists one program per blocking point a record must
// describe: the three receives, Waitall, the LB gate, and the seven
// collective kinds with the start done and the wait parked.
func blockingPoints() []blockingPoint {
	skew := Do(func(pc *PC) { pc.Work(100 * float64(pc.Rank()+1)) })
	acc := func(sink []float64) func(*PC, float64) {
		return func(pc *PC, v float64) { sink[pc.Rank()] = sink[pc.Rank()]*0.5 + v }
	}
	then := func(sink []float64) func(*PC, []byte, int) {
		return func(pc *PC, data []byte, from int) { acc(sink)(pc, f64(data)*float64(from+1)) }
	}
	chunks := func(pc *PC) [][]byte {
		c := make([][]byte, pc.Size())
		for i := range c {
			c[i] = f64bytes(float64(10*pc.Rank() + i))
		}
		return c
	}
	sendTo := func(tag int, dests func(pc *PC) []int) Proc {
		return Do(func(pc *PC) {
			for _, d := range dests(pc) {
				pc.Send(d, tag, f64bytes(float64(pc.Rank()+tag)))
			}
		})
	}
	toRank0 := func(pc *PC) []int {
		if pc.Rank() == 0 {
			return nil
		}
		return []int{0}
	}
	return []blockingPoint{
		{"Recv", matchSpec{2, 5}, func(sink []float64) Proc {
			all := func(pc *PC) []int {
				if pc.Rank() != 2 {
					return nil
				}
				return []int{0, 1, 2, 3}
			}
			return Seq(skew, sendTo(5, all), Recv(2, 5, then(sink)))
		}},
		{"RecvFrom", matchSpec{2, 6}, func(sink []float64) Proc {
			across := func(pc *PC) []int { return []int{(pc.Rank() + 2) % 4} }
			return Seq(skew, sendTo(6, across), RecvFrom(func(pc *PC) int { return (pc.Rank() + 2) % 4 }, 6, then(sink)))
		}},
		{"RecvEach", matchSpec{2, 4}, func(sink []float64) Proc {
			return Seq(skew, sendTo(4, toRank0), RecvEach(func(pc *PC) []int {
				if pc.Rank() != 0 {
					return nil
				}
				return []int{1, 2, 3}
			}, 4, then(sink)))
		}},
		{"Waitall", matchSpec{2, 3}, func(sink []float64) Proc {
			return Seq(skew,
				Do(func(pc *PC) {
					st := &mixState{x: 1}
					if pc.Rank() == 0 {
						st.reqs = []*Req{pc.Irecv(1, 3), pc.Irecv(2, 3), pc.Irecv(3, 3)}
					}
					pc.Local = st
				}),
				sendTo(3, toRank0),
				Waitall(func(pc *PC) []*Req {
					if st, _ := pc.Local.(*mixState); st != nil {
						return st.reqs
					}
					return nil
				}),
				Do(func(pc *PC) {
					for _, q := range pc.Local.(*mixState).reqs {
						then(sink)(pc, q.Data, q.From)
					}
				}))
		}},
		{"gate", matchSpec{}, func(sink []float64) Proc {
			return Seq(skew, Migrate(loadbalance.RotateLB{}), Do(func(pc *PC) { acc(sink)(pc, pc.VT()) }))
		}},
		{"Barrier", matchSpec{2, tagBarrier}, func(sink []float64) Proc {
			return Seq(skew, Barrier(), Do(func(pc *PC) { acc(sink)(pc, pc.VT()) }))
		}},
		{"Allreduce", matchSpec{2, tagReduce}, func(sink []float64) Proc {
			return Seq(skew, Allreduce("sum", func(pc *PC) float64 { return float64(pc.Rank() + 1) }, acc(sink)))
		}},
		{"Reduce", matchSpec{2, tagReduceRoot}, func(sink []float64) Proc {
			return Seq(skew, Reduce(0, "max", func(pc *PC) float64 { return float64(3 * pc.Rank()) }, acc(sink)))
		}},
		{"Bcast", matchSpec{2, tagBcast}, func(sink []float64) Proc {
			return Seq(skew, Bcast(2, func(pc *PC) []byte { return f64bytes(42) }, func(pc *PC, b []byte) { acc(sink)(pc, f64(b)) }))
		}},
		{"Gather", matchSpec{2, tagGather}, func(sink []float64) Proc {
			return Seq(skew, Gather(0, func(pc *PC) []byte { return f64bytes(float64(pc.Rank() + 7)) }, func(pc *PC, parts [][]byte) {
				for from, p := range parts {
					acc(sink)(pc, f64(p)*float64(from+1))
				}
			}))
		}},
		{"Scatter", matchSpec{2, tagScatter}, func(sink []float64) Proc {
			return Seq(skew, Scatter(2, chunks, func(pc *PC, b []byte) { acc(sink)(pc, f64(b)) }))
		}},
		{"Alltoall", matchSpec{2, tagAlltoall}, func(sink []float64) Proc {
			return Seq(skew, Alltoall(chunks, func(pc *PC, parts [][]byte) {
				for from, p := range parts {
					acc(sink)(pc, f64(p)*float64(from+1))
				}
			}))
		}},
	}
}

// parkedAt checks that rank 0 of j sits at bp's blocking point.
func parkedAt(t *testing.T, j *Job, bp blockingPoint) {
	t.Helper()
	er := &j.store()[0]
	er.mu.Lock()
	defer er.mu.Unlock()
	if bp.want == (matchSpec{}) {
		if !er.pc.atGate() {
			t.Fatalf("rank 0 is not parked at the gate (inside %T)", er.pc.parkedIn())
		}
		return
	}
	if !er.hasWait || er.waiting != bp.want {
		t.Fatalf("rank 0 waits for %+v (parked %v), want %+v", er.waiting, er.hasWait, bp.want)
	}
}

// TestRecordShipsEveryBlockingPoint moves rank 0 while it is parked at
// each blocking point — once between PEs of one process through the LB
// batch, once between two processes' jobs (shardPair) through
// ShardExtract/ShardInstall; both are the one record codec. Either way
// every rank's VT and result must be bit-identical to an unmoved run.
// The gate has no cross-process leg: a sharded job has no LB gate.
func TestRecordShipsEveryBlockingPoint(t *testing.T) {
	opts := Options{Mode: ModeEvent, MsgOverheadNs: 250, LocalPUP: mixLocalPUP}
	for _, bp := range blockingPoints() {
		bp := bp
		t.Run(bp.name, func(t *testing.T) {
			ref := make([]float64, 4)
			rj, err := NewProgram(newMachine(t, 4, nil), 4, opts, bp.prog(ref))
			if err != nil {
				t.Fatal(err)
			}
			rj.Run()
			if !rj.Done() {
				t.Fatal("unmoved reference did not complete")
			}
			same := func(leg string, vt func(r int) float64, sink []float64) {
				t.Helper()
				for r := 0; r < 4; r++ {
					if got, want := math.Float64bits(vt(r)), math.Float64bits(rj.VT(r)); got != want {
						t.Errorf("%s: rank %d VT %#x, unmoved %#x", leg, r, got, want)
					}
					if math.Float64bits(sink[r]) != math.Float64bits(ref[r]) {
						t.Errorf("%s: rank %d observed %v, unmoved %v", leg, r, sink[r], ref[r])
					}
				}
			}

			sink := make([]float64, 4)
			m := newMachine(t, 4, nil)
			j, err := NewProgram(m, 4, opts, bp.prog(sink))
			if err != nil {
				t.Fatal(err)
			}
			j.Start()
			runPEs(m, 0, 1)
			parkedAt(t, j, bp)
			moveRank(t, j, 0, 3)
			for m.RunUntilQuiescent(); j.gateReady(); m.RunUntilQuiescent() {
				j.serviceGate()
			}
			if !j.Done() {
				t.Fatal("in-process: the job did not complete after the move")
			}
			same("in-process", j.VT, sink)
			if bp.want == (matchSpec{}) {
				return
			}

			sink = make([]float64, 4)
			a, b := shardPair(t, opts, bp.prog(sink))
			a.Start()
			a.m.RunUntilQuiescent()
			parkedAt(t, a, bp)
			if !a.ShardMigratable(0) {
				t.Fatal("ShardMigratable(0) = false for a rank parked at a blocking point")
			}
			data, err := a.ShardExtract(0, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.ShardInstall(data); err != nil {
				t.Fatal(err)
			}
			b.Start()
			for i := 0; !a.Done() || !b.Done(); i++ {
				if i == 100 {
					t.Fatal("across processes: the sharded halves did not complete")
				}
				b.m.RunUntilQuiescent()
				a.m.RunUntilQuiescent()
			}
			same("across processes", func(r int) float64 {
				if b.ShardOwns(r) {
					return b.VT(r)
				}
				return a.VT(r)
			}, sink)
		})
	}
}
