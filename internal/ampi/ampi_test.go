package ampi

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"migflow/internal/comm"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
	"migflow/internal/migrate"
	"migflow/internal/swapglobal"
)

func newMachine(t testing.TB, pes int, layout *swapglobal.Layout) *core.Machine {
	t.Helper()
	m, err := core.NewMachine(core.Config{NumPEs: pes, Globals: layout})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runProg runs prog on size ranks of a fresh pes-PE machine and fails
// the test unless the job completes.
func runProg(t testing.TB, pes, size int, opts Options, prog Proc) (*Job, *core.Machine) {
	t.Helper()
	m := newMachine(t, pes, opts.Globals)
	j, err := NewProgram(m, size, opts, prog)
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
	if !j.Done() {
		t.Fatalf("%d-rank job on %d PEs did not complete", size, pes)
	}
	return j, m
}

// f64bytes is a reduction payload: v's bits, little-endian (f64's
// inverse).
func f64bytes(v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return b[:]
}

// panicOf runs fn and returns what it panicked with, or nil.
func panicOf(fn func()) (got any) {
	defer func() { got = recover() }()
	fn()
	return nil
}

// runPanics runs prog on size ranks of a one-PE machine and returns
// what Run panicked with, or nil.
func runPanics(t *testing.T, size int, prog Proc) any {
	t.Helper()
	j, err := NewProgram(newMachine(t, 1, nil), size, Options{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	return panicOf(j.Run)
}

// wantPanic fails the test unless got is a panic whose text holds want.
func wantPanic(t *testing.T, what string, got any, want string) {
	t.Helper()
	if msg := fmt.Sprint(got); got == nil || !strings.Contains(msg, want) {
		t.Errorf("%s: panicked with %v, want a panic naming %q", what, got, want)
	}
}

func TestJobValidation(t *testing.T) {
	m := newMachine(t, 2, nil)
	if _, err := NewJob(m, 0, Options{}, func(*Rank) {}); err == nil {
		t.Error("zero ranks accepted")
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	m := newMachine(t, 2, nil)
	var mu sync.Mutex
	pes := make(map[int]int)
	j, err := NewJob(m, 5, Options{}, func(r *Rank) {
		mu.Lock()
		pes[r.Rank()] = r.PE()
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
	if !j.Done() {
		t.Fatal("job not done")
	}
	for rank, pe := range pes {
		if pe != rank%2 {
			t.Errorf("rank %d on PE %d, want %d", rank, pe, rank%2)
		}
	}
	if j.Size() != 5 {
		t.Errorf("Size = %d, want 5", j.Size())
	}
}

func TestSendRecv(t *testing.T) {
	m := newMachine(t, 2, nil)
	var got []byte
	var from int
	j, err := NewJob(m, 2, Options{}, func(r *Rank) {
		if r.Rank() == 0 {
			if err := r.Send(1, 7, []byte("halo exchange")); err != nil {
				t.Errorf("send: %v", err)
			}
		} else {
			data, src, err := r.Recv(0, 7)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got, from = data, src
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
	if string(got) != "halo exchange" || from != 0 {
		t.Errorf("got %q from %d", got, from)
	}
}

func TestRecvWildcardsAndOrdering(t *testing.T) {
	m := newMachine(t, 2, nil)
	var tags []int
	j, err := NewJob(m, 2, Options{}, func(r *Rank) {
		if r.Rank() == 0 {
			for _, tag := range []int{3, 1, 2} {
				if err := r.Send(1, tag, nil); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		} else {
			// Tag-selective first, then wildcards drain in order.
			_, _, _ = r.Recv(AnySource, 2)
			tags = append(tags, 2)
			for i := 0; i < 2; i++ {
				m, _, _ := r.recvTag()
				tags = append(tags, m)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
	if fmt.Sprint(tags) != "[2 3 1]" {
		t.Errorf("tags = %v", tags)
	}
}

// recvTag is a test helper: receive anything, return the tag.
func (r *Rank) recvTag() (int, int, error) {
	m := r.recv(AnySource, AnyTag)
	return m.Tag, r.job.senderOf(m.From), nil
}

func TestSendValidation(t *testing.T) {
	m := newMachine(t, 1, nil)
	var errNegTag, errBadDest error
	j, err := NewJob(m, 1, Options{}, func(r *Rank) {
		errNegTag = r.Send(0, -3, nil)
		errBadDest = r.Send(99, 0, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
	if errNegTag == nil {
		t.Error("negative tag accepted")
	}
	if errBadDest == nil {
		t.Error("bad destination accepted")
	}
}

func TestBarrier(t *testing.T) {
	const ranks = 7
	var mu sync.Mutex
	phase := make([]int, ranks)
	minPhaseAtExit := 1
	runProg(t, 3, ranks, Options{}, Seq(
		Do(func(pc *PC) {
			mu.Lock()
			phase[pc.Rank()] = 1
			mu.Unlock()
		}),
		Barrier(),
		// After the barrier, every rank must have reached phase 1.
		Do(func(pc *PC) {
			mu.Lock()
			for _, p := range phase {
				minPhaseAtExit = min(minPhaseAtExit, p)
			}
			mu.Unlock()
		}),
	))
	if minPhaseAtExit != 1 {
		t.Errorf("a rank left the barrier before all entered (min phase %d)", minPhaseAtExit)
	}
}

func TestAllreduce(t *testing.T) {
	m := newMachine(t, 2, nil)
	const ranks = 5
	sums := make([]float64, ranks)
	maxs := make([]float64, ranks)
	j, err := NewJob(m, ranks, Options{}, func(r *Rank) {
		v := float64(r.Rank() + 1)
		s, err := r.Allreduce("sum", v)
		if err != nil {
			t.Errorf("sum: %v", err)
			return
		}
		sums[r.Rank()] = s
		mx, err := r.Allreduce("max", v)
		if err != nil {
			t.Errorf("max: %v", err)
			return
		}
		maxs[r.Rank()] = mx
		if _, err := r.Allreduce("median", v); err == nil {
			t.Error("unknown op accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
	for rk := 0; rk < ranks; rk++ {
		if sums[rk] != 15 {
			t.Errorf("rank %d sum = %g, want 15", rk, sums[rk])
		}
		if maxs[rk] != 5 {
			t.Errorf("rank %d max = %g, want 5", rk, maxs[rk])
		}
	}
}

// TestThreadAllreduceIsProgramAllreduce pins the one collective
// executor: Rank.Allreduce inside a NewJob body and the Allreduce
// combinator on ULT ranks run the same schedule through
// collRun.advance, so on a torus topology they agree on the result
// bits, the hops charged, every rank's VT and every PE's clock. Hop
// time is charged into VT only, never to a PE clock.
func TestThreadAllreduceIsProgramAllreduce(t *testing.T) {
	const ranks, pes = 12, 3
	opts := Options{
		Collectives: CollTopoTree, Topo: Topology{Nodes: 4, GroupSize: 2}, MsgOverheadNs: 250,
	}
	work := func(rank int) float64 { return float64(100 * (rank + 1)) }
	val := func(rank int) float64 { return 1/float64(rank+3) + float64(rank)*0.1 }
	type outcome struct {
		sums   []float64
		vts    []float64
		clocks []float64
		hops   uint64
	}
	finish := func(j *Job, m *core.Machine, sums []float64) outcome {
		t.Helper()
		j.Run()
		if !j.Done() {
			t.Fatal("job did not complete")
		}
		o := outcome{sums: sums, hops: m.Network().TopoHops()}
		for r := 0; r < ranks; r++ {
			o.vts = append(o.vts, j.VT(r))
		}
		for p := 0; p < pes; p++ {
			o.clocks = append(o.clocks, m.PE(p).Clock.Now())
		}
		return o
	}

	threadSums := make([]float64, ranks)
	m := newMachine(t, pes, nil)
	j, err := NewJob(m, ranks, opts, func(r *Rank) {
		r.Work(work(r.Rank()))
		v, err := r.Allreduce("sum", val(r.Rank()))
		if err != nil {
			t.Error(err)
		}
		threadSums[r.Rank()] = v
	})
	if err != nil {
		t.Fatal(err)
	}
	thread := finish(j, m, threadSums)

	progSums := make([]float64, ranks)
	m = newMachine(t, pes, nil)
	j, err = NewProgram(m, ranks, opts, Seq(
		Do(func(pc *PC) { pc.Work(work(pc.Rank())) }),
		Allreduce("sum", func(pc *PC) float64 { return val(pc.Rank()) },
			func(pc *PC, v float64) { progSums[pc.Rank()] = v }),
	))
	if err != nil {
		t.Fatal(err)
	}
	prog := finish(j, m, progSums)

	if thread.hops == 0 || thread.hops != prog.hops {
		t.Errorf("topology hops: thread %d, program %d (want equal and non-zero)", thread.hops, prog.hops)
	}
	for r := 0; r < ranks; r++ {
		if math.Float64bits(thread.sums[r]) != math.Float64bits(prog.sums[r]) {
			t.Errorf("rank %d: result %x (thread) vs %x (program)", r, math.Float64bits(thread.sums[r]), math.Float64bits(prog.sums[r]))
		}
		if math.Float64bits(thread.vts[r]) != math.Float64bits(prog.vts[r]) {
			t.Errorf("rank %d: VT %g (thread) vs %g (program)", r, thread.vts[r], prog.vts[r])
		}
	}
	for p := 0; p < pes; p++ {
		if math.Float64bits(thread.clocks[p]) != math.Float64bits(prog.clocks[p]) {
			t.Errorf("PE %d: clock %g (thread) vs %g (program)", p, thread.clocks[p], prog.clocks[p])
		}
	}
}

func TestSingleRankCollectives(t *testing.T) {
	var got float64
	runProg(t, 1, 1, Options{}, Seq(
		Barrier(),
		Allreduce("sum", func(*PC) float64 { return 3 }, func(_ *PC, v float64) { got = v }),
	))
	if got != 3 {
		t.Errorf("program allreduce = %g", got)
	}
	j, err := NewJob(newMachine(t, 1, nil), 1, Options{}, func(r *Rank) {
		if v, err := r.Allreduce("sum", 3); err != nil || v != 3 {
			t.Errorf("Rank.Allreduce = %g/%v", v, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
}

// heavyEven is the imbalanced load of the LB tests: the even ranks,
// all born on PE 0 under round-robin placement on two PEs, are heavy.
func heavyEven(pc *PC) float64 {
	if pc.Rank()%2 == 0 {
		return 100000
	}
	return 1000
}

// TestMigrateBalancesLoad is the §4.5 story in miniature: imbalanced
// thread ranks pass a Migrate gate with GreedyLB; afterwards the
// measured per-PE loads even out, a privatized global written before
// the gate reads back after it, and messaging still works.
func TestMigrateBalancesLoad(t *testing.T) {
	layout := swapglobal.NewLayout()
	layout.Declare("iter", 8)
	const ranks = 8
	endPEs := make([]int, ranks)
	j, m := runProg(t, 2, ranks, Options{Globals: layout}, Seq(
		Do(func(pc *PC) {
			pc.Work(heavyEven(pc))
			if err := pc.Globals().StoreUint64("iter", uint64(pc.Rank()+1)); err != nil {
				t.Errorf("rank %d store: %v", pc.Rank(), err)
			}
		}),
		Migrate(loadbalance.GreedyLB{}),
		// Post-migration: the global, a second work phase and a token
		// ring to prove communication survives migration.
		Do(func(pc *PC) {
			if v, err := pc.Globals().LoadUint64("iter"); err != nil || v != uint64(pc.Rank()+1) {
				t.Errorf("rank %d global after the gate = %d/%v", pc.Rank(), v, err)
			}
			pc.Work(heavyEven(pc))
			pc.Send((pc.Rank()+1)%pc.Size(), 1, []byte{byte(pc.Rank())})
		}),
		RecvFrom(func(pc *PC) int { return (pc.Rank() + pc.Size() - 1) % pc.Size() }, 1,
			func(pc *PC, data []byte, from int) {
				if len(data) != 1 || int(data[0]) != from {
					t.Errorf("rank %d ring recv = %v from %d", pc.Rank(), data, from)
				}
				endPEs[pc.Rank()] = pc.PE()
			}),
	))
	if j.LBMoved() == 0 {
		t.Error("no ranks migrated despite imbalance")
	}
	// The heavy ranks must have spread across both PEs.
	heavy := map[int]int{}
	for rk, pe := range endPEs {
		if rk%2 == 0 {
			heavy[pe]++
		}
	}
	if heavy[0] == 4 || heavy[1] == 4 {
		t.Errorf("heavy ranks not spread: %v", heavy)
	}
	// Post-LB measured loads are balanced.
	loads := j.PELoads()
	if ib := loadbalance.Imbalance(loads); ib > 1.3 {
		t.Errorf("post-LB imbalance = %g (loads %v)", ib, loads)
	}
	if count, _ := m.MigrationStats(); count == 0 {
		t.Error("machine recorded no migrations")
	}
}

func TestMigrateWithStackCopyThreads(t *testing.T) {
	// The same LB flow works with the other stack techniques.
	runProg(t, 2, 4, Options{Strategy: migrate.MemoryAlias{}}, Seq(
		Do(func(pc *PC) { pc.Work(float64((pc.Rank() + 1) * 10000)) }),
		Migrate(loadbalance.GreedyLB{}),
		Barrier(),
	))
}

// TestRebalanceExternal drives the runtime-initiated LB mode: ranks
// never pass a Migrate gate; the runtime moves them while they are
// parked in Recv, and messaging resumes on the new placement.
func TestRebalanceExternal(t *testing.T) {
	m := newMachine(t, 2, nil)
	const ranks = 8
	endPE := make([]int, ranks)
	j, err := NewProgram(m, ranks, Options{}, Seq(
		Do(func(pc *PC) { pc.Work(heavyEven(pc)) }),
		// Park waiting for the controller's post-LB "go" token.
		Recv(AnySource, 1, nil),
		Do(func(pc *PC) {
			pc.Work(heavyEven(pc))
			endPE[pc.Rank()] = pc.PE()
		}),
	))
	if err != nil {
		t.Fatal(err)
	}
	j.Start()
	m.RunUntilQuiescent() // phase 1 done; everyone parked in Recv
	if j.Done() {
		t.Fatal("job finished before the rebalance point")
	}
	moved, err := j.Rebalance(loadbalance.GreedyLB{})
	if err != nil {
		t.Fatal(err)
	}
	// The controller (outside the job) releases the ranks.
	for i := 0; i < ranks; i++ {
		msg := &comm.Message{To: comm.EntityID(j.Rank(i).Thread().ID()), Tag: 1}
		if err := m.Network().Endpoint(0).Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	m.RunUntilQuiescent()
	if !j.Done() {
		t.Fatal("job hung after external rebalance")
	}
	if moved == 0 {
		t.Error("no ranks moved")
	}
	heavy := map[int]int{}
	for rk, pe := range endPE {
		if rk%2 == 0 {
			heavy[pe]++
		}
	}
	if heavy[0] == 4 || heavy[1] == 4 {
		t.Errorf("heavy ranks not spread: %v", heavy)
	}
	if _, err := j.Rebalance(nil); err == nil {
		t.Error("nil strategy accepted")
	}
}

// TestCommAwareRebalance: ranks in a communication ring, all equal
// load, spread round-robin. The comm-aware balancer co-locates ring
// neighbours; plain greedy ignores the graph. Cross-PE traffic under
// the comm-aware placement must be lower.
func TestCommAwareRebalance(t *testing.T) {
	const ranks = 16
	payload := make([]byte, 4096)
	prog := Seq(
		// Phase 1: ring exchange to populate the traffic graph.
		Do(func(pc *PC) { pc.Send((pc.Rank()+1)%pc.Size(), 1, payload) }),
		RecvFrom(func(pc *PC) int { return (pc.Rank() + pc.Size() - 1) % pc.Size() }, 1, nil),
		Do(func(pc *PC) { pc.Work(10000) }),
		// Park for the controller-driven rebalance.
		Recv(AnySource, 9, nil),
	)
	run := func(strategy loadbalance.Strategy) float64 {
		m := newMachine(t, 4, nil)
		j, err := NewProgram(m, ranks, Options{}, prog)
		if err != nil {
			t.Fatal(err)
		}
		j.Start()
		m.RunUntilQuiescent()
		if _, err := j.Rebalance(strategy); err != nil {
			t.Fatal(err)
		}
		// Measure the ring's cross-PE traffic under the new placement.
		cross := loadbalance.CrossTraffic(j.collectLoads(nil), j.CommGraph(), nil)
		// Release and finish.
		for i := 0; i < j.Size(); i++ {
			msg := &comm.Message{To: comm.EntityID(j.Rank(i).Thread().ID()), Tag: 9}
			if err := m.Network().Endpoint(0).Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		m.RunUntilQuiescent()
		if !j.Done() {
			t.Fatal("job hung")
		}
		return cross
	}
	greedyCross := run(loadbalance.GreedyLB{})
	commCross := run(loadbalance.CommAwareLB{Alpha: 1})
	if !(commCross < greedyCross) {
		t.Errorf("comm-aware cross traffic %g not below greedy %g", commCross, greedyCross)
	}
}

// countingLB counts how many times the runtime asked it for a plan.
type countingLB struct {
	loadbalance.GreedyLB
	plans *int
}

func (c countingLB) Plan(items []loadbalance.Item, numPEs int) loadbalance.Plan {
	*c.plans++
	return c.GreedyLB.Plan(items, numPEs)
}

// TestMultipleEpochs passes two Migrate gates on thread ranks: each
// epoch computes its own plan — once, not once per rank — from loads
// measured since the previous one, and the machinery stays consistent
// across repeated migrations.
func TestMultipleEpochs(t *testing.T) {
	const ranks = 6
	finished, nplans := 0, 0
	lb := countingLB{plans: &nplans}
	skew := func(heavy int) Proc {
		return Do(func(pc *PC) {
			if pc.Rank()%2 == heavy {
				pc.Work(50000)
			} else {
				pc.Work(1000)
			}
		})
	}
	_, m := runProg(t, 2, ranks, Options{}, Seq(
		skew(0), Migrate(lb), // epoch 1: even ranks heavy
		skew(1), Migrate(lb), // epoch 2: odd ranks heavy — the opposite skew
		Do(func(*PC) { finished++ }),
	))
	if finished != ranks {
		t.Fatalf("finished = %d", finished)
	}
	// Two distinct epochs were planned.
	if nplans != 2 {
		t.Errorf("epochs planned = %d, want 2", nplans)
	}
	if count, _ := m.MigrationStats(); count == 0 {
		t.Error("no migrations across epochs")
	}
}

func TestMigrateNilStrategy(t *testing.T) {
	wantPanic(t, "Migrate(nil)", panicOf(func() { Migrate(nil) }), "nil strategy")
}
