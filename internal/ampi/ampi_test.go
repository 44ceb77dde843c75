package ampi

import (
	"fmt"
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
	if j.Size() != 5 || j.Machine() != m {
		t.Error("accessors wrong")
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
	return m.Tag, r.senderRank(m), nil
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
	m := newMachine(t, 3, nil)
	const ranks = 7
	var mu sync.Mutex
	phase := make([]int, ranks)
	minPhaseAtExit := ranks
	j, err := NewJob(m, ranks, Options{}, func(r *Rank) {
		mu.Lock()
		phase[r.Rank()] = 1
		mu.Unlock()
		if err := r.Barrier(); err != nil {
			t.Errorf("barrier: %v", err)
			return
		}
		// After the barrier, every rank must have reached phase 1.
		mu.Lock()
		min := 1
		for _, p := range phase {
			if p < min {
				min = p
			}
		}
		if min < minPhaseAtExit {
			minPhaseAtExit = min
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
	if !j.Done() {
		t.Fatal("barrier deadlocked")
	}
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

func TestSingleRankCollectives(t *testing.T) {
	m := newMachine(t, 1, nil)
	j, err := NewJob(m, 1, Options{}, func(r *Rank) {
		if err := r.Barrier(); err != nil {
			t.Errorf("barrier: %v", err)
		}
		if v, err := r.Allreduce("sum", 3); err != nil || v != 3 {
			t.Errorf("allreduce = %g/%v", v, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
}

// TestMigrateBalancesLoad is the §4.5 story in miniature: imbalanced
// ranks (rank 0..2 heavy on PE 0/1) call MPI_Migrate with GreedyLB;
// afterwards the measured per-PE loads even out and messaging still
// works.
func TestMigrateBalancesLoad(t *testing.T) {
	layout := swapglobal.NewLayout()
	layout.Declare("iter", 8)
	m := newMachine(t, 2, layout)
	const ranks = 8
	var mu sync.Mutex
	endPEs := make(map[int]int)
	var moved int
	j, err := NewJob(m, ranks, Options{Globals: layout}, func(r *Rank) {
		// Heavy work on low ranks: all land on both PEs round-robin,
		// but the heavy ones (0,2,4,6) are all even → all on PE 0.
		work := 1000.0
		if r.Rank()%2 == 0 {
			work = 100000
		}
		r.Work(work)
		n, err := r.Migrate(loadbalance.GreedyLB{})
		if err != nil {
			t.Errorf("rank %d Migrate: %v", r.Rank(), err)
			return
		}
		mu.Lock()
		if n > moved {
			moved = n
		}
		mu.Unlock()
		// Post-migration: second work phase and a token ring to prove
		// communication survives migration.
		r.Work(work)
		next := (r.Rank() + 1) % r.Size()
		prev := (r.Rank() + r.Size() - 1) % r.Size()
		if err := r.Send(next, 1, []byte{byte(r.Rank())}); err != nil {
			t.Errorf("ring send: %v", err)
			return
		}
		data, _, err := r.Recv(prev, 1)
		if err != nil || len(data) != 1 || int(data[0]) != prev {
			t.Errorf("rank %d ring recv = %v/%v", r.Rank(), data, err)
		}
		mu.Lock()
		endPEs[r.Rank()] = r.PE()
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
	if !j.Done() {
		t.Fatal("job hung")
	}
	if moved == 0 {
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
	count, _ := m.MigrationStats()
	if count == 0 {
		t.Error("machine recorded no migrations")
	}
}

func TestMigrateWithStackCopyThreads(t *testing.T) {
	// The same LB flow works with the other stack techniques.
	m := newMachine(t, 2, nil)
	j, err := NewJob(m, 4, Options{Strategy: migrate.MemoryAlias{}}, func(r *Rank) {
		r.Work(float64((r.Rank() + 1) * 10000))
		if _, err := r.Migrate(loadbalance.GreedyLB{}); err != nil {
			t.Errorf("Migrate: %v", err)
		}
		if err := r.Barrier(); err != nil {
			t.Errorf("post barrier: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
	if !j.Done() {
		t.Fatal("job hung")
	}
}

// TestRebalanceExternal drives the runtime-initiated LB mode: ranks
// never call MPI_Migrate; the runtime moves them while they are
// parked in Recv, and messaging resumes on the new placement.
func TestRebalanceExternal(t *testing.T) {
	m := newMachine(t, 2, nil)
	const ranks = 8
	var mu sync.Mutex
	endPE := make(map[int]int)
	j, err := NewJob(m, ranks, Options{}, func(r *Rank) {
		work := 1000.0
		if r.Rank()%2 == 0 {
			work = 100000 // heavy ranks all born on PE 0 (round robin)
		}
		r.Work(work)
		// Park waiting for the controller's post-LB "go" token.
		_, _, _ = r.Recv(AnySource, 1)
		r.Work(work)
		mu.Lock()
		endPE[r.Rank()] = r.PE()
		mu.Unlock()
	})
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
	if err2 := func() error { _, err := j.Rebalance(nil); return err }(); err2 == nil {
		t.Error("nil strategy accepted")
	}
}

// TestCommAwareRebalance: ranks in a communication ring, all equal
// load, spread round-robin. The comm-aware balancer co-locates ring
// neighbours; plain greedy ignores the graph. Cross-PE traffic under
// the comm-aware placement must be lower.
func TestCommAwareRebalance(t *testing.T) {
	run := func(strategy loadbalance.Strategy) float64 {
		m := newMachine(t, 4, nil)
		const ranks = 16
		j, err := NewJob(m, ranks, Options{}, func(r *Rank) {
			// Phase 1: ring exchange to populate the traffic graph.
			next := (r.Rank() + 1) % r.Size()
			prev := (r.Rank() + r.Size() - 1) % r.Size()
			payload := make([]byte, 4096)
			if err := r.Send(next, 1, payload); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			if _, _, err := r.Recv(prev, 1); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			r.Work(10000)
			// Park for the controller-driven rebalance.
			_, _, _ = r.Recv(AnySource, 9)
		})
		if err != nil {
			t.Fatal(err)
		}
		j.Start()
		m.RunUntilQuiescent()
		if _, err := j.Rebalance(strategy); err != nil {
			t.Fatal(err)
		}
		// Measure the ring's cross-PE traffic under the new placement.
		cross := loadbalance.CrossTraffic(j.LoadDatabase(), j.CommGraph(), nil)
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

// TestMultipleEpochs calls MPI_Migrate twice: each epoch computes its
// own plan — once, not once per rank — from loads measured since the
// previous one, and the machinery stays consistent across repeated
// migrations.
func TestMultipleEpochs(t *testing.T) {
	m := newMachine(t, 2, nil)
	const ranks = 6
	var mu sync.Mutex
	finished := 0
	nplans := 0
	lb := countingLB{plans: &nplans}
	j, err := NewJob(m, ranks, Options{}, func(r *Rank) {
		// Epoch 1: even ranks heavy.
		work := 1000.0
		if r.Rank()%2 == 0 {
			work = 50000
		}
		r.Work(work)
		if _, err := r.Migrate(lb); err != nil {
			t.Errorf("epoch 1: %v", err)
			return
		}
		// Epoch 2: odd ranks heavy — the opposite skew.
		work = 1000.0
		if r.Rank()%2 == 1 {
			work = 50000
		}
		r.Work(work)
		if _, err := r.Migrate(lb); err != nil {
			t.Errorf("epoch 2: %v", err)
			return
		}
		mu.Lock()
		finished++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
	if finished != ranks {
		t.Fatalf("finished = %d", finished)
	}
	// Two distinct epochs were planned.
	if nplans != 2 {
		t.Errorf("epochs planned = %d, want 2", nplans)
	}
	count, _ := m.MigrationStats()
	if count == 0 {
		t.Error("no migrations across epochs")
	}
}

func TestMigrateNilStrategy(t *testing.T) {
	m := newMachine(t, 1, nil)
	var got error
	j, err := NewJob(m, 1, Options{}, func(r *Rank) {
		_, got = r.Migrate(nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
	if got == nil {
		t.Error("nil strategy accepted")
	}
}
