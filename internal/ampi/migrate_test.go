package ampi

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"migflow/internal/core"
	"migflow/internal/loadbalance"
)

// TestMigrationEquivalence is the property test: a randomized
// migration schedule — Migrate gates at random phases of a random
// workload, with a random strategy — must leave per-rank VT, program
// outputs, and network message counts bit-identical to an unmigrated
// run, in BOTH modes and across PE counts. The gate migrates at a
// quiescent point with zero in-flight messages and never touches vt,
// so the flow mechanism AND its placement history are invisible to
// the simulated program.
func TestMigrationEquivalence(t *testing.T) {
	peChoices := []int{2, 3, 4, 5, 8}
	strategies := []loadbalance.Strategy{
		loadbalance.GreedyLB{},
		loadbalance.RotateLB{},
		loadbalance.HierarchicalLB{},
	}
	totalMoved := 0
	for trial := 0; trial < 10; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*104729 + 7))
			size := 2 + rng.Intn(30)
			phases := 3 + rng.Intn(6)
			seed := rng.Int63()
			// Random migration schedule: each phase boundary hosts a
			// gate with probability 1/3.
			gates := map[int]loadbalance.Strategy{}
			for p := 0; p < phases; p++ {
				if rng.Intn(3) == 0 {
					gates[p] = strategies[rng.Intn(len(strategies))]
				}
			}
			if len(gates) == 0 {
				gates[rng.Intn(phases)] = strategies[rng.Intn(len(strategies))]
			}
			opts := Options{
				TreeArity:      1 + rng.Intn(4),
				MsgOverheadNs:  float64(rng.Intn(3)) * 175,
				BlockPlacement: rng.Intn(2) == 0,
				StackSize:      32 << 10,
			}
			type result struct {
				vts, out []float64
				sent     uint64
				moved    int
			}
			run := func(mode string, pes int, gates map[int]loadbalance.Strategy) result {
				m := newMachine(t, pes, nil)
				sink := make([]float64, size)
				o := opts
				o.Mode = mode
				job, err := NewProgram(m, size, o, buildMix(seed, size, phases, sink, gates))
				if err != nil {
					t.Fatalf("NewProgram(%s): %v", mode, err)
				}
				job.Run()
				if !job.Done() {
					t.Fatalf("%s/%dPE: job did not complete (size %d, %d gates)", mode, pes, size, len(gates))
				}
				vts := make([]float64, size)
				for r := range vts {
					vts[r] = job.VT(r)
				}
				sent := m.Network().Snapshot().Sent
				return result{vts: vts, out: sink, sent: sent, moved: job.LBMoved()}
			}
			ref := run(ModeULT, peChoices[rng.Intn(len(peChoices))], nil)
			for _, other := range []result{
				run(ModeULT, peChoices[rng.Intn(len(peChoices))], gates),
				run(ModeEvent, peChoices[rng.Intn(len(peChoices))], gates),
				run(ModeEvent, peChoices[rng.Intn(len(peChoices))], gates),
			} {
				totalMoved += other.moved
				if other.sent != ref.sent {
					t.Fatalf("message counts diverged: %d vs %d (size %d, gates %v)", other.sent, ref.sent, size, gates)
				}
				for r := 0; r < size; r++ {
					if math.Float64bits(other.vts[r]) != math.Float64bits(ref.vts[r]) {
						t.Fatalf("rank %d VT diverged after migration: %v vs %v", r, other.vts[r], ref.vts[r])
					}
					if math.Float64bits(other.out[r]) != math.Float64bits(ref.out[r]) {
						t.Fatalf("rank %d output diverged after migration: %v vs %v", r, other.out[r], ref.out[r])
					}
				}
			}
		})
	}
	if totalMoved == 0 {
		t.Fatal("no trial moved a single rank — the property was never exercised")
	}
}

// TestGateFlushesAggregation: the LB gate is a block like any other,
// so a rank parking there must first flush its PE's coalesced sends.
// Rank 0's only message is still buffered when it reaches the gate;
// unflushed, rank 1 waits for it forever and the gate never fills.
func TestGateFlushesAggregation(t *testing.T) {
	prog := Seq(
		Do(func(pc *PC) {
			if pc.Rank() == 0 {
				pc.Send(1, 1, []byte{7})
			}
		}),
		RecvEach(func(pc *PC) []int {
			if pc.Rank() == 0 {
				return nil
			}
			return []int{0}
		}, 1, nil),
	)
	m := newMachine(t, 2, nil)
	job, err := NewProgram(m, 2, Options{Aggregate: true}, Seq(prog, Migrate(loadbalance.GreedyLB{})))
	if err != nil {
		t.Fatal(err)
	}
	job.Run()
	if !job.Done() {
		t.Fatal("a send buffered behind the LB gate was never flushed")
	}
}

// TestEventGateMovesRecords: a skewed event-mode Jacobi with one
// Migrate gate actually moves ranks, moves them as small records
// (hundreds of bytes, not stack images), keeps the directory
// consistent, and leaves predicted time bit-identical to the
// unmigrated run.
func TestEventGateMovesRecords(t *testing.T) {
	base := JacobiConfig{
		Ranks: 256, Iters: 8, PEs: 4,
		Mode:           ModeEvent,
		WorkSkew:       4,
		BlockPlacement: true,
	}
	ref, err := RunJacobi(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.MigrateAt = 4
	m, job, err := NewJacobi(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job.Run()
	if !job.Done() {
		t.Fatal("migrated run did not complete")
	}
	moved := job.LBMoved()
	if moved == 0 {
		t.Fatal("skewed blocks + greedy gate moved nothing")
	}
	count, bytes := m.MigrationStats()
	if count != uint64(moved) {
		t.Fatalf("MigrationStats count %d, want %d", count, moved)
	}
	per := float64(bytes) / float64(count)
	if per > 512 {
		t.Fatalf("event record averaged %.0f B — records must not carry stacks or pages", per)
	}
	if got := job.PredictedNs(); math.Float64bits(got) != math.Float64bits(ref.PredictedNs) {
		t.Fatalf("migration changed predicted time: %v vs %v", got, ref.PredictedNs)
	}
	// The directory agrees with the engine about every rank's home.
	for r := 0; r < cfg.Ranks; r++ {
		id := job.ev.idOf(r)
		if pe, err := m.Network().Locate(id); err == nil {
			if pe != job.PEOf(r) {
				t.Fatalf("rank %d: directory says PE %d, engine says %d", r, pe, job.PEOf(r))
			}
		}
	}
}

// TestEventExternalRebalance drives the runtime-initiated path: park
// every event rank at a gate via RunUntilQuiescent, rotate all of
// them externally with Job.Rebalance, then let the gate's own step
// run and the program finish. Exercises eventRecord's PUP round trip,
// MoveRangeBatch, owner-word flips, and post-move resumption on the
// new PEs.
func TestEventExternalRebalance(t *testing.T) {
	cfg := JacobiConfig{Ranks: 64, Iters: 6, PEs: 4, Mode: ModeEvent, MigrateAt: 3}
	m, job, err := NewJacobi(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job.Start()
	m.RunUntilQuiescent()
	if !job.gateReady() {
		t.Fatal("ranks did not park at the gate")
	}
	before := make([]int, cfg.Ranks)
	for r := range before {
		before[r] = job.PEOf(r)
	}
	moved, err := job.Rebalance(loadbalance.RotateLB{})
	if err != nil {
		t.Fatalf("external Rebalance: %v", err)
	}
	if moved != cfg.Ranks {
		t.Fatalf("rotate moved %d of %d ranks", moved, cfg.Ranks)
	}
	if got := m.Network().RangeEpoch(job.ev.base); got != 1 {
		t.Fatalf("range epoch %d after one batch, want 1", got)
	}
	for r := range before {
		want := (before[r] + 1) % cfg.PEs
		if got := job.PEOf(r); got != want {
			t.Fatalf("rank %d on PE %d after rotate, want %d", r, got, want)
		}
		if pe, err := m.Network().Locate(job.ev.idOf(r)); err != nil || pe != want {
			t.Fatalf("rank %d directory: (%d, %v), want %d", r, pe, err, want)
		}
	}
	// The gate is still armed; service it and finish the program.
	job.serviceGate()
	for {
		m.RunUntilQuiescent()
		if !job.gateReady() {
			break
		}
		job.serviceGate()
	}
	if !job.Done() {
		t.Fatal("job did not complete after external rebalance")
	}
}

// TestEventMigrateRaceStress is the -race stress: 10k event ranks
// run a Jacobi ring in parallel while an outside goroutine keeps
// rotating every rank between PEs — deliveries chase moved ranks
// through Endpoint.Forward, the owner words and the range table churn
// under load, and the job must still complete. (VT equality is NOT
// asserted here: in-flight forwarding can reorder same-source
// messages, which gate-quiescent migration — the property test above
// — never can.)
func TestEventMigrateRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	cfg := JacobiConfig{Ranks: 10_000, Iters: 10, PEs: 4, Mode: ModeEvent}
	_, job, err := NewJacobi(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Errors are expected near completion (ranks finish and
			// tombstone mid-plan); the property under test is safety,
			// not that every rotation lands.
			_, _ = job.Rebalance(loadbalance.RotateLB{})
		}
	}()
	job.RunParallel()
	close(stop)
	wg.Wait()
	if !job.Done() {
		t.Fatal("stressed job did not complete")
	}
}

// TestEventRecordRoundTrip pushes one rank's record through
// Extract/Install directly and checks the wire image is both
// faithful and small — the ~180 B the headline benchmark banks on.
func TestEventRecordRoundTrip(t *testing.T) {
	m := newMachine(t, 2, nil)
	// A program that parks rank 1 in a Recv that never completes
	// while holding buffered state: rank 0 sends two unmatched-tag
	// messages first, then everyone waits at a gate.
	prog := Seq(
		Do(func(pc *PC) {
			pc.Local = &mixState{x: 1.5}
			if pc.Rank() == 0 {
				pc.Send(1, 7, []byte("abcdefgh"))
				pc.Send(1, 7, []byte("ijklmnop"))
			}
			pc.Work(100 * float64(pc.Rank()+1))
		}),
		Migrate(loadbalance.RotateLB{}),
		RecvEach(func(pc *PC) []int {
			if pc.Rank() != 1 {
				return nil
			}
			return []int{0, 0}
		}, 7, nil),
	)
	job, err := NewProgram(m, 2, Options{Mode: ModeEvent}, prog)
	if err != nil {
		t.Fatal(err)
	}
	job.Start()
	m.RunUntilQuiescent()
	if !job.gateReady() {
		t.Fatal("ranks did not reach the gate")
	}
	// Rank 1 sits at the gate with two buffered messages. Move it by
	// hand through the record path and compare state across the trip.
	e := job.ev
	er := &e.store()[1]
	er.mu.Lock()
	vtBefore, busyBefore, pending := er.pc.vt, er.busy, len(er.mbox)-er.head
	er.mu.Unlock()
	if pending != 2 {
		t.Fatalf("rank 1 buffered %d messages, want 2", pending)
	}
	moves := []core.Move{{R: eventRecord{e, 1}, Src: job.PEOf(1), Dest: (job.PEOf(1) + 1) % 2}}
	moved, err := m.MigrateMany(moves)
	if err != nil || moved != 1 {
		t.Fatalf("MigrateMany: (%d, %v)", moved, err)
	}
	_, bytes := m.MigrationStats()
	if bytes == 0 || bytes > 512 {
		t.Fatalf("record image = %d B, want (0, 512]", bytes)
	}
	er.mu.Lock()
	defer er.mu.Unlock()
	if math.Float64bits(er.pc.vt) != math.Float64bits(vtBefore) {
		t.Fatalf("vt changed across round trip: %v vs %v", er.pc.vt, vtBefore)
	}
	if er.busy != busyBefore {
		t.Fatalf("busy changed across round trip: %v vs %v", er.busy, busyBefore)
	}
	if got := len(er.mbox) - er.head; got != 2 {
		t.Fatalf("buffered messages after round trip: %d, want 2", got)
	}
	if string(er.mbox[er.head].Data) != "abcdefgh" || string(er.mbox[er.head+1].Data) != "ijklmnop" {
		t.Fatalf("mbox payloads reordered or corrupted: %q, %q", er.mbox[er.head].Data, er.mbox[er.head+1].Data)
	}
	if er.mbox[er.head].From != e.idOf(0) {
		t.Fatalf("mbox sender lost: %v", er.mbox[er.head].From)
	}
}
