package ampi

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"migflow/internal/comm"
	"migflow/internal/loadbalance"
	"migflow/internal/pup"
)

// TestMigrationEquivalence is the property test: a randomized
// migration schedule — Migrate gates at random phases of a random
// workload, with a random strategy — must leave per-rank VT, program
// outputs, and network message counts bit-identical to an unmigrated
// run, in BOTH modes and across PE counts. The gate migrates at a
// quiescent point with zero in-flight messages and never touches vt,
// so the flow mechanism AND its placement history are invisible to
// the simulated program. Every event rank that moves crosses as the
// wire record, its mixState through mixLocalPUP.
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
				LocalPUP:       mixLocalPUP,
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

// TestPELoadsSameOnBothBackends: at a Migrate gate the measured load
// per PE is what the balancer plans over, and it is the same on both
// backends. A thread rank adds each Work to its CPU time in the order
// an event rank adds it to its slot's busy time, so the sums match bit
// for bit; both must be non-zero.
func TestPELoadsSameOnBothBackends(t *testing.T) {
	loads := map[string][]float64{}
	for _, mode := range []string{ModeULT, ModeEvent} {
		m, job, err := NewJacobi(JacobiConfig{
			Mode: mode, Ranks: 4096, PEs: 8, Iters: 8, ReduceEvery: 4, BlockPlacement: true,
			MigrateAt: 2, WorkSkew: 2, LB: loadbalance.GreedyLB{},
		})
		if err != nil {
			t.Fatal(err)
		}
		job.Start()
		m.RunUntilQuiescent()
		if !job.gateReady() {
			t.Fatalf("%s: ranks did not park at the gate", mode)
		}
		loads[mode] = job.PELoads()
		for p, l := range loads[mode] {
			if l <= 0 {
				t.Errorf("%s: PE %d measured load %v, want > 0", mode, p, l)
			}
		}
		if err := job.serviceGate(); err != nil {
			t.Fatal(err)
		}
		m.RunUntilQuiescent()
		if !job.Done() {
			t.Fatalf("%s: job did not complete after the gate", mode)
		}
	}
	ult, ev := loads[ModeULT], loads[ModeEvent]
	for p := range ult {
		if math.Float64bits(ult[p]) != math.Float64bits(ev[p]) {
			t.Errorf("PE %d: ULT load %v, event load %v: want bit-identical", p, ult[p], ev[p])
		}
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
// run and the program finish. Exercises the record round trip,
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
	if err := job.serviceGate(); err != nil {
		t.Fatal(err)
	}
	for {
		m.RunUntilQuiescent()
		if !job.gateReady() {
			break
		}
		if err := job.serviceGate(); err != nil {
			t.Fatal(err)
		}
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
	if err := job.Err(); err != nil || !job.Done() {
		t.Fatalf("stressed job ended with %v (done %v)", err, job.Done())
	}
}

// moveRank moves rank r of an event job to PE to the way one LB step
// does — commit → MigrateMany → eventRecord — and fails the test
// unless exactly that rank moved.
func moveRank(t *testing.T, j *Job, r, to int) {
	t.Helper()
	e := j.ev
	from := e.peOf(r)
	if moved, err := e.commit([]comm.RangeMove{{Index: r, To: to}}); err != nil || moved != 1 {
		t.Fatalf("moving rank %d from PE %d to %d: (%d, %v)", r, from, to, moved, err)
	}
}

// TestEventRecordRoundTrip pushes one rank's record through the LB
// batch by hand and checks the trip is faithful — virtual time, load,
// buffered messages in order, Local through LocalPUP, the frame stack
// rebuilt at the gate — and that the slot is the one it was.
func TestEventRecordRoundTrip(t *testing.T) {
	m := newMachine(t, 2, nil)
	// Rank 0 sends two messages rank 1 only takes after the gate, so
	// rank 1 reaches the gate with both buffered.
	prog := Seq(
		Do(func(pc *PC) {
			pc.Local = &mixState{x: 1.5 * float64(pc.Rank()+1)}
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
	job, err := NewProgram(m, 2, Options{Mode: ModeEvent, LocalPUP: mixLocalPUP}, prog)
	if err != nil {
		t.Fatal(err)
	}
	job.Start()
	m.RunUntilQuiescent()
	if !job.gateReady() {
		t.Fatal("ranks did not reach the gate")
	}
	e := job.ev
	er := &e.job.store()[1]
	vtBefore, busyBefore, pending, depth := er.pc.vt, er.busy, len(er.mbox)-int(er.head), len(er.pc.stack)
	local := er.pc.Local.(*mixState)
	if pending != 2 {
		t.Fatalf("rank 1 buffered %d messages, want 2", pending)
	}
	moveRank(t, job, 1, (job.PEOf(1)+1)%2)
	count, bytes := m.MigrationStats()
	if count != 1 || bytes == 0 || bytes > 512 {
		t.Fatalf("MigrationStats = (%d, %d B), want one record of (0, 512] B", count, bytes)
	}
	t.Logf("record: %d B for a gate-parked rank with two buffered 8-byte messages and a 1-request Local", bytes)
	if er.moving || er.hasWait || !er.pc.atGate() || len(er.pc.stack) != depth {
		t.Fatalf("after the trip: moving=%v hasWait=%v, stack %d frames at gate=%v, want %d at the gate",
			er.moving, er.hasWait, len(er.pc.stack), er.pc.atGate(), depth)
	}
	if math.Float64bits(er.pc.vt) != math.Float64bits(vtBefore) || er.busy != busyBefore {
		t.Fatalf("vt/busy changed across the trip: %v/%v vs %v/%v", er.pc.vt, er.busy, vtBefore, busyBefore)
	}
	if got, ok := er.pc.Local.(*mixState); !ok || got == local || got.x != local.x {
		t.Fatalf("Local after the trip: %#v, want a fresh copy of %#v", er.pc.Local, local)
	}
	if got := len(er.mbox) - int(er.head); got != 2 {
		t.Fatalf("buffered messages after round trip: %d, want 2", got)
	}
	if string(er.mbox[er.head].Data) != "abcdefgh" || string(er.mbox[er.head+1].Data) != "ijklmnop" {
		t.Fatalf("mbox payloads reordered or corrupted: %q, %q", er.mbox[er.head].Data, er.mbox[er.head+1].Data)
	}
	if er.mbox[er.head].From != e.idOf(0) {
		t.Fatalf("mbox sender lost: %v", er.mbox[er.head].From)
	}
	if err := job.serviceGate(); err != nil {
		t.Fatal(err)
	}
	m.RunUntilQuiescent()
	if !job.Done() {
		t.Fatal("job did not complete after the moved rank's gate resumed")
	}
}

// TestMoveNamesWhatCannotCross: a record carries every blocking point,
// so only two things stop a live rank from moving, and each is a named
// error from the LB step rather than a rank that resumes wrong: a Local
// in a job without LocalPUP, and a collective run whose site the
// program's numbering never met (here a For body builds a fresh
// Iallreduce per iteration, so the site at run time is not the one the
// walk numbered).
func TestMoveNamesWhatCannotCross(t *testing.T) {
	fresh := For(1, func(int) Proc {
		start, wait := Iallreduce("sum", func(*PC) float64 { return 1 }, nil)
		return Seq(start, Migrate(loadbalance.RotateLB{}), wait)
	})
	for _, tc := range []struct {
		name string
		prog Proc
		want string
	}{
		{"Local without LocalPUP", Seq(Do(func(pc *PC) { pc.Local = &mixState{} }), Migrate(loadbalance.RotateLB{})),
			"has program state but the job has no LocalPUP"},
		{"unnumbered collective site", fresh, "inside collective Iallreduce, whose site the program's numbering never met"},
	} {
		m := newMachine(t, 2, nil)
		job, err := NewProgram(m, 4, Options{Mode: ModeEvent}, tc.prog)
		if err != nil {
			t.Fatal(err)
		}
		job.Start()
		m.RunUntilQuiescent()
		if !job.gateReady() {
			t.Fatalf("%s: ranks did not park at the gate", tc.name)
		}
		if _, err := job.Rebalance(loadbalance.RotateLB{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Rebalance error = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestDeliveryDuringTransit: between an in-process Extract and its
// Install the slot is empty and marked moving, and the rank does not
// count as finished. A message delivered then can only buffer — there
// is no stack for it to run — and after Install it queues behind the
// record's older messages.
func TestDeliveryDuringTransit(t *testing.T) {
	m := newMachine(t, 2, nil)
	prog := Seq(
		Do(func(pc *PC) {
			if pc.Rank() == 0 {
				pc.Send(1, 7, []byte("first"))
				pc.Send(1, 7, []byte("second"))
			}
		}),
		Migrate(loadbalance.RotateLB{}),
		RecvEach(func(pc *PC) []int {
			if pc.Rank() != 1 {
				return nil
			}
			return []int{0, 0, 0}
		}, 7, nil),
	)
	job, err := NewProgram(m, 2, Options{Mode: ModeEvent}, prog)
	if err != nil {
		t.Fatal(err)
	}
	job.Start()
	m.RunUntilQuiescent()
	e := job.ev
	er := &e.job.store()[1]
	rec := &eventRecord{e, 1, job.PEOf(1)}
	p := pup.NewGrowPacker()
	if err := rec.Extract(p); err != nil {
		t.Fatal(err)
	}
	if !er.moving || len(er.pc.stack) != 0 || len(er.mbox) != 0 || er.done || job.Done() {
		t.Fatalf("in transit: moving=%v, %d frames, %d buffered, done=%v/%v; want an empty, unfinished slot marked moving",
			er.moving, len(er.pc.stack), len(er.mbox), er.done, job.Done())
	}
	e.deliver(job.PEOf(1), &comm.Message{To: e.idOf(1), From: e.idOf(0), Tag: 7, Data: []byte("third")})
	if err := rec.Install(p.PackedBytes()); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, msg := range er.mbox[er.head:] {
		got = append(got, string(msg.Data))
	}
	if fmt.Sprint(got) != "[first second third]" {
		t.Fatalf("buffered after the move: %v, want the record's two, then the one that arrived in transit", got)
	}
	if err := job.serviceGate(); err != nil {
		t.Fatal(err)
	}
	m.RunUntilQuiescent()
	if !job.Done() {
		t.Fatal("job did not complete")
	}
}
