package shard

// The cross-process equivalence suite: the same Jacobi/BT-MZ config
// run in-process (ring-buffer transport) and as 2 OS processes over
// sockets must produce bitwise-identical per-rank virtual times and
// numeric results — including runs that migrate event ranks across a
// live socket mid-flight. Worker processes re-enter through TestMain.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"migflow/internal/ampi"
	"migflow/internal/bigsim"
	"migflow/internal/comm"
	"migflow/internal/core"
	"migflow/internal/npb"
)

func TestMain(m *testing.M) {
	if WorkerMain() {
		return // unreachable: WorkerMain exits, but keep the guard shape
	}
	os.Exit(m.Run())
}

// compareReports demands bitwise equality of the sharded run against
// the in-process reference: every rank's VT, every Jacobi cell, and
// the payload-send count.
func compareReports(t *testing.T, ref *Report, merged *Merged, size int) {
	t.Helper()
	refVT := make(map[int]uint64, size)
	for _, rv := range ref.Ranks {
		refVT[rv.Rank] = rv.Bits
	}
	if len(refVT) != size || len(merged.VTBits) != size {
		t.Fatalf("rank coverage: ref %d, sharded %d, want %d", len(refVT), len(merged.VTBits), size)
	}
	for r := 0; r < size; r++ {
		if refVT[r] != merged.VTBits[r] {
			t.Fatalf("rank %d VT differs: in-process %v, sharded %v",
				r, math.Float64frombits(refVT[r]), math.Float64frombits(merged.VTBits[r]))
		}
	}
	for _, c := range ref.Cells {
		got, ok := merged.Cells[c.Rank]
		if !ok {
			t.Fatalf("rank %d cell missing from sharded run", c.Rank)
		}
		if got.X != c.X || got.Resid != c.Resid || got.Global != c.Global {
			t.Fatalf("rank %d cell differs: in-process %+v, sharded %+v", c.Rank, c, got)
		}
	}
	if merged.Sent != ref.Net.Sent {
		t.Fatalf("payload sends differ: in-process %d, sharded %d", ref.Net.Sent, merged.Sent)
	}
}

// runSharded spawns the subprocess run and merges the reports.
func runSharded(t *testing.T, spec ProcSpec, size int) *Merged {
	t.Helper()
	raws, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := DecodeReports(raws)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeReports(reps, size)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// TestCrossProcessJacobiEquivalence runs randomized Jacobi configs
// in-process and as 2 OS processes over unix sockets; per-rank VT and
// final cell values must match bit for bit.
func TestCrossProcessJacobiEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		cfg := ampi.JacobiConfig{
			Mode:           ampi.ModeEvent,
			Ranks:          32 + rng.Intn(64),
			Iters:          4 + rng.Intn(12),
			PEs:            4,
			HaloBytes:      8 + 8*rng.Intn(16),
			WorkNs:         500 + float64(rng.Intn(2000)),
			WorkSkew:       float64(rng.Intn(3)),
			ReduceEvery:    rng.Intn(4),
			Overlap:        rng.Intn(2) == 1,
			BlockPlacement: rng.Intn(2) == 1,
			MsgOverheadNs:  float64(50 * rng.Intn(3)),
		}
		ref, err := RunJacobiReference(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		merged := runSharded(t, ProcSpec{App: "jacobi", Workers: 2, Net: "unix", Payload: JacobiSpec{Cfg: cfg}}, cfg.Ranks)
		compareReports(t, ref, merged, cfg.Ranks)
		if merged.RemoteEnv == 0 {
			t.Fatalf("trial %d: no envelopes crossed the socket — not a sharded run", trial)
		}
	}
}

// TestCrossProcessJacobiShm runs the equivalence check over the
// shared-memory fabric: 2 OS processes joined by mmap'd rings instead
// of sockets, same bitwise demands, and the RemoteEnv counter proves
// envelopes actually crossed the rings.
func TestCrossProcessJacobiShm(t *testing.T) {
	cfg := ampi.JacobiConfig{
		Mode: ampi.ModeEvent, Ranks: 48, Iters: 10, PEs: 4,
		HaloBytes: 16, WorkNs: 800, ReduceEvery: 2, Overlap: true, BlockPlacement: true,
	}
	ref, err := RunJacobiReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged := runSharded(t, ProcSpec{App: "jacobi", Workers: 2, Net: "shm", Payload: JacobiSpec{Cfg: cfg}}, cfg.Ranks)
	compareReports(t, ref, merged, cfg.Ranks)
	if merged.RemoteEnv == 0 {
		t.Fatal("no envelopes crossed the rings — not a sharded run")
	}
}

// TestCrossProcessJacobiShmMigration ships event ranks across live
// shared-memory rings mid-run; per-rank VT must still match the
// in-process run bit for bit.
func TestCrossProcessJacobiShmMigration(t *testing.T) {
	cfg := ampi.JacobiConfig{
		Mode: ampi.ModeEvent, Ranks: 64, Iters: 40, PEs: 4,
		HaloBytes: 8, WorkNs: 1200, BlockPlacement: true,
	}
	ref, err := RunJacobiReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged := runSharded(t, ProcSpec{App: "jacobi", Workers: 2, Net: "shm",
		Payload: JacobiSpec{Cfg: cfg, Migrate: 8}}, cfg.Ranks)
	compareReports(t, ref, merged, cfg.Ranks)
	t.Logf("migrated %d ranks across the rings", merged.Moved)
}

// TestCrossProcessJacobiTCP repeats one config over loopback TCP.
func TestCrossProcessJacobiTCP(t *testing.T) {
	cfg := ampi.JacobiConfig{
		Mode: ampi.ModeEvent, Ranks: 48, Iters: 8, PEs: 4,
		HaloBytes: 16, WorkNs: 800, ReduceEvery: 2, BlockPlacement: true,
	}
	ref, err := RunJacobiReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged := runSharded(t, ProcSpec{App: "jacobi", Workers: 2, Net: "tcp", Payload: JacobiSpec{Cfg: cfg}}, cfg.Ranks)
	compareReports(t, ref, merged, cfg.Ranks)
}

// TestCrossProcessJacobiMigration ships event ranks across a live
// socket mid-run (worker 0 extracts parked ranks, worker 1 rebuilds
// their frame stacks and installs them); the per-rank VT must still
// match the in-process run bit for bit — migration is free in virtual
// time by design.
func TestCrossProcessJacobiMigration(t *testing.T) {
	cfg := ampi.JacobiConfig{
		Mode: ampi.ModeEvent, Ranks: 64, Iters: 40, PEs: 4,
		HaloBytes: 8, WorkNs: 1200, BlockPlacement: true,
	}
	ref, err := RunJacobiReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged := runSharded(t, ProcSpec{App: "jacobi", Workers: 2, Net: "unix",
		Payload: JacobiSpec{Cfg: cfg, Migrate: 8}}, cfg.Ranks)
	compareReports(t, ref, merged, cfg.Ranks)
	t.Logf("migrated %d ranks across the socket", merged.Moved)
}

// TestCrossProcessJacobiLarge is the CI smoke scale: 4096 event ranks
// across 2 processes.
func TestCrossProcessJacobiLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large smoke run")
	}
	cfg := ampi.JacobiConfig{
		Mode: ampi.ModeEvent, Ranks: 4096, Iters: 3, PEs: 8,
		HaloBytes: 8, WorkNs: 700, ReduceEvery: 3, BlockPlacement: true,
	}
	ref, err := RunJacobiReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged := runSharded(t, ProcSpec{App: "jacobi", Workers: 2, Net: "unix", Payload: JacobiSpec{Cfg: cfg}}, cfg.Ranks)
	compareReports(t, ref, merged, cfg.Ranks)
}

// TestCrossProcessBTMZEquivalence runs program-mode BT-MZ (graded
// zones, specific-source receives, periodic Allreduce) across 2
// processes and demands bitwise VT equality with the in-process run.
func TestCrossProcessBTMZEquivalence(t *testing.T) {
	p := npb.Params{
		Class: npb.GradedClass("T64", 8, 8, 1<<12, 8, 20),
		Mode:  ampi.ModeEvent, NProcs: 32, NPEs: 4, Steps: 6, ReduceEvery: 3, HaloBytes: 2048,
	}
	ref, err := RunBTMZReference(p)
	if err != nil {
		t.Fatal(err)
	}
	merged := runSharded(t, ProcSpec{App: "btmz", Workers: 2, Net: "unix", Payload: BTMZSpec{Params: p}}, p.NProcs)
	compareReports(t, ref, merged, p.NProcs)
}

// TestCrossProcessBTMZMigration ships zone-ranks across a live socket
// mid-run. A BT-MZ rank parks inside its RecvEach, so the record's tree
// path ends in that statement's cursor and the destination resumes the
// intake at the source it was waiting for; per-rank VT must still match
// the in-process run bit for bit.
func TestCrossProcessBTMZMigration(t *testing.T) {
	p := npb.Params{
		Class: npb.GradedClass("T64", 8, 8, 1<<12, 8, 20),
		Mode:  ampi.ModeEvent, NProcs: 64, NPEs: 4, Steps: 30, HaloBytes: 256,
	}
	ref, err := RunBTMZReference(p)
	if err != nil {
		t.Fatal(err)
	}
	merged := runSharded(t, ProcSpec{App: "btmz", Workers: 2, Net: "unix",
		Payload: BTMZSpec{Params: p, Migrate: 8}}, p.NProcs)
	compareReports(t, ref, merged, p.NProcs)
	t.Logf("migrated %d ranks across the socket", merged.Moved)
}

// bigsimEqual demands two report step streams match bit for bit.
func bigsimEqual(t *testing.T, name string, ref, got *BigSimReport) {
	t.Helper()
	if len(ref.Steps) != len(got.Steps) {
		t.Fatalf("%s: %d steps vs %d", name, len(ref.Steps), len(got.Steps))
	}
	for i := range ref.Steps {
		if ref.Steps[i] != got.Steps[i] {
			t.Fatalf("%s: step %d differs: %+v vs %+v", name, i, ref.Steps[i], got.Steps[i])
		}
	}
}

// runBigSimSharded runs the subprocess fleet and checks every worker
// reconstructed the same machine-wide stream.
func runBigSimSharded(t *testing.T, spec BigSimSpec, workers int, netKind string) *BigSimReport {
	t.Helper()
	raws, err := Run(ProcSpec{App: "bigsim", Workers: workers, Net: netKind, Payload: spec})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := DecodeBigSimReports(raws)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps[1:] {
		bigsimEqual(t, "workers disagree", reps[0], rep)
	}
	return reps[0]
}

// TestCrossProcessBigSimEquivalence: the sharded simulator's per-step
// predictions must match the serial one bit for bit, with and without
// ghost aggregation.
func TestCrossProcessBigSimEquivalence(t *testing.T) {
	for _, agg := range []bool{false, true} {
		spec := BigSimSpec{
			Cfg: bigsim.Config{
				X: 10, Y: 8, Z: 4, SimPEs: 6, Mode: bigsim.ModeEvent,
				AtomsPerCell: 180, WorkPerAtomNs: 25, GhostBytes: 2048,
				Aggregate: agg,
			},
			Steps: 5,
		}
		ref, err := RunBigSimReference(spec)
		if err != nil {
			t.Fatal(err)
		}
		bigsimEqual(t, "serial vs sharded", ref, runBigSimSharded(t, spec, 2, "unix"))
	}
}

// TestCrossProcessBTMZShm repeats the BT-MZ equivalence over the
// shared-memory fabric.
func TestCrossProcessBTMZShm(t *testing.T) {
	p := npb.Params{
		Class: npb.GradedClass("T64", 8, 8, 1<<12, 8, 20),
		Mode:  ampi.ModeEvent, NProcs: 32, NPEs: 4, Steps: 6, ReduceEvery: 3, HaloBytes: 2048,
	}
	ref, err := RunBTMZReference(p)
	if err != nil {
		t.Fatal(err)
	}
	merged := runSharded(t, ProcSpec{App: "btmz", Workers: 2, Net: "shm", Payload: BTMZSpec{Params: p}}, p.NProcs)
	compareReports(t, ref, merged, p.NProcs)
}

// TestCrossProcessBigSimShm repeats the BigSim equivalence over the
// shared-memory fabric: step frames travel as control blobs through
// the rings, predictions must still match the serial run bit for bit.
func TestCrossProcessBigSimShm(t *testing.T) {
	for _, agg := range []bool{false, true} {
		spec := BigSimSpec{
			Cfg: bigsim.Config{
				X: 10, Y: 8, Z: 4, SimPEs: 6, Mode: bigsim.ModeEvent,
				AtomsPerCell: 180, WorkPerAtomNs: 25, GhostBytes: 2048,
				Aggregate: agg,
			},
			Steps: 5,
		}
		ref, err := RunBigSimReference(spec)
		if err != nil {
			t.Fatal(err)
		}
		bigsimEqual(t, "serial vs shm-sharded", ref, runBigSimSharded(t, spec, 2, "shm"))
	}
}

// TestCrossProcessBigSimPaperScale is the tentpole run: the paper's
// 200,000-target machine (Figure 11 scale) simulated by 2 OS
// processes, predictions bitwise-identical to 1 process.
func TestCrossProcessBigSimPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	spec := BigSimSpec{
		Cfg: bigsim.Config{
			X: 100, Y: 50, Z: 40, SimPEs: 16, Mode: bigsim.ModeEvent,
			AtomsPerCell: 200, WorkPerAtomNs: 25, GhostBytes: 2048,
			Aggregate: true,
		},
		Steps: 3,
	}
	ref, err := RunBigSimReference(spec)
	if err != nil {
		t.Fatal(err)
	}
	bigsimEqual(t, "serial vs sharded", ref, runBigSimSharded(t, spec, 2, "unix"))
}

// pairConns builds one real unix-socket connection pair in-process.
func pairConns(tb testing.TB) (net.Conn, net.Conn) {
	tb.Helper()
	l, err := net.Listen("unix", filepath.Join(tb.TempDir(), "p.sock"))
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	ch := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		ch <- c
	}()
	dialed, err := net.Dial("unix", l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	accepted := <-ch
	if accepted == nil {
		tb.Fatal("accept failed")
	}
	return dialed, accepted
}

// pairFabrics builds a two-worker fabric for an in-process run: real
// unix sockets, or a shared-memory ring mesh on tmpfs (rings on a
// disk-backed temp dir pay writeback page faults per publish).
func pairFabrics(tb testing.TB, netKind string) [2]Fabric {
	tb.Helper()
	if netKind == "shm" {
		dir, err := os.MkdirTemp(comm.ShmDir(), "migflow-test-*")
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { os.RemoveAll(dir) })
		if err := comm.CreateShmMesh(dir, 2, 0); err != nil {
			tb.Fatal(err)
		}
		return [2]Fabric{{Net: "shm", Dir: dir}, {Net: "shm", Dir: dir}}
	}
	c0, c1 := pairConns(tb)
	return [2]Fabric{
		{Net: netKind, Conns: map[int]net.Conn{1: c0}},
		{Net: netKind, Conns: map[int]net.Conn{0: c1}},
	}
}

// runPairJacobi drives both shard workers inside this test process
// over a real fabric (socket or shm rings) — the configuration the
// race detector can see into, unlike subprocess runs.
func runPairJacobi(tb testing.TB, spec JacobiSpec, netKind string) [2]*Report {
	tb.Helper()
	fabs := pairFabrics(tb, netKind)
	var reps [2]*Report
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		reps[0], errs[0] = RunJacobiWorker(0, 2, fabs[0], spec)
	}()
	go func() {
		defer wg.Done()
		reps[1], errs[1] = RunJacobiWorker(1, 2, fabs[1], spec)
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			tb.Fatalf("worker %d: %v", i, err)
		}
	}
	return reps
}

// TestInProcessPairEquivalence runs the base sharded protocol (no
// migration) with both workers in this process under -race.
func TestInProcessPairEquivalence(t *testing.T) {
	cfg := ampi.JacobiConfig{
		Mode: ampi.ModeEvent, Ranks: 32, Iters: 6, PEs: 4,
		HaloBytes: 8, WorkNs: 900, BlockPlacement: true,
	}
	ref, err := RunJacobiReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := runPairJacobi(t, JacobiSpec{Cfg: cfg}, "unix")
	merged, err := MergeReports(reps[:], cfg.Ranks)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, ref, merged, cfg.Ranks)
}

// TestInProcessPairMigration runs the full sharded protocol — both
// workers in this process, so -race watches every interleaving —
// with the migration driver racing the job, over both fabrics.
func TestInProcessPairMigration(t *testing.T) {
	cfg := ampi.JacobiConfig{
		Mode: ampi.ModeEvent, Ranks: 64, Iters: 40, PEs: 4,
		HaloBytes: 8, WorkNs: 1000, ReduceEvery: 0, BlockPlacement: true,
	}
	ref, err := RunJacobiReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, netKind := range []string{"unix", "shm"} {
		t.Run(netKind, func(t *testing.T) {
			reps := runPairJacobi(t, JacobiSpec{Cfg: cfg, Migrate: 6}, netKind)
			merged, err := MergeReports(reps[:], cfg.Ranks)
			if err != nil {
				t.Fatal(err)
			}
			compareReports(t, ref, merged, cfg.Ranks)
			t.Logf("moved %d ranks worker0→worker1 over %s", merged.Moved, netKind)
		})
	}
}

// TestShardedRejectsULT: sharded machines support event mode only —
// ULT stacks hold raw pointers no wire codec can ship.
func TestShardedRejectsULT(t *testing.T) {
	c0, c1 := pairConns(t)
	defer c0.Close()
	defer c1.Close()
	cfg := ampi.JacobiConfig{Mode: ampi.ModeULT, Ranks: 8, Iters: 2, PEs: 4}
	_, err := NewWorker(0, 2, 4, Fabric{Net: "unix", Conns: map[int]net.Conn{1: c0}}, func(m *core.Machine) (*ampi.Job, error) {
		return ampi.NewJacobiOn(m, cfg)
	})
	if err == nil {
		t.Fatal("ULT mode must be rejected on a sharded machine")
	}
}

// meshConns builds the full pairwise connection mesh for n in-process
// workers.
func meshConns(tb testing.TB, n int) []map[int]net.Conn {
	tb.Helper()
	conns := make([]map[int]net.Conn, n)
	for i := range conns {
		conns[i] = map[int]net.Conn{}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ci, cj := pairConns(tb)
			conns[i][j] = ci
			conns[j][i] = cj
		}
	}
	return conns
}

// delayedRecordMigrate extracts one specific rank and ships it to
// toWorker, but holds the record back for delay after the directory
// has flipped and the MOVED notices have gone out. That manufactures
// the first-migration race window on purpose: while the record sits
// here, the source's own re-routed sends and any third party's
// direct sends reach the destination before ShardInstall, with the
// destination's migEpoch still zero. Bookkeeping mirrors
// MigrateRanks so the termination barrier stays sound.
func delayedRecordMigrate(w *Worker, rank, toWorker int, delay time.Duration) bool {
	toPE := Cut(w.NumPEs, w.Workers, toWorker)
	for !w.stop.Load() && !w.Job.Done() {
		if !w.Job.ShardMigratable(rank) {
			runtime.Gosched()
			continue
		}
		w.outstanding.Add(1)
		data, err := w.Job.ShardExtract(rank, toPE)
		if err != nil {
			w.outstanding.Add(-1)
			continue // raced a resume; rank will park again
		}
		var mv [8]byte
		binary.LittleEndian.PutUint32(mv[:], uint32(rank))
		binary.LittleEndian.PutUint32(mv[4:], uint32(toPE))
		for p := 0; p < w.Workers; p++ {
			if p != w.Index && p != toWorker {
				if err := w.T.SendControl(p, ctrlMoved, mv[:]); err != nil {
					panic(err)
				}
			}
		}
		time.Sleep(delay)
		if err := w.T.SendControl(toWorker, ctrlRecord, data); err != nil {
			panic(err)
		}
		w.movedOut.Add(1)
		return true
	}
	return false
}

// TestRecordRaceNotYetInstalled is the regression for the
// first-migration delivery race: worker 0 moves its boundary rank 7
// (block placement, 24 ranks / 6 PEs: worker 0 owns ranks 0–7) to
// worker 2, but the record is delayed 150ms while halo traffic keeps
// flowing — rank 6's re-routed sends from worker 0 and rank 8's
// direct sends from worker 1 (told by MOVED) hit worker 2 before the
// record installs, with worker 2's migEpoch still zero. deliver must
// bounce them through the directory until the table flips; absorbing
// one into the not-yet-installed slot desyncs the sequenced stream
// and hangs the run (caught by the watchdog). Results must still be
// bitwise-identical to the in-process reference.
func TestRecordRaceNotYetInstalled(t *testing.T) {
	cfg := ampi.JacobiConfig{
		Mode: ampi.ModeEvent, Ranks: 24, Iters: 40, PEs: 6,
		HaloBytes: 8, WorkNs: 1000, BlockPlacement: true,
	}
	ref, err := RunJacobiReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 3
	conns := meshConns(t, workers)
	reps := make([]*Report, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sink := &cellSink{}
			c := cfg
			c.Observe = sink.observe
			w, err := NewWorker(i, workers, c.PEs, Fabric{Net: "unix", Conns: conns[i]}, func(m *core.Machine) (*ampi.Job, error) {
				return ampi.NewJacobiOn(m, c)
			})
			if err != nil {
				errs[i] = err
				return
			}
			var mig sync.WaitGroup
			if i == 0 {
				mig.Add(1)
				go func() {
					defer mig.Done()
					delayedRecordMigrate(w, 7, 2, 150*time.Millisecond)
				}()
			}
			w.Run()
			mig.Wait()
			sink.mu.Lock()
			cells := append([]RankCell(nil), sink.cells...)
			sink.mu.Unlock()
			reps[i] = w.report(cells)
			errs[i] = w.Close()
		}(i)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("sharded run hung: a pre-install delivery was absorbed instead of bounced")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	merged, err := MergeReports(reps, cfg.Ranks)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, ref, merged, cfg.Ranks)
	if merged.Moved != 1 {
		t.Fatalf("moved %d ranks, want 1", merged.Moved)
	}
}

// TestCutPartition: the PE split is a partition for awkward shapes.
func TestCutPartition(t *testing.T) {
	for _, tc := range [][2]int{{4, 2}, {7, 3}, {16, 5}, {3, 2}} {
		numPEs, workers := tc[0], tc[1]
		for pe := 0; pe < numPEs; pe++ {
			w := OwnerOf(numPEs, workers, pe)
			if pe < Cut(numPEs, workers, w) || pe >= Cut(numPEs, workers, w+1) {
				t.Fatalf("PE %d not in worker %d's range (%d PEs, %d workers)", pe, w, numPEs, workers)
			}
		}
	}
}
