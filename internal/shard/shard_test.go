package shard

// The cross-process equivalence suite: the same Jacobi/BT-MZ config
// run in-process (ring-buffer transport) and as 2 OS processes over
// sockets must produce bitwise-identical per-rank virtual times and
// numeric results — including runs that migrate event ranks across a
// live socket mid-flight. Worker processes re-enter through TestMain.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
// unix sockets, or a shared-memory ring mesh of ringBytes rings
// (0 = comm.DefaultShmRingBytes) on tmpfs (rings on a disk-backed temp
// dir pay writeback page faults per publish).
func pairFabrics(tb testing.TB, netKind string, ringBytes int) [2]Fabric {
	tb.Helper()
	if netKind == "shm" {
		dir, err := os.MkdirTemp(comm.ShmDir(), "migflow-test-*")
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { os.RemoveAll(dir) })
		if err := comm.CreateShmMesh(dir, 2, ringBytes); err != nil {
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
func runPairJacobi(tb testing.TB, spec JacobiSpec, netKind string, ringBytes int) [2]*Report {
	tb.Helper()
	fabs := pairFabrics(tb, netKind, ringBytes)
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
// migration) with both workers in this process under -race, over unix
// sockets and over shm rings of 4 KiB, 16 KiB and the default size. It
// is the link-sealing property: a link coalesces messages into its open
// envelope and seals it on a destination-PE change or when the next
// message would pass the envelope cap, which a 4 KiB ring lowers to
// 4 KiB. Halos of 8, 1000 and 3000 bytes, each over every fabric, make
// envelopes seal on size as well as on PE — two 3000-byte halos never share one there —
// and however the envelopes fall, every rank's VT and output must equal
// the in-process reference bit for bit.
func TestInProcessPairEquivalence(t *testing.T) {
	for _, fab := range []struct {
		name, net string
		ring      int
	}{
		{"unix", "unix", 0},
		{"shm-4k", "shm", 4 << 10},
		{"shm-16k", "shm", 16 << 10},
		{"shm-default", "shm", 0},
	} {
		for _, halo := range []int{8, 1000, 3000} {
			cfg := ampi.JacobiConfig{
				Mode: ampi.ModeEvent, Ranks: 32, Iters: 6, PEs: 4,
				HaloBytes: halo, WorkNs: 900, BlockPlacement: true,
			}
			t.Run(fmt.Sprintf("%s/halo=%d", fab.name, halo), func(t *testing.T) {
				ref, err := RunJacobiReference(cfg)
				if err != nil {
					t.Fatal(err)
				}
				reps := runPairJacobi(t, JacobiSpec{Cfg: cfg}, fab.net, fab.ring)
				merged, err := MergeReports(reps[:], cfg.Ranks)
				if err != nil {
					t.Fatal(err)
				}
				compareReports(t, ref, merged, cfg.Ranks)
				if fab.ring == 4<<10 && halo == 3000 {
					// The cap leaves room for one such halo per envelope.
					env := reps[0].Net.RemoteEnvelopes + reps[1].Net.RemoteEnvelopes
					pay := reps[0].Net.RemotePayloads + reps[1].Net.RemotePayloads
					if pay == 0 || env != pay {
						t.Errorf("%d envelopes carried %d halos, want one per envelope", env, pay)
					}
				}
			})
		}
	}
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
			reps := runPairJacobi(t, JacobiSpec{Cfg: cfg, Migrate: 6}, netKind, 0)
			merged, err := MergeReports(reps[:], cfg.Ranks)
			if err != nil {
				t.Fatal(err)
			}
			compareReports(t, ref, merged, cfg.Ranks)
			t.Logf("moved %d ranks worker0→worker1 over %s", merged.Moved, netKind)
		})
	}
}

// TestWorkerPeerDeathIsNamedError: a worker pair runs Jacobi over unix
// sockets and over shm rings, and mid-run worker 1's run ends with an
// error. Either it dies — its links hang up without BYE, the way a
// killed process's do — or it fails and closes through Worker.Close.
// Worker 0's Run must return errPeerLost naming worker 1 within 5 s,
// not hang waiting for halos or a DONE report that will never come.
func TestWorkerPeerDeathIsNamedError(t *testing.T) {
	cfg := ampi.JacobiConfig{
		Mode: ampi.ModeEvent, Ranks: 32, Iters: 1 << 20, PEs: 4,
		HaloBytes: 8, WorkNs: 900, BlockPlacement: true,
	}
	for _, netKind := range []string{"unix", "shm"} {
		for _, how := range []string{"dies", "fails"} {
			t.Run(netKind+"/"+how, func(t *testing.T) {
				fabs := pairFabrics(t, netKind, 0)
				var ws [2]*Worker
				for i := range ws {
					w, err := NewWorker(i, 2, cfg.PEs, fabs[i], func(m *core.Machine) (*ampi.Job, error) {
						return ampi.NewJacobiOn(m, cfg)
					})
					if err != nil {
						t.Fatal(err)
					}
					ws[i] = w
				}
				var errs [2]chan error
				for i, w := range ws {
					errs[i] = make(chan error, 1)
					go func(w *Worker, errs chan error) { errs <- w.Run() }(w, errs[i])
				}
				for ws[0].M.Network().Snapshot().RemoteEnvelopes == 0 {
					time.Sleep(time.Millisecond)
				}
				killed := errors.New("killed")
				ws[1].end(killed)
				<-errs[1]
				switch {
				case how == "fails":
					if err := ws[1].Close(); !errors.Is(err, killed) {
						t.Fatalf("failed worker's Close returned %v, want its run's error", err)
					}
				case netKind == "shm":
					// The OS closing a dead writer's side of the ring.
					f, err := os.OpenFile(comm.ShmRingPath(fabs[1].Dir, 1, 0), os.O_RDWR, 0)
					if err != nil {
						t.Fatal(err)
					}
					_, err = f.WriteAt([]byte{1, 0, 0, 0}, 192) // wclosed: comm/shm.go's ring layout
					f.Close()
					if err != nil {
						t.Fatal(err)
					}
				default:
					fabs[1].Conns[0].Close()
				}
				select {
				case err := <-errs[0]:
					if !errors.Is(err, errPeerLost) || !strings.Contains(err.Error(), "link to worker 1") {
						t.Fatalf("survivor's Run returned %v, want errPeerLost naming worker 1", err)
					}
					t.Log(err)
				case <-time.After(5 * time.Second):
					t.Fatalf("survivor still running 5 s after its peer %s", how)
				}
				for _, w := range ws {
					w.Close()
				}
			})
		}
	}
}

// TestBigSimPeerFailureIsNamedError: a BigSim worker whose step fails
// (here on a step frame that does not decode) returns the error and
// hangs up without BYE, so the peer waiting in the next exchange gets
// errPeerLost naming it within 5 s instead of blocking forever.
func TestBigSimPeerFailureIsNamedError(t *testing.T) {
	for _, netKind := range []string{"unix", "shm"} {
		t.Run(netKind, func(t *testing.T) {
			fabs := pairFabrics(t, netKind, 0)
			spec := BigSimSpec{Cfg: bigsim.Config{X: 4, Y: 4, Z: 4, SimPEs: 2, Mode: bigsim.ModeEvent, AtomsPerCell: 1, GhostBytes: 8}, Steps: 4}
			failed := make(chan error, 1)
			go func() {
				_, err := RunBigSimWorker(0, 2, fabs[0], spec)
				failed <- err
			}()
			t1, err := fabricTransport(1, 2, nil, fabs[1])
			if err != nil {
				t.Fatal(err)
			}
			defer t1.Close()
			exchange := ctrlExchange(1, 2, t1)
			if err := t1.Start(); err != nil {
				t.Fatal(err)
			}
			if _, err := exchange([][]byte{{0xff}, nil}); err != nil {
				t.Fatalf("first exchange: %v", err)
			}
			if err := <-failed; err == nil {
				t.Fatal("worker 0 accepted a step frame that does not decode")
			}
			done := make(chan error, 1)
			go func() {
				_, err := exchange([][]byte{nil, nil})
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, errPeerLost) || !strings.Contains(err.Error(), "link to worker 0") {
					t.Fatalf("survivor's exchange returned %v, want errPeerLost naming worker 0", err)
				}
				t.Log(err)
			case <-time.After(5 * time.Second):
				t.Fatal("survivor still waiting 5 s after its peer failed")
			}
		})
	}
}

// TestCtrlExchangeHostilePeer: a peer that sends a frame of another
// kind fails the exchange with errProtocol. What it sends after — a
// flood of step frames past the step barrier, another wrong kind, a
// hang-up without BYE — changes nothing, and the reader never blocks
// on it, so Close returns.
func TestCtrlExchangeHostilePeer(t *testing.T) {
	fabs := pairFabrics(t, "unix", 0)
	var ts [2]*comm.LinkTransport
	for i := range ts {
		tr, err := fabricTransport(i, 2, nil, fabs[i])
		if err != nil {
			t.Fatal(err)
		}
		ts[i] = tr
	}
	exchange := ctrlExchange(0, 2, ts[0])
	for _, tr := range ts {
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
	}
	ts[1].SendControl(0, ctrlStop, nil)
	for i := 0; i < 8; i++ {
		ts[1].SendControl(0, ctrlBlob, []byte{byte(i)})
	}
	ts[1].SendControl(0, ctrlStop, nil)
	ts[1].Abort()
	if _, err := exchange([][]byte{nil, nil}); !errors.Is(err, errProtocol) || !strings.Contains(err.Error(), "control kind 5") {
		t.Fatalf("exchange returned %v, want errProtocol for the STOP frame", err)
	}
	closed := make(chan struct{})
	go func() { ts[0].Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on the hostile peer's reader")
	}
}

// end stops w's run with err, as a link fault would.
func (w *Worker) end(err error) {
	w.step(w.ev(evEnded, -1, 0), func(p *protocol) []ctrlFrame { p.fail(err, "run ended"); return nil })
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

// delayedRecordMigrate moves one specific rank to toWorker, but holds
// the record back for delay after the directory has flipped and the
// MOVED notices have gone out. That manufactures the first-migration
// race window on purpose: while the record sits here, the source's own
// re-routed sends and any third party's direct sends reach the
// destination before ShardInstall, with the destination's migEpoch
// still zero. The move is the Worker's own, so the termination
// barrier counts it.
func delayedRecordMigrate(w *Worker, rank, toWorker int, delay time.Duration) bool {
	for !w.Job.Done() && !w.ended.Load() {
		if w.Job.ShardMigratable(rank) && w.move(rank, toWorker, func() { time.Sleep(delay) }) {
			return true
		}
		runtime.Gosched()
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

// TestRunErrorNamesLastEvents: a run that fails on a protocol violation
// returns, after the violation, the last records of the worker's event
// ring, oldest first, the frame that broke the protocol among them:
// here worker 0 moves 8 ranks to worker 1, an extract begun and one
// shipped each, and then worker 1 sends worker 0 a STOP, which only
// worker 0 may send: 17 events or more (the ACKs may come in before
// Run returns), more than the ring holds.
func TestRunErrorNamesLastEvents(t *testing.T) {
	cfg := ampi.JacobiConfig{
		Mode: ampi.ModeEvent, Ranks: 32, Iters: 1 << 20, PEs: 4,
		HaloBytes: 8, WorkNs: 900, BlockPlacement: true,
	}
	fabs := pairFabrics(t, "unix", 0)
	var ws [2]*Worker
	for i := range ws {
		w, err := NewWorker(i, 2, cfg.PEs, fabs[i], func(m *core.Machine) (*ampi.Job, error) {
			return ampi.NewJacobiOn(m, cfg)
		})
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	var errs [2]chan error
	for i, w := range ws {
		errs[i] = make(chan error, 1)
		go func(w *Worker, errs chan error) { errs <- w.Run() }(w, errs[i])
	}
	for ws[0].M.Network().Snapshot().RemoteEnvelopes == 0 {
		time.Sleep(time.Millisecond)
	}
	if n := ws[0].MigrateRanks(8, 1); n != 8 {
		t.Fatalf("moved %d ranks, want 8", n)
	}
	if err := ws[1].T.SendControl(0, ctrlStop, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs[0]:
		lines := strings.Split(err.Error(), "\n")
		if !errors.Is(err, errProtocol) || !strings.Contains(lines[0], "control kind 5 (0 bytes) from worker 1") {
			t.Fatalf("Run returned %v, want errProtocol for the STOP frame", err)
		}
		var first, last int
		if _, e := fmt.Sscanf(lines[1], "events %d to %d of the run:", &first, &last); e != nil ||
			len(lines) != 2+ringEvents || last-first+1 != ringEvents || last <= ringEvents {
			t.Fatalf("Run's error carries %d lines, want the violation, a heading and the last %d of more events:\n%v",
				len(lines), ringEvents, err)
		}
		stop, shipped := false, false
		for _, l := range lines[2:] {
			stop = stop || strings.HasSuffix(l, "] arrived kind 5 from worker 1")
			shipped = shipped || strings.Contains(l, "] extract shipped to worker 1, rank ")
		}
		if !stop || !shipped {
			t.Fatalf("Run's error does not name the STOP's arrival and a shipped extract among its events:\n%v", err)
		}
		t.Log(err)
	case <-time.After(5 * time.Second):
		t.Fatal("worker 0 still running 5 s after a STOP from worker 1")
	}
	ws[1].end(errors.New("test over"))
	<-errs[1]
	for _, w := range ws {
		w.Close()
	}
}
