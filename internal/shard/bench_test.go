package shard

// Transport benchmarks behind make bench-transport: in-process versus
// cross-process Send cost, envelope coalescing per syscall, and the
// price of shipping an event-rank record across a socket. Both shard
// endpoints live in this process (real unix sockets, separate
// Networks), so the numbers include the full wire path — PUP encode,
// writev, read, decode — without subprocess-spawn noise.

import (
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"migflow/internal/ampi"
	"migflow/internal/comm"
	"migflow/internal/core"
)

// spinUntil waits for the far endpoint, yielding and then briefly
// sleeping: on a single-CPU container a bare spin loop starves the
// socket goroutines, and a goroutine that never sleeps keeps the
// scheduler from blocking in netpoll at all — socket readiness would
// then surface only on sysmon's ~10 ms sweeps.
func spinUntil(pending func() int) {
	for i := 0; pending() == 0; i++ {
		if i < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Microsecond)
		}
	}
}

// benchShards mirrors comm's twoShards helper for benchmarks: two
// 4-PE sharded networks joined by one unix socket.
func benchShards(b *testing.B) (n0, n1 *comm.Network, t0, t1 *comm.LinkTransport) {
	b.Helper()
	c0, c1 := pairConns(b)
	owner := func(pe int) int { return pe / 2 }
	lat := comm.LatencyModel{Alpha: 1000, BetaPerByte: 0.4}
	n0, n1 = comm.NewNetwork(4, lat), comm.NewNetwork(4, lat)
	t0, t1 = comm.NewSocketTransport(0, 2, owner), comm.NewSocketTransport(1, 2, owner)
	if err := t0.AddPeer(1, c0); err != nil {
		b.Fatal(err)
	}
	if err := t1.AddPeer(0, c1); err != nil {
		b.Fatal(err)
	}
	if err := t0.Attach(n0, 0, 2); err != nil {
		b.Fatal(err)
	}
	if err := t1.Attach(n1, 2, 4); err != nil {
		b.Fatal(err)
	}
	if err := t0.Start(); err != nil {
		b.Fatal(err)
	}
	if err := t1.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		t0.Retire()
		t1.Retire()
		t0.Close()
		t1.Close()
	})
	return n0, n1, t0, t1
}

// BenchmarkTransportSendLocal is the baseline: Send + Poll on the
// default in-process ring-buffer transport.
func BenchmarkTransportSendLocal(b *testing.B) {
	n := comm.NewNetwork(4, comm.LatencyModel{Alpha: 1000, BetaPerByte: 0.4})
	if err := n.Register(comm.EntityID(9), 1); err != nil {
		b.Fatal(err)
	}
	src, dst := n.Endpoint(0), n.Endpoint(1)
	data := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(&comm.Message{To: 9, From: 1, Data: data}); err != nil {
			b.Fatal(err)
		}
		spinUntil(dst.Pending)
		dst.Poll()
	}
}

// reportWireMetrics turns the transport counters into the syscall-
// economy metrics: envelopes per write batch and bytes per syscall
// (frames per ring publish on the shm fabric, which never syscalls).
func reportWireMetrics(b *testing.B, st comm.SocketStats) {
	b.Helper()
	if st.WriteBatches > 0 {
		b.ReportMetric(float64(st.FramesSent)/float64(st.WriteBatches), "envelopes/syscall")
	}
	if st.WriteSyscalls > 0 {
		b.ReportMetric(float64(st.BytesWritten)/float64(st.WriteSyscalls), "bytes/syscall")
	}
}

// benchShmShards mirrors benchShards over the shared-memory fabric:
// two 4-PE sharded networks joined by mmap'd rings on tmpfs.
func benchShmShards(b *testing.B) (n0, n1 *comm.Network, t0, t1 *comm.LinkTransport) {
	b.Helper()
	dir, err := os.MkdirTemp(comm.ShmDir(), "migflow-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	if err := comm.CreateShmMesh(dir, 2, 0); err != nil {
		b.Fatal(err)
	}
	owner := func(pe int) int { return pe / 2 }
	lat := comm.LatencyModel{Alpha: 1000, BetaPerByte: 0.4}
	n0, n1 = comm.NewNetwork(4, lat), comm.NewNetwork(4, lat)
	if t0, err = comm.NewShmTransport(0, 2, owner, dir); err != nil {
		b.Fatal(err)
	}
	if t1, err = comm.NewShmTransport(1, 2, owner, dir); err != nil {
		b.Fatal(err)
	}
	if err := t0.Attach(n0, 0, 2); err != nil {
		b.Fatal(err)
	}
	if err := t1.Attach(n1, 2, 4); err != nil {
		b.Fatal(err)
	}
	if err := t0.Start(); err != nil {
		b.Fatal(err)
	}
	if err := t1.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		t0.Retire()
		t1.Retire()
		t0.Close()
		t1.Close()
	})
	return n0, n1, t0, t1
}

// BenchmarkTransportSendCross sends PE0→PE2 across a real unix
// socket and waits for delivery on the far Network — one message per
// wire envelope, the anti-coalescing worst case.
func BenchmarkTransportSendCross(b *testing.B) {
	n0, n1, t0, _ := benchShards(b)
	for _, n := range []*comm.Network{n0, n1} {
		if err := n.Register(comm.EntityID(9), 2); err != nil {
			b.Fatal(err)
		}
	}
	src, dst := n0.Endpoint(0), n1.Endpoint(2)
	data := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(&comm.Message{To: 9, From: 1, Data: data}); err != nil {
			b.Fatal(err)
		}
		spinUntil(dst.Pending)
		dst.Poll()
	}
	b.StopTimer()
	reportWireMetrics(b, t0.SocketStats())
}

// BenchmarkTransportSendCrossShm is the same ping-per-iteration
// workload over the shared-memory rings — the co-located wire-tax
// headline number against the socket baseline above.
func BenchmarkTransportSendCrossShm(b *testing.B) {
	n0, n1, t0, t1 := benchShmShards(b)
	for _, n := range []*comm.Network{n0, n1} {
		if err := n.Register(comm.EntityID(9), 2); err != nil {
			b.Fatal(err)
		}
	}
	src, dst := n0.Endpoint(0), n1.Endpoint(2)
	data := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(&comm.Message{To: 9, From: 1, Data: data}); err != nil {
			b.Fatal(err)
		}
		spinUntil(dst.Pending)
		dst.Poll()
	}
	b.StopTimer()
	reportWireMetrics(b, t0.SocketStats())
	// Receiver-side parks: how often the reader gave up spinning and
	// napped before the next frame landed.
	b.ReportMetric(float64(t1.SocketStats().Parks)/float64(b.N), "parks/op")
}

// BenchmarkTransportSendCrossStream drives the same wire through the
// TRAM aggregator: buckets of coalesced payloads cross as single
// frames and the writer drains whole queues per writev, so the
// envelopes-per-syscall metric is what the coalescing buys.
func BenchmarkTransportSendCrossStream(b *testing.B) {
	n0, n1, t0, _ := benchShards(b)
	for _, n := range []*comm.Network{n0, n1} {
		if err := n.Register(comm.EntityID(9), 2); err != nil {
			b.Fatal(err)
		}
	}
	n0.EnableAggregation(comm.AggPolicy{MaxPayloads: 16})
	src, dst := n0.Endpoint(0), n1.Endpoint(2)
	data := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	got := 0
	for i := 0; i < b.N; i++ {
		if err := src.SendStream(&comm.Message{To: 9, From: 1, Data: data}); err != nil {
			b.Fatal(err)
		}
	}
	if err := src.Flush(); err != nil {
		b.Fatal(err)
	}
	for got < b.N {
		spinUntil(dst.Pending)
		dst.Poll()
		got++
	}
	b.StopTimer()
	reportWireMetrics(b, t0.SocketStats())
	if s := n0.Snapshot(); s.RemotePayloads > 0 && s.RemoteEnvelopes > 0 {
		b.ReportMetric(float64(s.RemotePayloads)/float64(s.RemoteEnvelopes), "payloads/envelope")
	}
}

// BenchmarkTransportSendCrossStreamShm drives the TRAM aggregator
// over the shared-memory rings: coalesced frames publish with no
// syscalls at all.
func BenchmarkTransportSendCrossStreamShm(b *testing.B) {
	n0, n1, t0, _ := benchShmShards(b)
	for _, n := range []*comm.Network{n0, n1} {
		if err := n.Register(comm.EntityID(9), 2); err != nil {
			b.Fatal(err)
		}
	}
	n0.EnableAggregation(comm.AggPolicy{MaxPayloads: 16})
	src, dst := n0.Endpoint(0), n1.Endpoint(2)
	data := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	got := 0
	for i := 0; i < b.N; i++ {
		if err := src.SendStream(&comm.Message{To: 9, From: 1, Data: data}); err != nil {
			b.Fatal(err)
		}
	}
	if err := src.Flush(); err != nil {
		b.Fatal(err)
	}
	for got < b.N {
		spinUntil(dst.Pending)
		dst.Poll()
		got++
	}
	b.StopTimer()
	reportWireMetrics(b, t0.SocketStats())
	if s := n0.Snapshot(); s.RemotePayloads > 0 && s.RemoteEnvelopes > 0 {
		b.ReportMetric(float64(s.RemotePayloads)/float64(s.RemoteEnvelopes), "payloads/envelope")
	}
}

// benchRecordPingPong isolates the migration protocol itself: two
// single-PE workers joined by a real fabric run a one-rank program
// parked at a plain Recv — the migratable steady state — and the
// bench shuttles that rank between them with the production
// MigrateRanks path. Each move is the full chain a mid-run migration
// pays: extract, record encode, wire frame, install, scheduler wake,
// re-park, and the ack back. ns/rank-moved here is pure protocol +
// fabric latency with no application compute charged to it (the
// Jacobi variants below give the under-live-traffic picture).
func benchRecordPingPong(b *testing.B, netKind string) {
	fabs := pairFabrics(b, netKind)
	// Rank 0 is the shuttle: parked at a plain Recv, the only
	// migratable rank in the job. Ranks 1-3 are ballast parked at a
	// Waitall (not a plain Recv, so never migratable) — they keep
	// every worker's job un-done so MigrateRanks keeps waiting for
	// the shuttle instead of declaring completion.
	prog := ampi.Call(func(pc *ampi.PC) ampi.Proc {
		if pc.Rank() == 0 {
			return ampi.Recv(1, 7, nil)
		}
		return ampi.Waitall(func(pc *ampi.PC) []*ampi.Req {
			return []*ampi.Req{pc.Irecv(0, 9)}
		})
	})
	build := func(m *core.Machine) (*ampi.Job, error) {
		return ampi.NewProgram(m, 4, ampi.Options{Mode: ampi.ModeEvent, BlockPlacement: true}, prog)
	}
	var ws [2]*Worker
	for i := range ws {
		w, err := NewWorker(i, 2, 2, fabs[i], build)
		if err != nil {
			b.Fatal(err)
		}
		ws[i] = w
	}
	var wg sync.WaitGroup
	wg.Add(2)
	for _, w := range ws {
		go func(w *Worker) {
			defer wg.Done()
			w.Run()
		}(w)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ws[0].MigrateRanks(1, 1) != 1 {
			b.Fatal("forward move failed")
		}
		if ws[1].MigrateRanks(1, 0) != 1 {
			b.Fatal("return move failed")
		}
	}
	b.StopTimer()
	moved := ws[0].movedOut.Load() + ws[1].movedOut.Load()
	if moved > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moved), "ns/rank-moved")
	}
	reportWireMetrics(b, ws[0].T.SocketStats())
	for ws[0].outstanding.Load() != 0 || ws[1].outstanding.Load() != 0 {
		runtime.Gosched()
	}
	if err := ws[0].T.Broadcast(ctrlStop, nil); err != nil {
		b.Fatal(err)
	}
	ws[0].enterStop()
	wg.Wait()
	for _, w := range ws {
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossProcessMigration is the socket-fabric migration cost.
func BenchmarkCrossProcessMigration(b *testing.B) { benchRecordPingPong(b, "unix") }

// BenchmarkCrossProcessMigrationShm is the same record protocol over
// shared-memory rings.
func BenchmarkCrossProcessMigrationShm(b *testing.B) { benchRecordPingPong(b, "shm") }

// benchMigrationJacobi runs the full 2-worker Jacobi with the
// migration driver racing it and charges the whole run to the ranks
// that crossed the fabric. The app's event-engine compute dominates
// this number on any fabric — it contextualizes the protocol
// benchmarks above, it does not isolate the wire.
func benchMigrationJacobi(b *testing.B, netKind string) {
	cfg := ampi.JacobiConfig{
		Mode: ampi.ModeEvent, Ranks: 64, Iters: 50, PEs: 4,
		HaloBytes: 8, WorkNs: 1000, BlockPlacement: true,
	}
	spec := JacobiSpec{Cfg: cfg, Migrate: 16}
	moved := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps := runPairJacobi(b, spec, netKind)
		moved += reps[0].Moved + reps[1].Moved
	}
	b.StopTimer()
	if moved > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moved), "ns/rank-moved")
		b.ReportMetric(float64(moved)/float64(b.N), "ranks-moved/op")
	}
}

// BenchmarkCrossProcessMigrationJacobi is migration under live Jacobi
// traffic on the socket fabric.
func BenchmarkCrossProcessMigrationJacobi(b *testing.B) { benchMigrationJacobi(b, "unix") }

// BenchmarkCrossProcessMigrationJacobiShm is the same run over
// shared-memory rings.
func BenchmarkCrossProcessMigrationJacobiShm(b *testing.B) { benchMigrationJacobi(b, "shm") }
