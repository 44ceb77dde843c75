package shard

// Transport benchmarks for the scenarios bench/ does not time (its
// comm.xsend_* probes stream un-aggregated messages and wait once at
// the end; shard.xmigrate_* move ranks in batches under live traffic):
// the lone cross-worker round trip, TRAM-aggregated streams over a
// real fabric, and a single record's migration latency. Both shard
// endpoints live in this process (real unix sockets or shm rings,
// separate Networks), so the numbers include the full wire path — PUP
// encode, writev or ring publish, read, decode — without
// subprocess-spawn noise.

import (
	"errors"
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

// benchShards builds two 4-PE sharded networks joined by one link of
// the given fabric (a unix socket, or mmap'd rings on tmpfs), with
// entity 9 registered on PE 2 — the far side — in both directories.
func benchShards(b *testing.B, netKind string) (n0, n1 *comm.Network, t0, t1 *comm.LinkTransport) {
	b.Helper()
	fabs := pairFabrics(b, netKind, 0)
	owner := func(pe int) int { return pe / 2 }
	var nets [2]*comm.Network
	var ts [2]*comm.LinkTransport
	for i := range nets {
		nets[i] = comm.NewNetwork(4, comm.LatencyModel{Alpha: 1000, BetaPerByte: 0.4})
		t, err := fabricTransport(i, 2, owner, fabs[i])
		if err != nil {
			b.Fatal(err)
		}
		ts[i] = t
		if err := t.Attach(nets[i], 2*i, 2*i+2); err != nil {
			b.Fatal(err)
		}
		if err := nets[i].Register(comm.EntityID(9), 2); err != nil {
			b.Fatal(err)
		}
	}
	for _, t := range ts {
		if err := t.Start(); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(func() {
		ts[0].Close()
		ts[1].Close()
	})
	return nets[0], nets[1], ts[0], ts[1]
}

// reportWireMetrics turns the transport counters into the writer's
// economy: frames per writer pass and bytes per syscall (the shm
// fabric never syscalls).
func reportWireMetrics(b *testing.B, st comm.SocketStats) {
	b.Helper()
	if st.WriteBatches > 0 {
		b.ReportMetric(float64(st.FramesSent)/float64(st.WriteBatches), "frames/pass")
	}
	if st.WriteSyscalls > 0 {
		b.ReportMetric(float64(st.BytesWritten)/float64(st.WriteSyscalls), "bytes/syscall")
	}
}

// benchSendCross sends PE0→PE2 across a real fabric and waits for
// delivery on the far Network before the next send — nothing else is
// in flight to coalesce with, so one message per wire envelope and one
// wakeup per message, the anti-coalescing worst case (the lone
// cross-worker Send that ROADMAP item 10, done, quotes).
func benchSendCross(b *testing.B, netKind string) {
	n0, n1, t0, t1 := benchShards(b, netKind)
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
	// Receiver-side parks: how often the shm reader gave up spinning
	// and napped before the next frame landed (0 on sockets).
	b.ReportMetric(float64(t1.SocketStats().Parks)/float64(b.N), "parks/op")
}

// BenchmarkTransportSendCross is the round trip over a unix socket.
func BenchmarkTransportSendCross(b *testing.B) { benchSendCross(b, "unix") }

// BenchmarkTransportSendCrossShm is the same ping-per-iteration
// workload over the shared-memory rings — the co-located wire-tax
// headline number against the socket baseline above.
func BenchmarkTransportSendCrossShm(b *testing.B) { benchSendCross(b, "shm") }

// benchSendCrossStream drives the same wire through the TRAM
// aggregator: each flushed bucket goes into the link's open envelope,
// which the writer seals whenever it takes the queue, and the socket
// writer drains whole queues per writev (shm frames publish with no
// syscall at all), so frames/pass and payloads/envelope are what the
// coalescing buys.
func benchSendCrossStream(b *testing.B, netKind string) {
	n0, n1, t0, _ := benchShards(b, netKind)
	n0.EnableAggregation(comm.AggPolicy{MaxPayloads: 16})
	src, dst := n0.Endpoint(0), n1.Endpoint(2)
	data := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.SendStream(&comm.Message{To: 9, From: 1, Data: data}); err != nil {
			b.Fatal(err)
		}
	}
	if err := src.Flush(); err != nil {
		b.Fatal(err)
	}
	for got := 0; got < b.N; got++ {
		spinUntil(dst.Pending)
		dst.Poll()
	}
	b.StopTimer()
	reportWireMetrics(b, t0.SocketStats())
	if s := n0.Snapshot(); s.RemotePayloads > 0 && s.RemoteEnvelopes > 0 {
		b.ReportMetric(float64(s.RemotePayloads)/float64(s.RemoteEnvelopes), "payloads/envelope")
	}
}

// BenchmarkTransportSendCrossStream is the aggregated stream over a
// unix socket.
func BenchmarkTransportSendCrossStream(b *testing.B) { benchSendCrossStream(b, "unix") }

// BenchmarkTransportSendCrossStreamShm is the aggregated stream over
// the shared-memory rings.
func BenchmarkTransportSendCrossStreamShm(b *testing.B) { benchSendCrossStream(b, "shm") }

// benchRecordPingPong isolates the migration protocol itself: two
// single-PE workers joined by a real fabric run a one-rank program
// parked at a plain Recv — the migratable steady state — and the
// bench shuttles that rank between them with Worker.move, the move
// MigrateRanks makes of each rank it picks. Each move is the full
// chain a mid-run migration pays: extract, record encode, wire frame,
// install, scheduler wake, re-park, and the ack back. ns/rank-moved here is pure protocol +
// fabric latency with no application compute charged to it; bench/'s
// shard.xmigrate_*_us_per_rank is the batched, under-live-traffic
// picture (512 ranks racing a running Jacobi).
func benchRecordPingPong(b *testing.B, netKind string) {
	fabs := pairFabrics(b, netKind, 0)
	// Rank 0 is the shuttle, parked at a plain receive. Ranks 1-3
	// have nothing to receive there and park at a Waitall: they keep
	// both jobs un-done, so the barrier never trips. They are
	// migratable too (every blocking point ships), so MigrateRanks
	// would pick any of them; the bench moves rank 0 by name, once
	// it is installed where it went.
	prog := ampi.Seq(
		ampi.RecvEach(func(pc *ampi.PC) []int {
			if pc.Rank() == 0 {
				return []int{1}
			}
			return nil
		}, 7, nil),
		ampi.Waitall(func(pc *ampi.PC) []*ampi.Req {
			return []*ampi.Req{pc.Irecv(0, 9)}
		}),
	)
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
	shuttle := func(from, to int) {
		spinUntil(func() int {
			if ws[from].Job.ShardMigratable(0) {
				return 1
			}
			return 0
		})
		if !ws[from].move(0, to, nil) {
			b.Fatalf("move to worker %d failed", to)
		}
	}
	for i := 0; i < b.N; i++ {
		shuttle(0, 1)
		shuttle(1, 0)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/rank-moved")
	reportWireMetrics(b, ws[0].T.SocketStats())
	// The job never finishes (ranks 1-3 wait forever), so the barrier
	// never trips: end both runs on the failure path.
	over := errors.New("benchmark over")
	for _, w := range ws {
		w.end(over)
	}
	wg.Wait()
	for _, w := range ws {
		if err := w.Close(); !errors.Is(err, over) {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossProcessMigration is the socket-fabric migration cost.
func BenchmarkCrossProcessMigration(b *testing.B) { benchRecordPingPong(b, "unix") }

// BenchmarkCrossProcessMigrationShm is the same record protocol over
// shared-memory rings.
func BenchmarkCrossProcessMigrationShm(b *testing.B) { benchRecordPingPong(b, "shm") }
