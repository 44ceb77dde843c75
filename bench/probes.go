package main

// Layer probes: each calls one layer's exported functions at the
// shape the workloads use them in, and reports a unit cost. They run
// together in one fresh child process (`child -phase probe`), after
// the traced repetitions, and never touch an end-to-end metric.

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"migflow/internal/ampi"
	"migflow/internal/bigsim"
	"migflow/internal/comm"
	"migflow/internal/converse"
	"migflow/internal/core"
	"migflow/internal/harness"
	"migflow/internal/loadbalance"
	"migflow/internal/mem"
	"migflow/internal/migrate"
	"migflow/internal/npb"
	"migflow/internal/pup"
	"migflow/internal/shard"
	"migflow/internal/vmem"
)

// probe is one named measurement; it stores its metrics through set.
type probe struct {
	name string
	fn   func(p *prober) error
}

type prober struct {
	r *rec
	// div shrinks every probe's population for the smoke tests.
	div int
}

func (p *prober) set(name string, v float64) { p.r.res.Layer[name] = v }

// n scales a full-size count down for toy runs, keeping at least min.
func (p *prober) n(full, min int) int {
	if v := full / p.div; v > min {
		return v
	}
	return min
}

// perOp times fn (which performs ops operations) and returns ns/op.
func perOp(ops int, fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return float64(time.Since(t0).Nanoseconds()) / float64(ops), err
}

var probes = []probe{
	{"converse", probeConverse},
	{"core", probeCore},
	{"comm in-process", probeCommLocal},
	{"comm wire codec", probeWire},
	{"comm cross-transport shm", func(p *prober) error { return probeXSend(p, "shm") }},
	{"comm cross-transport unix", func(p *prober) error { return probeXSend(p, "unix") }},
	{"ampi build + p2p", probeAMPI},
	{"ampi allreduce", probeAllreduce},
	{"ampi rebalance event", func(p *prober) error { return probeRebalance(p, ampi.ModeEvent) }},
	{"ampi rebalance ult", func(p *prober) error { return probeRebalance(p, ampi.ModeULT) }},
	{"migrate records", probeRecordMigrate},
	{"migrate threads", probeThreadMigrate},
	{"pup vmem mem", probeMemory},
	{"bigsim", probeBigSim},
	{"npb", probeNPB},
	{"shard rendezvous", probeRendezvous},
	{"shard xmigrate shm", func(p *prober) error { return probeXMigrate(p, "shm") }},
	{"shard xmigrate unix", func(p *prober) error { return probeXMigrate(p, "unix") }},
}

func runAllProbes(r *rec) {
	p := &prober{r: r, div: 1}
	if r.toy {
		p.div = 16
	}
	for _, pr := range probes {
		err := r.span("probe "+pr.name, func() error { return pr.fn(p) })
		if err != nil {
			r.fail("probe %s: %v", pr.name, err)
		}
		runtime.GC() // one probe's garbage is not the next one's cost
	}
}

// ---- converse ----

// ultMachine boots a 1-PE machine whose isomalloc slot holds n stacks.
func ultMachine(n int, stack uint64) (*core.Machine, error) {
	pages := uint64(n)*(vmem.RoundUpPages(stack)/vmem.PageSize+10) + 1024
	cfg := core.Config{NumPEs: 1}
	if pages > core.DefaultIsoSlotPages {
		cfg.IsoSlotPages = pages
	}
	return core.NewMachine(cfg)
}

// probeConverse measures thread creation (create + start + exit) and
// the cost of one yield among n ready threads.
func probeConverse(p *prober) error {
	n := p.n(8192, 128)
	opts := converse.ThreadOptions{Strategy: migrate.Isomalloc{}, StackSize: 16 << 10}
	m, err := ultMachine(n, opts.StackSize)
	if err != nil {
		return err
	}
	s := m.PE(0).Sched
	v, err := perOp(n, func() error {
		for i := 0; i < n; i++ {
			th, err := s.CthCreate(opts, func(*converse.Ctx) {})
			if err != nil {
				return err
			}
			s.Start(th)
		}
		s.RunUntilIdle()
		return nil
	})
	if err != nil {
		return err
	}
	p.set("converse.spawn_ns", v)
	runtime.GC()

	// Start n threads and let each park itself, so the timed drain
	// below holds yields only: no goroutine start-up.
	if m, err = ultMachine(n, opts.StackSize); err != nil {
		return err
	}
	s = m.PE(0).Sched
	const yields = 8
	threads := make([]*converse.Thread, n)
	for i := range threads {
		threads[i], err = s.CthCreate(opts, func(c *converse.Ctx) {
			c.Suspend()
			for k := 0; k < yields; k++ {
				c.Yield()
			}
		})
		if err != nil {
			return err
		}
		s.Start(threads[i])
	}
	s.RunUntilIdle()
	for _, th := range threads {
		th.Awaken()
	}
	before := s.Switches()
	t0 := time.Now()
	s.RunUntilIdle()
	el := time.Since(t0)
	if s.Live() != 0 {
		return fmt.Errorf("%d threads still live after the yield drain", s.Live())
	}
	p.set("converse.switch_ns", float64(el.Nanoseconds())/float64(s.Switches()-before))
	return nil
}

// ---- core ----

func probeCore(p *prober) error {
	var builds []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := core.NewMachine(core.Config{NumPEs: 8}); err != nil {
			return err
		}
		builds = append(builds, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	sort.Float64s(builds)
	p.set("core.machine_build_ms", builds[len(builds)/2])

	// Pump: messages to a dense entity range on PE 1, delivered to a
	// no-op range handler — the path every event-rank message takes.
	m, err := core.NewMachine(core.Config{NumPEs: 2})
	if err != nil {
		return err
	}
	const ents = 1024
	base := m.Network().AllocFlowIDs(ents)
	pes := make([]int, ents)
	for i := range pes {
		pes[i] = 1
	}
	if err := m.Network().RegisterRange(base, pes); err != nil {
		return err
	}
	if err := m.RegisterEntityRange(base, base+ents-1, func(int, *comm.Message) {}); err != nil {
		return err
	}
	src := m.Network().Endpoint(0)
	payload := make([]byte, 8)
	rounds := p.n(400, 8)
	var pumpNs int64
	for r := 0; r < rounds; r++ {
		for i := 0; i < ents; i++ {
			if err := src.Send(&comm.Message{To: base + comm.EntityID(i), Data: payload}); err != nil {
				return err
			}
		}
		t0 := time.Now()
		got := 0
		for got < ents {
			k := m.Pump(1)
			if k == 0 {
				return fmt.Errorf("pump delivered %d of %d messages", got, ents)
			}
			got += k
		}
		pumpNs += time.Since(t0).Nanoseconds()
	}
	p.set("core.pump_ns", float64(pumpNs)/float64(rounds*ents))
	return nil
}

// ---- comm, in-process ----

func probeCommLocal(p *prober) error {
	lat := comm.LatencyModel{Alpha: 1000, BetaPerByte: 0.4}
	send := func(size, ops int) (float64, error) {
		n := comm.NewNetwork(2, lat)
		if err := n.Register(1, 1); err != nil {
			return 0, err
		}
		src, dst := n.Endpoint(0), n.Endpoint(1)
		data := make([]byte, size)
		return perOp(ops, func() error {
			for i := 0; i < ops; i++ {
				if err := src.Send(&comm.Message{To: 1, From: 2, Data: data}); err != nil {
					return err
				}
				if dst.Poll() == nil {
					return fmt.Errorf("message not delivered")
				}
			}
			return nil
		})
	}
	ops := p.n(400_000, 2000)
	v, err := send(8, ops)
	if err != nil {
		return err
	}
	p.set("comm.send_ns", v)
	if v, err = send(4096, ops); err != nil {
		return err
	}
	p.set("comm.send_4k_ns", v)

	n := comm.NewNetwork(8, lat)
	const ents = 1024
	for i := 0; i < ents; i++ {
		if err := n.Register(comm.EntityID(i+1), i%8); err != nil {
			return err
		}
	}
	v, err = perOp(ops, func() error {
		for i := 0; i < ops; i++ {
			if _, err := n.Locate(comm.EntityID(i%ents + 1)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("comm.locate_ns", v)

	// Streaming aggregation at 16 payloads per envelope.
	an := comm.NewNetwork(2, lat)
	for i := 0; i < 8; i++ {
		if err := an.Register(comm.EntityID(i+1), 1); err != nil {
			return err
		}
	}
	src, dst := an.Endpoint(0), an.Endpoint(1)
	src.EnableAggregation(comm.AggPolicy{MaxPayloads: 16, MaxBytes: 1 << 20})
	payload := make([]byte, 8)
	const burst = 64
	bursts := p.n(4000, 20)
	v, err = perOp(bursts*burst, func() error {
		for b := 0; b < bursts; b++ {
			for j := 0; j < burst; j++ {
				if err := src.SendStream(&comm.Message{To: comm.EntityID(j%8 + 1), Data: payload}); err != nil {
					return err
				}
			}
			if err := src.Flush(); err != nil {
				return err
			}
			for j := 0; j < burst; j++ {
				if dst.Poll() == nil {
					return fmt.Errorf("aggregated message lost")
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("comm.agg_ns_per_payload", v)
	return nil
}

func probeWire(p *prober) error {
	msgs := make([]*comm.Message, 16)
	for i := range msgs {
		msgs[i] = &comm.Message{To: comm.EntityID(i + 1), From: 99, Tag: 1, Data: make([]byte, 8), Seq: uint64(i + 1)}
	}
	ops := p.n(100_000, 500)
	var image []byte
	v, err := perOp(ops, func() (err error) {
		for i := 0; i < ops; i++ {
			if image, err = comm.EncodeEnvelope(1, msgs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("comm.wire_encode_ns", v)
	v, err = perOp(ops, func() error {
		for i := 0; i < ops; i++ {
			if _, _, err := comm.DecodeEnvelope(image); err != nil {
				return err
			}
		}
		return nil
	})
	p.set("comm.wire_decode_ns", v)
	return err
}

// ---- two in-process workers over a real fabric ----

// pairFabrics builds the fabric of a two-worker mesh inside this
// process: a unix socketpair, or shared-memory rings on tmpfs. The
// returned cleanup removes the ring directory.
func pairFabrics(netKind string) ([2]shard.Fabric, func(), error) {
	if netKind == "shm" {
		dir, err := os.MkdirTemp(comm.ShmDir(), "migflow-bench-*")
		if err != nil {
			return [2]shard.Fabric{}, nil, err
		}
		cleanup := func() { os.RemoveAll(dir) }
		if err := comm.CreateShmMesh(dir, 2, 0); err != nil {
			cleanup()
			return [2]shard.Fabric{}, nil, err
		}
		return [2]shard.Fabric{{Net: "shm", Dir: dir}, {Net: "shm", Dir: dir}}, cleanup, nil
	}
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return [2]shard.Fabric{}, nil, err
	}
	var conns [2]net.Conn
	for i, fd := range fds {
		f := os.NewFile(uintptr(fd), "socketpair")
		conns[i], err = net.FileConn(f)
		f.Close()
		if err != nil {
			return [2]shard.Fabric{}, nil, err
		}
	}
	return [2]shard.Fabric{
		{Net: "unix", Conns: map[int]net.Conn{1: conns[0]}},
		{Net: "unix", Conns: map[int]net.Conn{0: conns[1]}},
	}, func() {}, nil
}

// waitPending yields until the endpoint has a message: a bare spin
// would starve the transport's reader goroutines on a small machine.
func waitPending(ep *comm.Endpoint) {
	for i := 0; ep.Pending() == 0; i++ {
		if i < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Microsecond)
		}
	}
}

// probeXSend streams messages PE0 -> PE2 between two 4-PE networks
// joined by one link, one message per envelope as the sharded Jacobi
// sends them, and waits for all of them on the far side.
func probeXSend(p *prober, netKind string) error {
	fabs, cleanup, err := pairFabrics(netKind)
	if err != nil {
		return err
	}
	defer cleanup()
	owner := func(pe int) int { return pe / 2 }
	lat := comm.LatencyModel{Alpha: 1000, BetaPerByte: 0.4}
	var nets [2]*comm.Network
	var ts [2]comm.ShardTransport
	for i := range nets {
		nets[i] = comm.NewNetwork(4, lat)
		if netKind == "shm" {
			t, err := comm.NewShmTransport(i, 2, owner, fabs[i].Dir)
			if err != nil {
				return err
			}
			ts[i] = t
		} else {
			t := comm.NewSocketTransport(i, 2, owner)
			if err := t.AddPeer(1-i, fabs[i].Conns[1-i]); err != nil {
				return err
			}
			ts[i] = t
		}
		if err := ts[i].Attach(nets[i], 2*i, 2*i+2); err != nil {
			return err
		}
		if err := nets[i].Register(9, 2); err != nil {
			return err
		}
	}
	for _, t := range ts {
		t.SetControlHandler(func(int, uint32, []byte) {})
		if err := t.Start(); err != nil {
			return err
		}
	}
	src, dst := nets[0].Endpoint(0), nets[1].Endpoint(2)
	data := make([]byte, 8)
	ops := p.n(100_000, 500)
	v, err := perOp(ops, func() error {
		got := 0
		for i := 0; i < ops; i++ {
			if err := src.Send(&comm.Message{To: 9, From: 1, Data: data}); err != nil {
				return err
			}
			for dst.Poll() != nil {
				got++
			}
		}
		for got < ops {
			waitPending(dst)
			for dst.Poll() != nil {
				got++
			}
		}
		return nil
	})
	for _, t := range ts {
		t.Retire()
	}
	for _, t := range ts {
		if cerr := t.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	p.set("comm.xsend_"+netKind+"_ns", v)
	return err
}

// probeXMigrate ships parked event ranks between an in-process worker
// pair with the production Worker.MigrateRanks path, racing a live
// Jacobi run, and charges the call to the ranks it moved.
func probeXMigrate(p *prober, netKind string) error {
	fabs, cleanup, err := pairFabrics(netKind)
	if err != nil {
		return err
	}
	defer cleanup()
	cfg := ampi.JacobiConfig{
		Mode: ampi.ModeEvent, Ranks: p.n(4096, 64), Iters: 100, PEs: 2,
		BlockPlacement: true,
	}
	var ws [2]*shard.Worker
	for i := range ws {
		ws[i], err = shard.NewWorker(i, 2, cfg.PEs, fabs[i], func(m *core.Machine) (*ampi.Job, error) {
			return ampi.NewJacobiOn(m, cfg)
		})
		if err != nil {
			return err
		}
	}
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *shard.Worker) {
			defer wg.Done()
			w.Run()
		}(w)
	}
	want := p.n(512, 16)
	t0 := time.Now()
	moved := ws[0].MigrateRanks(want, 1)
	el := time.Since(t0)
	wg.Wait()
	for _, w := range ws {
		if cerr := w.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if moved == 0 {
		return fmt.Errorf("no rank crossed the %s fabric", netKind)
	}
	p.set("shard.xmigrate_"+netKind+"_us_per_rank", float64(el.Nanoseconds())/1e3/float64(moved))
	return err
}

func probeRendezvous(p *prober) error {
	t0 := time.Now()
	_, err := shard.Run(shard.ProcSpec{App: shardNoopApp, Workers: 2, Net: "unix"})
	p.set("shard.rendezvous_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	return err
}

// ---- ampi ----

func probeAMPI(p *prober) error {
	for _, c := range []struct {
		mode, build, step string
		ranks             int
	}{
		{ampi.ModeEvent, "ampi.build_ns_per_rank", "ampi.p2p_ns_per_rank_step", p.n(32768, 128)},
		{ampi.ModeULT, "ampi.build_ult_ns_per_rank", "ampi.ult_p2p_ns_per_rank_step", p.n(2048, 64)},
	} {
		// The workloads' Jacobi without its collectives, at their
		// iteration count: a rank's first step costs several later ones.
		cfg := ampi.JacobiConfig{Mode: c.mode, Ranks: c.ranks, Iters: 8, PEs: 8, BlockPlacement: true}
		var job *ampi.Job
		v, err := perOp(c.ranks, func() (err error) {
			_, job, err = ampi.NewJacobi(cfg)
			return err
		})
		if err != nil {
			return err
		}
		p.set(c.build, v)
		v, _ = perOp(c.ranks*cfg.Iters, func() error { job.Run(); return nil })
		if !job.Done() {
			return fmt.Errorf("%s Jacobi probe incomplete", c.mode)
		}
		p.set(c.step, v)
		runtime.GC()
	}
	return nil
}

// probeAllreduce runs a bench-authored Proc of k Allreduces and
// nothing else on event ranks.
func probeAllreduce(p *prober) error {
	ranks, k := p.n(32768, 128), 4
	m, err := core.NewMachine(core.Config{NumPEs: 8})
	if err != nil {
		return err
	}
	prog := ampi.For(k, func(int) ampi.Proc {
		return ampi.Allreduce("max", func(pc *ampi.PC) float64 { return float64(pc.Rank()) }, nil)
	})
	job, err := ampi.NewProgram(m, ranks, ampi.Options{Mode: ampi.ModeEvent, BlockPlacement: true}, prog)
	if err != nil {
		return err
	}
	v, _ := perOp(ranks*k, func() error { job.Run(); return nil })
	if !job.Done() {
		return fmt.Errorf("allreduce probe incomplete")
	}
	p.set("ampi.allreduce_ns_per_rank", v)
	return nil
}

// probeRebalance drives a Jacobi job to its parked LB gate, then calls
// the exported Job.Rebalance, alternating GreedyLB and RotateLB, and
// charges the calls to the ranks they moved. Migration must be
// invisible to the simulation: the virtual-time sum may not change by
// a bit.
func probeRebalance(p *prober, mode string) error {
	cfg := ampi.JacobiConfig{
		Mode: mode, Ranks: p.n(65536, 128), Iters: 2, PEs: 8,
		BlockPlacement: true, WorkSkew: 0.5, MigrateAt: 1, LB: loadbalance.GreedyLB{},
	}
	name := "ampi.rebalance_event_us_per_rank"
	if mode == ampi.ModeULT {
		cfg.Ranks, cfg.StackUse = p.n(4096, 64), 8<<10
		name = "ampi.rebalance_ult_us_per_rank"
	}
	m, job, err := ampi.NewJacobi(cfg)
	if err != nil {
		return err
	}
	job.Start()
	m.RunUntilQuiescent()
	vtSum := func() uint64 {
		d := newDigest()
		for i := 0; i < job.Size(); i++ {
			d.f64(job.VT(i))
		}
		return d.h
	}
	before := vtSum()
	moved := 0
	t0 := time.Now()
	for i := 0; i < 4; i++ {
		var lb loadbalance.Strategy = loadbalance.GreedyLB{}
		if i%2 == 1 {
			lb = loadbalance.RotateLB{}
		}
		n, err := job.Rebalance(lb)
		if err != nil {
			return err
		}
		moved += n
	}
	el := time.Since(t0)
	if vtSum() != before {
		return fmt.Errorf("%s rebalance changed virtual time", mode)
	}
	if moved == 0 {
		return fmt.Errorf("%s rebalance moved no rank", mode)
	}
	p.set(name, float64(el.Nanoseconds())/1e3/float64(moved))
	return nil
}

// ---- migrate ----

// blobRecord is a bench-authored migrate.Record the size of an event
// rank's continuation record.
type blobRecord struct {
	id   uint64
	data []byte
}

func (b *blobRecord) ID() uint64                 { return b.id }
func (b *blobRecord) Extract(p *pup.PUPer) error { return p.Bytes(&b.data) }
func (b *blobRecord) Install(data []byte) error  { return pup.NewUnpacker(data).Bytes(&b.data) }

func probeRecordMigrate(p *prober) error {
	const pes = 8
	m, err := core.NewMachine(core.Config{NumPEs: pes})
	if err != nil {
		return err
	}
	n := p.n(65536, 128)
	base := uint64(m.Network().AllocFlowIDs(n))
	recs := make([]*blobRecord, n)
	for i := range recs {
		recs[i] = &blobRecord{id: base + uint64(i), data: make([]byte, 180)}
	}
	moves := make([]core.Move, n)
	const rounds = 4
	moved := 0
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i, rec := range recs {
			moves[i] = core.Move{R: rec, Src: (i + r) % pes, Dest: (i + r + 1) % pes}
		}
		k, err := m.MigrateMany(moves)
		if err != nil {
			return err
		}
		moved += k
	}
	el := time.Since(t0)
	_, bytes := m.MigrationStats()
	p.set("migrate.record_ns_per_rank", float64(el.Nanoseconds())/float64(moved))
	p.set("migrate.record_bytes_per_rank", float64(bytes)/float64(moved))
	return nil
}

func probeThreadMigrate(p *prober) error {
	for _, c := range []struct {
		strat converse.StackStrategy
		ns    string
		bytes string
	}{
		{migrate.Isomalloc{}, "migrate.iso_ns_per_rank", "migrate.iso_bytes_per_rank"},
		{migrate.StackCopy{}, "migrate.stackcopy_ns_per_rank", ""},
		{migrate.MemoryAlias{}, "migrate.memalias_ns_per_rank", ""},
	} {
		const pes = 4
		n := p.n(1024, 32)
		cfg := core.Config{NumPEs: pes}
		m, err := core.NewMachine(cfg)
		if err != nil {
			return err
		}
		// Park n threads, each holding 8 KiB of live, dirtied frames on
		// a 16 KiB stack — what an AMPI ULT rank carries.
		threads := make([]*converse.Thread, n)
		var bodyErr error
		for i := range threads {
			s := m.PE(i % pes).Sched
			threads[i], err = s.CthCreate(converse.ThreadOptions{Strategy: c.strat, StackSize: 16 << 10}, func(ctx *converse.Ctx) {
				frame, err := ctx.PushFrame(8 << 10)
				if err == nil {
					for off := uint64(0); off < 8<<10 && err == nil; off += vmem.PageSize {
						err = ctx.Space().WriteUint64(frame.Add(off), off)
					}
				}
				if err != nil {
					bodyErr = err
					return
				}
				ctx.Suspend()
			})
			if err != nil {
				return err
			}
			s.Start(threads[i])
		}
		m.RunUntilQuiescent()
		if bodyErr != nil {
			return bodyErr
		}
		moves := make([]core.Move, n)
		const rounds = 4
		moved := 0
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for i, th := range threads {
				moves[i] = core.Move{T: th, Dest: (i + r + 1) % pes}
			}
			k, err := m.MigrateMany(moves)
			if err != nil {
				return err
			}
			moved += k
		}
		el := time.Since(t0)
		if moved == 0 {
			return fmt.Errorf("%s: no thread moved", c.strat.Name())
		}
		p.set(c.ns, float64(el.Nanoseconds())/float64(moved))
		if c.bytes != "" {
			_, bytes := m.MigrationStats()
			p.set(c.bytes, float64(bytes)/float64(moved))
		}
		runtime.GC()
	}
	return nil
}

// ---- pup, vmem, mem ----

func probeMemory(p *prober) error {
	const kb = 16
	im := &converse.StackImage{Strategy: "isomalloc", Base: 0x40000000, Size: kb << 10,
		Runs: []vmem.Run{{Addr: 0x40000000, Data: make([]byte, kb<<10)}}}
	ops := p.n(20_000, 200)
	var data []byte
	v, err := perOp(ops*kb, func() (err error) {
		for i := 0; i < ops; i++ {
			if data, err = pup.Pack(im); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("pup.pack_ns_per_kb", v)
	v, err = perOp(ops*kb, func() error {
		for i := 0; i < ops; i++ {
			var out converse.StackImage
			if err := pup.Unpack(data, &out); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("pup.unpack_ns_per_kb", v)

	s := vmem.NewSpace(0)
	const at = vmem.Addr(0x10000)
	v, err = perOp(ops, func() error {
		for i := 0; i < ops; i++ {
			if err := s.Map(at, 4*vmem.PageSize, vmem.ProtRW); err != nil {
				return err
			}
			if err := s.Unmap(at, 4*vmem.PageSize); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("vmem.map_unmap_ns", v)
	if err := s.Map(at, 16*vmem.PageSize, vmem.ProtRW); err != nil {
		return err
	}
	buf := make([]byte, 4096)
	v, err = perOp(ops*8, func() error { // 4 KiB written + 4 KiB read per op
		for i := 0; i < ops; i++ {
			if err := s.Write(at.Add(0x800), buf); err != nil {
				return err
			}
			if err := s.Read(at.Add(0x800), buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("vmem.rw_ns_per_kb", v)

	region, err := mem.NewIsoRegion(mem.DefaultIsoBase, 1<<30, 1)
	if err != nil {
		return err
	}
	iso := mem.NewIsoAllocator(region, 0)
	v, err = perOp(ops, func() error {
		for i := 0; i < ops; i++ {
			a, err := iso.AllocSlab(6)
			if err != nil {
				return err
			}
			if err := iso.FreeSlab(a); err != nil {
				return err
			}
		}
		return nil
	})
	p.set("mem.iso_alloc_ns", v)
	return err
}

// ---- bigsim ----

func probeBigSim(p *prober) error {
	cfg := bigsim.Config{X: 32, Y: 28, Z: 28, SimPEs: 32, Mode: bigsim.ModeEvent}
	steps := 20
	if p.div > 1 {
		cfg.X, cfg.Y, cfg.Z, cfg.SimPEs, steps = 8, 7, 7, 4, 4
	}
	for _, c := range []struct {
		name     string
		parallel bool
	}{{"bigsim.step_ns_per_target", false}, {"bigsim.parallel_step_ns_per_target", true}} {
		sim, err := bigsim.New(cfg)
		if err != nil {
			return err
		}
		v, _ := perOp(sim.NumTargets()*steps, func() error {
			if c.parallel {
				sim.RunParallel(steps)
			} else {
				sim.Run(steps)
			}
			return nil
		})
		sim.Close()
		p.set(c.name, v)
	}
	bytes, _, err := harness.FlowFootprint(cfg)
	p.set("bigsim.bytes_per_target", bytes)
	return err
}

// ---- npb ----

func probeNPB(p *prober) error {
	class := npb.ClassZ4K
	steps := 20
	if p.div > 1 {
		class, steps = npb.GradedClass("Z256", 16, 16, 1<<16, 20, 50), 4
	}
	params := npb.Params{Class: class, NProcs: class.NumZones(), NPEs: 8, Steps: steps, Mode: ampi.ModeEvent}
	m, err := core.NewMachine(core.Config{NumPEs: params.NPEs})
	if err != nil {
		return err
	}
	var job *ampi.Job
	v, err := perOp(1, func() (err error) {
		job, err = npb.ProgramJob(m, params)
		return err
	})
	if err != nil {
		return err
	}
	p.set("npb.build_ms", v/1e6)
	v, _ = perOp(params.NProcs*steps, func() error { job.Run(); return nil })
	if !job.Done() {
		return fmt.Errorf("npb probe incomplete")
	}
	p.set("npb.step_ns_per_zone", v)

	// Figure 12's quantity: modeled makespan without LB over with LB.
	base, err := npb.Run(params)
	if err != nil {
		return err
	}
	params.LB = loadbalance.GreedyLB{}
	lb, err := npb.Run(params)
	if err != nil {
		return err
	}
	p.set("npb.lb_vt_speedup", base.TimeNs/lb.TimeNs)
	return nil
}
