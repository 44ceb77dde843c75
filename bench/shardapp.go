package main

// The sharded Jacobi workloads. The app is registered by the bench
// binary itself (shard.RegisterApp + shard.WorkerMain in main), so
// each worker process can measure its own set-up, run span, memory
// and link counters — from outside the library, through exported
// calls only.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"migflow/internal/ampi"
	"migflow/internal/comm"
	"migflow/internal/core"
	"migflow/internal/shard"
)

const (
	shardJacobiApp = "bench-jacobi"
	shardNoopApp   = "bench-noop"
)

type shardSpec struct {
	Cfg   ampi.JacobiConfig
	Trace bool
	Hang  bool // test hook: workers never finish after rendezvous
}

// workerReport is one worker's self-measurement. Per-rank outputs
// travel as commutative digests (sums of per-rank hashes), so the
// merged key does not depend on which worker finished which rank.
type workerReport struct {
	BuildDoneUnixNs int64
	RunS            float64
	LiveGrowth      float64
	Mallocs         uint64
	PeakRSSMB       float64

	Ranks  int    // ranks owned at completion
	VTSum  uint64 // Σ hash(rank, VT bits)
	Cells  int    // cells observed
	CelSum uint64 // Σ hash(rank, x, resid, global)
	MaxVT  uint64 // bits of the largest owned rank VT

	Net   comm.StatsSnapshot
	Sock  comm.SocketStats
	Layer map[string]float64
	Spans []span
}

func hashRank(rank int, vals ...uint64) uint64 {
	d := newDigest()
	d.u64(uint64(rank))
	for _, v := range vals {
		d.u64(v)
	}
	return d.h
}

// cellSum is the concurrent Observe collector (PE goroutines call it).
type cellSum struct {
	mu  sync.Mutex
	n   int
	sum uint64
}

func (s *cellSum) observe(rank int, c ampi.JacobiCell) {
	h := hashRank(rank, math.Float64bits(c.X), math.Float64bits(c.Resid), math.Float64bits(c.Global))
	s.mu.Lock()
	s.n++
	s.sum += h
	s.mu.Unlock()
}

func runShardJacobiWorker(index, workers int, fab shard.Fabric, payload []byte) (any, error) {
	var spec shardSpec
	if err := json.Unmarshal(payload, &spec); err != nil {
		return nil, err
	}
	r := newRec("worker", int64(index), false, spec.Trace)
	cells := &cellSum{}
	cfg := spec.Cfg
	cfg.Observe = cells.observe

	r.beginSetup()
	var w *shard.Worker
	err := r.span("shard.NewWorker", func() (err error) {
		w, err = shard.NewWorker(index, workers, cfg.PEs, fab, func(m *core.Machine) (*ampi.Job, error) {
			return ampi.NewJacobiOn(m, cfg)
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	if spec.Hang {
		time.Sleep(time.Hour)
	}
	rep := &workerReport{BuildDoneUnixNs: time.Now().UnixNano()}
	rep.LiveGrowth = r.endSetup()
	if err := buildBarrier(index, workers); err != nil {
		return nil, err
	}

	r.beginRun()
	r.span("Worker.Run", func() error { w.Run(); return nil })
	r.endRun()
	rep.RunS, rep.Mallocs, rep.PeakRSSMB = r.res.WallS, r.res.Mallocs, r.res.PeakRSSMB

	for i := 0; i < w.Job.Size(); i++ {
		if !w.Job.ShardOwns(i) {
			continue
		}
		bits := math.Float64bits(w.Job.VT(i))
		rep.Ranks++
		rep.VTSum += hashRank(i, bits)
		if math.Float64frombits(bits) > math.Float64frombits(rep.MaxVT) {
			rep.MaxVT = bits
		}
	}
	cells.mu.Lock()
	rep.Cells, rep.CelSum = cells.n, cells.sum
	cells.mu.Unlock()
	rep.Net = w.M.Network().Snapshot()
	rep.Sock = w.T.SocketStats()
	if err := r.span("Worker.Close", w.Close); err != nil {
		return nil, err
	}
	rep.Layer, rep.Spans = r.res.Layer, r.res.Spans
	return rep, nil
}

// buildBarrier holds a worker until every worker has built its share
// and taken its post-build memory snapshot. Without it the first
// worker to finish starts sending while its peer still measures, and
// the peer counts the inbound messages as memory its flows occupy
// (bytes_per_flow scattered by 1-3 % for that reason alone). The
// library exports no barrier before Run, so the workers meet in the
// rendezvous directory shard.Run already shares between them.
func buildBarrier(index, workers int) error {
	dir := os.Getenv(shardDirEnv)
	built := func(i int) string { return filepath.Join(dir, fmt.Sprintf("built-%d", i)) }
	if err := os.WriteFile(built(index), nil, 0o600); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < workers; i++ {
		for {
			if _, err := os.Stat(built(i)); err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("worker %d did not finish building", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func init() {
	shard.RegisterApp(shardJacobiApp, runShardJacobiWorker)
	shard.RegisterApp(shardNoopApp, func(int, int, shard.Fabric, []byte) (any, error) { return 0, nil })
}

func shardJacobiConfig(r *rec) ampi.JacobiConfig {
	k := knobsFor(r.seed)
	cfg := ampi.JacobiConfig{
		Mode: ampi.ModeEvent, Ranks: 65536 + k.off, Iters: 12, PEs: 2,
		ReduceEvery: 4, WorkSkew: k.skew, // round-robin: every halo crosses the fabric
	}
	if r.toy {
		cfg.Ranks, cfg.Iters, cfg.ReduceEvery = 256+k.off, 2, 2
	}
	return cfg
}

// buildShardJacobi cannot split construction from the run — both
// happen inside the worker processes shard.Run spawns — so the body
// runs everything and takes set-up and run spans from the workers'
// own clocks.
func buildShardJacobi(r *rec, netKind string) (func() error, error) {
	cfg := shardJacobiConfig(r)
	r.res.Flows, r.res.Steps = cfg.Ranks, cfg.Iters
	return func() error {
		t0 := time.Now()
		var raws []json.RawMessage
		err := r.span("shard.Run", func() (err error) {
			raws, err = shard.Run(shard.ProcSpec{
				App: shardJacobiApp, Workers: 2, Net: netKind,
				Payload: shardSpec{Cfg: cfg, Trace: r.trace, Hang: r.sabotage == "hang"},
			})
			return err
		})
		if err != nil {
			return err
		}
		return mergeWorkers(r, raws, cfg, t0)
	}, nil
}

func mergeWorkers(r *rec, raws []json.RawMessage, cfg ampi.JacobiConfig, t0 time.Time) error {
	var ranks, cells int
	var vtSum, celSum uint64
	var maxVT, setup, growth, maxRun float64
	minRun := math.Inf(1)
	var mallocs uint64
	l := r.res.Layer
	for i, raw := range raws {
		var rep workerReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			return fmt.Errorf("decoding worker %d report: %w", i, err)
		}
		ranks, cells = ranks+rep.Ranks, cells+rep.Cells
		vtSum, celSum = vtSum+rep.VTSum, celSum+rep.CelSum
		maxVT = math.Max(maxVT, math.Float64frombits(rep.MaxVT))
		setup = math.Max(setup, float64(rep.BuildDoneUnixNs-t0.UnixNano())/1e9)
		maxRun, minRun = math.Max(maxRun, rep.RunS), math.Min(minRun, rep.RunS)
		growth += rep.LiveGrowth
		mallocs += rep.Mallocs
		r.res.PeakRSSMB += rep.PeakRSSMB
		l["comm.msgs"] += float64(rep.Net.Sent)
		l["comm.bytes"] += float64(rep.Net.Bytes)
		l["comm.forwards"] += float64(rep.Net.Forwards)
		l["comm.envelopes"] += float64(rep.Net.RemoteEnvelopes)
		l["comm.env_bytes"] += float64(rep.Net.RemoteBytes)
		l["comm.write_syscalls"] += float64(rep.Sock.WriteSyscalls)
		l["comm.parks"] += float64(rep.Sock.Parks)
		for k, v := range rep.Layer {
			if k == "runtime.gc_cpu_share" {
				v /= float64(len(raws))
			}
			l[k] += v
		}
		r.res.Spans = append(r.res.Spans, rep.Spans...)
	}
	if ranks != cfg.Ranks || cells != cfg.Ranks {
		r.fail("shard: %d ranks and %d cells reported of %d", ranks, cells, cfg.Ranks)
	}
	r.res.SetupS, r.res.WallS = setup, maxRun
	r.res.BytesPerFlow = growth / float64(cfg.Ranks)
	r.res.Mallocs = mallocs
	r.res.FlowSteps = float64(cfg.Ranks) * float64(cfg.Iters)
	l["ampi.reduce_joins"] = float64(cfg.Ranks * (cfg.Iters / cfg.ReduceEvery))
	l["shard.worker_run_s"] = maxRun
	l["shard.worker_skew"] = maxRun / minRun
	r.setVT(maxVT)
	r.res.Key = fmt.Sprintf("%x.%x", vtSum, celSum)
	return nil
}

// refShardJacobi is shard.RunJacobiReference — the identical config
// in one process on the ring-buffer transport — digested the same way.
func refShardJacobi(r *rec) error {
	ref, err := shard.RunJacobiReference(shardJacobiConfig(r))
	if err != nil {
		return err
	}
	var vtSum, celSum uint64
	var maxVT float64
	for _, rv := range ref.Ranks {
		vtSum += hashRank(rv.Rank, rv.Bits)
		maxVT = math.Max(maxVT, math.Float64frombits(rv.Bits))
	}
	for _, c := range ref.Cells {
		celSum += hashRank(c.Rank, c.X, c.Resid, c.Global)
	}
	r.setVT(maxVT)
	r.res.Key = fmt.Sprintf("%x.%x", vtSum, celSum)
	return nil
}
