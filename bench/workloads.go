package main

// The eight workloads. Each has a build half (machine + job
// construction: setup_s, bytes_per_flow), a run half (wall_s,
// allocations, modeled time) and a reference path that must reproduce
// the run's equivalence key bit for bit by a different route. The
// library sees only the configs generated here from the seed.

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"migflow/internal/ampi"
	"migflow/internal/bigsim"
	"migflow/internal/core"
	"migflow/internal/flows"
	"migflow/internal/harness"
	"migflow/internal/loadbalance"
	"migflow/internal/npb"
	"migflow/internal/platform"
)

// workload is one row of the benchmark.
type workload struct {
	name string
	why  string
	// build constructs the job inside r's set-up window and returns
	// the run body.
	build func(r *rec) (run func() error, err error)
	// ref computes the equivalence key by the reference route.
	ref func(r *rec) error
	// sharded workloads run in worker processes, which measure
	// themselves; the repetition process only merges their reports.
	sharded bool
}

var workloads = []workload{
	{
		name:  "jacobi_event_128k",
		why:   "131k event ranks x 8 iters in-process: the ampi Proc interpreter, comm send/deliver and tree collectives do all the work; no threads, no migration, no wire",
		build: func(r *rec) (func() error, error) { return buildJacobi(r, jacobiConfig(r, 131072, ampi.ModeEvent)) },
		ref: func(r *rec) error {
			// Virtual time is PE-count-invariant: the same ranks on 5 PEs
			// must agree to the bit.
			cfg := jacobiConfig(r, 131072, ampi.ModeEvent)
			cfg.PEs = 5
			return refJacobi(r, cfg)
		},
	},
	{
		name:  "jacobi_ult_8k",
		why:   "same Jacobi program on 8k ULT ranks: converse scheduling, goroutine hand-off and isomalloc stacks dominate; event-path work should leave it flat",
		build: func(r *rec) (func() error, error) { return buildJacobi(r, jacobiConfig(r, 8192, ampi.ModeULT)) },
		ref:   func(r *rec) error { return refJacobi(r, jacobiConfig(r, 8192, ampi.ModeEvent)) },
	},
	{
		name:  "btmz_event_lb",
		why:   "BT-MZ Proc tree on 32k event zone-ranks with a GreedyLB gate: 4 KiB multi-neighbour halos, loadbalance.Plan and record migration (MoveRangeBatch)",
		build: func(r *rec) (func() error, error) { return buildBTMZ(r, btmzParams(r, ampi.ModeEvent)) },
		ref:   func(r *rec) error { return refBTMZ(r, btmzParams(r, ampi.ModeEvent)) },
	},
	{
		name:  "btmz_ult_lb",
		why:   "the paper's Figure 12 configuration at 4k zones: isomalloc thread migration, pup and vmem imaging under the LB gate",
		build: func(r *rec) (func() error, error) { return buildBTMZ(r, btmzParams(r, ampi.ModeULT)) },
		ref:   func(r *rec) error { return refBTMZ(r, btmzParams(r, ampi.ModeULT)) },
	},
	{
		name:  "bigsim_event_200k",
		why:   "the paper's Figure 11 at paper scale (200k targets); touches only bigsim, so every ampi/comm optimisation must leave it unmoved",
		build: buildBigSim,
		ref:   refBigSim,
	},
	{
		name:    "shard_jacobi_shm",
		why:     "2 worker processes over shared-memory rings, every halo crossing the fabric: shard control protocol, wire codec, aggregation and the shm ring",
		build:   func(r *rec) (func() error, error) { return buildShardJacobi(r, "shm") },
		ref:     refShardJacobi,
		sharded: true,
	},
	{
		name:    "shard_jacobi_unix",
		why:     "the identical sharded job over unix sockets: syscall-bound links beside spin/park rings, so a transport refactor that helps one fabric and costs the other shows",
		build:   func(r *rec) (func() error, error) { return buildShardJacobi(r, "unix") },
		ref:     refShardJacobi,
		sharded: true,
	},
	{
		name:  "repro_full",
		why:   "the paper's own evaluation (cmd/repro, non-quick): flows, platform, oskernel, swapglobal, stack strategies, minimal swap, ULT BigSim, legacy thread-API BT-MZ",
		build: buildRepro,
		ref:   refRepro,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// knobs are the seed-dependent input perturbations. The seed changes
// generated inputs only: counts move by a small odd offset (so powers
// of two are not special) and modeled-work parameters move virtual
// time without moving the amount of real work.
type knobs struct {
	off    int     // odd, in [-31, 31]
	skew   float64 // Jacobi WorkSkew
	ratio  float64 // BT-MZ zone grading
	aspect int     // BigSim torus choice
	work   float64 // BigSim modeled target work per cell (ns)
}

func knobsFor(seed int64) knobs {
	rng := rand.New(rand.NewSource(seed))
	off := 2*rng.Intn(16) + 1
	if rng.Intn(2) == 0 {
		off = -off
	}
	return knobs{
		off:    off,
		skew:   0.25 + 0.5*rng.Float64(),
		ratio:  18 + 4*rng.Float64(),
		aspect: rng.Intn(len(toruses)),
		work:   2500 + 1000*rng.Float64(),
	}
}

// ---- Jacobi (in-process) ----

func jacobiConfig(r *rec, ranks int, mode string) ampi.JacobiConfig {
	k := knobsFor(r.seed)
	cfg := ampi.JacobiConfig{
		Mode: mode, Ranks: ranks + k.off, Iters: 8, PEs: 8, ReduceEvery: 4,
		BlockPlacement: true, WorkSkew: k.skew,
	}
	if r.toy {
		cfg.Ranks, cfg.Iters, cfg.PEs, cfg.ReduceEvery = 256+k.off, 2, 4, 2
	}
	return cfg
}

func buildJacobi(r *rec, cfg ampi.JacobiConfig) (func() error, error) {
	var m *core.Machine
	var job *ampi.Job
	err := r.span("ampi.NewJacobi", func() (err error) {
		m, job, err = ampi.NewJacobi(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.res.Flows, r.res.Steps = cfg.Ranks, cfg.Iters
	return func() error {
		r.span("Job.Run", func() error { job.Run(); return nil })
		r.endRun()
		netCounts(r, m)
		r.res.Layer["ampi.reduce_joins"] = float64(cfg.Ranks * (cfg.Iters / cfg.ReduceEvery))
		return jacobiOutputs(r, job)
	}, nil
}

func refJacobi(r *rec, cfg ampi.JacobiConfig) error {
	_, job, err := ampi.NewJacobi(cfg)
	if err != nil {
		return err
	}
	job.Run()
	return jacobiOutputs(r, job)
}

// jacobiOutputs records a finished Jacobi job's modeled time and its
// key: every rank's final virtual time, in rank order.
func jacobiOutputs(r *rec, job *ampi.Job) error {
	if !job.Done() {
		return fmt.Errorf("jacobi: job incomplete")
	}
	d := newDigest()
	for i := 0; i < job.Size(); i++ {
		d.f64(job.VT(i))
	}
	r.setVT(job.PredictedNs())
	r.res.Key = d.String()
	return nil
}

// netCounts records the exact per-run comm counters.
func netCounts(r *rec, m *core.Machine) {
	s := m.Network().Snapshot()
	r.res.Layer["comm.msgs"] = float64(s.Sent)
	r.res.Layer["comm.bytes"] = float64(s.Bytes)
	r.res.Layer["comm.forwards"] = float64(s.Forwards)
	n, b := m.MigrationStats()
	r.res.Layer["migrate.moved"] = float64(n)
	r.res.Layer["migrate.bytes"] = float64(b)
}

// ---- BT-MZ ----

func btmzParams(r *rec, mode string) npb.Params {
	k := knobsFor(r.seed)
	p := npb.Params{Mode: mode, NPEs: 8, LB: loadbalance.GreedyLB{}}
	switch {
	case r.toy:
		p.Class = npb.GradedClass("Z256", 16, 16, 1<<16, k.ratio, 50)
		p.NPEs, p.Steps = 4, 2
	case mode == ampi.ModeEvent:
		p.Class = npb.GradedClass("Z32K", 180, 180, 1<<25, k.ratio, 50)
		p.Steps = 12
	default:
		p.Class = npb.GradedClass("Z4K", 64, 64, 1<<22, k.ratio, 50)
		p.Steps = 32
	}
	// A few ranks hold two zones, so the rank count is not a power of two.
	p.NProcs = p.Class.NumZones() - (k.off+32)/2
	return p
}

// gateSpy wraps the gate's strategy: it keeps the gate's real item
// set and plan (for the post-LB imbalance check and the offline
// hierarchical plan) and, in traced runs, times Plan in situ.
type gateSpy struct {
	loadbalance.Strategy
	r     *rec
	items []loadbalance.Item
	plan  loadbalance.Plan
	pes   int
}

func (g *gateSpy) Plan(items []loadbalance.Item, numPEs int) loadbalance.Plan {
	g.items, g.pes = append(g.items[:0], items...), numPEs
	t0 := time.Now()
	g.r.span("loadbalance.Plan", func() error {
		g.plan = g.Strategy.Plan(items, numPEs)
		return nil
	})
	g.r.res.Layer["loadbalance.plan_greedy_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	return g.plan
}

// buildBTMZ is what npb.Run does in program mode, split so that
// construction (zone assignment, topology, Proc tree) and the run are
// timed apart.
func buildBTMZ(r *rec, p npb.Params) (func() error, error) {
	spy := &gateSpy{Strategy: p.LB, r: r}
	p.LB = spy
	var m *core.Machine
	var job *ampi.Job
	err := r.span("core.NewMachine", func() (err error) {
		m, err = core.NewMachine(core.Config{NumPEs: p.NPEs})
		return err
	})
	if err != nil {
		return nil, err
	}
	err = r.span("npb.ProgramJob", func() (err error) {
		job, err = npb.ProgramJob(m, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.res.Flows, r.res.Steps = p.NProcs, p.Steps
	return func() error {
		r.span("Job.Run", func() error { job.Run(); return nil })
		r.endRun()
		if err := btmzOutputs(r, job); err != nil {
			return err
		}
		netCounts(r, m)
		r.res.Layer["npb.moved_ranks"] = float64(job.LBMoved())
		if job.LBMoved() == 0 {
			r.fail("btmz: LB gate moved no rank")
		}
		if spy.items == nil {
			r.fail("btmz: LB gate never planned")
			return nil
		}
		after := loadbalance.Imbalance(loadbalance.PELoads(spy.items, spy.pes, spy.plan))
		r.res.Layer["loadbalance.imbalance_after"] = after
		if after > 1.05 {
			r.fail("btmz: post-LB imbalance %.4f > 1.05", after)
		}
		if r.trace {
			t0 := time.Now()
			loadbalance.HierarchicalLB{}.Plan(spy.items, spy.pes)
			r.res.Layer["loadbalance.plan_hier_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
		}
		return nil
	}, nil
}

// refBTMZ is the same class in event mode without the LB gate: the
// predicted makespan is placement-invariant, so neither LB decisions
// nor the flow backend may change one bit of it.
func refBTMZ(r *rec, p npb.Params) error {
	p.Mode, p.LB = ampi.ModeEvent, nil
	m, err := core.NewMachine(core.Config{NumPEs: p.NPEs})
	if err != nil {
		return err
	}
	job, err := npb.ProgramJob(m, p)
	if err != nil {
		return err
	}
	job.Run()
	return btmzOutputs(r, job)
}

// btmzOutputs records a finished BT-MZ job's predicted makespan, which
// is also its key.
func btmzOutputs(r *rec, job *ampi.Job) error {
	if !job.Done() {
		return fmt.Errorf("btmz: job incomplete")
	}
	r.setVT(job.PredictedNs())
	r.res.Key = fmt.Sprintf("%x", math.Float64bits(job.PredictedNs()))
	return nil
}

// ---- BigSim ----

// toruses all hold about 200k targets; the seed picks the aspect.
var toruses = [][3]int{{64, 56, 56}, {56, 64, 56}, {56, 56, 64}, {58, 60, 58}, {60, 58, 58}, {57, 62, 57}}

func bigsimConfig(r *rec) (bigsim.Config, int) {
	k := knobsFor(r.seed)
	t := toruses[k.aspect]
	cfg := bigsim.Config{X: t[0], Y: t[1], Z: t[2], SimPEs: 32, Mode: bigsim.ModeEvent, TargetWorkNs: k.work}
	steps := 60
	if r.toy {
		cfg.X, cfg.Y, cfg.Z, cfg.SimPEs = t[0]/8, t[1]/8, t[2]/8, 4
		steps = 2
	}
	return cfg, steps
}

func buildBigSim(r *rec) (func() error, error) {
	cfg, steps := bigsimConfig(r)
	var sim *bigsim.Simulator
	err := r.span("bigsim.New", func() (err error) {
		sim, err = bigsim.New(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.res.Flows, r.res.Steps = sim.NumTargets(), steps
	return func() error {
		var stats []bigsim.StepStats
		r.span("Simulator.Run", func() error { stats = sim.Run(steps); return nil })
		r.endRun()
		sim.Close()
		bigsimOutputs(r, stats, steps)
		return nil
	}, nil
}

func bigsimOutputs(r *rec, stats []bigsim.StepStats, steps int) {
	if len(stats) != steps {
		r.fail("bigsim: %d of %d steps", len(stats), steps)
	}
	d := newDigest()
	var sum float64
	var msgs int
	for _, st := range stats {
		d.f64(st.PredictedTargetNs)
		sum += st.PredictedTargetNs
		msgs += st.CrossPEMessages + st.IntraPEMessages
	}
	r.setVT(sum)
	r.res.Key = d.String()
	if len(stats) > 0 {
		r.res.Layer["bigsim.msgs_per_step"] = float64(msgs) / float64(len(stats))
	}
}

// refBigSim predicts the same steps on a second simulator with a
// different simulating-PE count: the target-machine prediction must
// not depend on how many PEs simulate it, to the bit. (The parallel
// driver would be the other route; on 2 cores it is 3x slower than
// the serial one, which the run budget cannot afford.)
func refBigSim(r *rec) error {
	cfg, steps := bigsimConfig(r)
	cfg.SimPEs = 7
	if r.toy {
		cfg.SimPEs = 3
	}
	sim, err := bigsim.New(cfg)
	if err != nil {
		return err
	}
	stats := sim.Run(steps)
	sim.Close()
	bigsimOutputs(r, stats, steps)
	return nil
}

// ---- the paper's evaluation (cmd/repro, non-quick) ----

// reproParams are cmd/repro's non-quick parameters; the seed nudges
// the sweep counts that do not name a paper data point.
type reproParams struct {
	cap      int
	counts   []int
	sizes    []uint64
	fig11PEs []int
	torus    [3]int
	steps    int
	swaps    int
	switches int
}

func reproConfig(r *rec) reproParams {
	k := knobsFor(r.seed)
	p := reproParams{
		cap:      100000 + k.off,
		counts:   []int{2, 8, 32, 128, 512, 2048, 8192},
		sizes:    []uint64{8 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20, 8 << 20},
		fig11PEs: []int{1, 2, 4, 8, 16, 32, 64},
		torus:    [3]int{25, 25, 16},
		steps:    20, swaps: 2_000_000 + 1000*k.off, switches: 200,
	}
	if r.toy {
		p.cap = 2000 + k.off
		p.counts = []int{2, 32}
		p.sizes = []uint64{8 << 10, 128 << 10}
		p.fig11PEs = []int{1, 4}
		p.torus = [3]int{6, 6, 4}
		p.steps, p.swaps, p.switches = 2, 20_000+1000*k.off, 10
	}
	return p
}

// reproRun is one pass over cmd/repro's harness calls, in its order:
// limits() are the flow-creation sections (Tables 1 and 2), figures()
// every timed figure. d digests each modeled field returned, created
// counts the flows Table 2 created, and activations the flow
// activations the figures drove (their flows x steps).
type reproRun struct {
	r           *rec
	p           reproParams
	d           *digest
	created     float64
	activations float64
}

// section runs one harness section as a span. It collects first
// (outside the timed window): otherwise the process's peak RSS
// measures whether the collector happened to free the previous
// section's goroutine stacks in time (Figure 11 alone read 60 or
// 98 MiB on identical runs), not the largest section.
func (x *reproRun) section(name string, fn func() error) error {
	x.r.pause(runtime.GC)
	t0 := time.Now()
	err := x.r.span(name, fn)
	x.r.res.Layer[name] += float64(time.Since(t0).Nanoseconds()) / 1e6
	return err
}

func (x *reproRun) limits() error {
	harness.Table1(io.Discard)
	return x.section("harness.table2_ms", func() error {
		rows, err := harness.Table2(io.Discard, x.p.cap)
		for _, row := range rows {
			for _, n := range platform.Table2Order() {
				x.d.u64(uint64(row.Limits[n]))
				x.created += float64(row.Limits[n])
			}
		}
		return err
	})
}

func (x *reproRun) figures() error {
	w, p, d := io.Discard, x.p, x.d
	err := x.section("harness.switch_curves_ms", func() error {
		for _, prof := range []string{"linux-x86", "mac-g5", "sun-solaris9", "ibm-sp", "alpha-es45"} {
			curves, err := harness.FigureSwitchCurves(w, prof, p.counts, 3)
			if err != nil {
				return err
			}
			for _, k := range flows.Kinds() {
				for _, pt := range curves[k] {
					d.u64(uint64(pt.Flows))
					d.f64(pt.NsPerYield)
					x.activations += 3 * float64(pt.Flows)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	models, err := harness.BlockingModels(w, platform.LinuxX86())
	if err != nil {
		return err
	}
	names := make([]string, 0, len(models))
	for n := range models {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d.f64(models[n])
	}
	caps, err := harness.IsoCapacity(w, []uint64{64 << 10, 256 << 10, 1 << 20}, p.cap)
	if err != nil {
		return err
	}
	for _, c := range caps {
		d.u64(uint64(c.Threads))
	}
	err = x.section("harness.fig9_ms", func() error {
		pts, err := harness.Figure9(w, p.sizes, p.switches)
		for _, pt := range pts {
			d.f64(pt.VirtualNs)
			x.activations += 2 * float64(p.switches)
		}
		return err
	})
	if err != nil {
		return err
	}
	x.section("harness.fig10_ms", func() error {
		harness.Figure10(w, p.swaps) // wall-clock only: nothing modeled to compare
		x.activations += 4 * float64(p.swaps)
		return nil
	})
	// One call per simulating-PE count, for the same reason: each
	// builds a simulator of 10,000 goroutines.
	for _, pes := range p.fig11PEs {
		err = x.section("harness.fig11_ms", func() error {
			pts, err := harness.Figure11(w, p.torus[0], p.torus[1], p.torus[2], 5, []int{pes})
			for _, pt := range pts {
				d.f64(pt.StepTimeNs)
				x.activations += 5 * float64(p.torus[0]*p.torus[1]*p.torus[2])
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return x.section("harness.fig12_ms", func() error {
		rows, err := harness.Figure12(w, p.steps)
		for _, pair := range rows {
			for _, res := range pair {
				d.f64(res.TimeNs)
				d.f64(res.CommNs)
				d.f64(res.Imbalance)
				d.u64(uint64(res.MovedRanks))
				x.activations += float64(res.Params.NProcs * p.steps)
			}
		}
		return err
	})
}

// buildRepro has no job to construct — every harness call builds its
// own machines — so its set-up window is the evaluation's
// flow-creation sections (Tables 1 and 2: create flows up to each
// platform's limit, switch none) and its run window every figure.
//
// ISSUE.md leaves flow_steps_per_s, bytes_per_flow and
// allocs_per_flow_step undefined here, but BENCHMARK.json's contract
// wants every end-to-end metric, never 0, from every workload. So
// this workload counts what it can from the rows the harness returns:
// flows = the flows Table 2 created, flow-steps = the activations the
// figures drove, and — Table 2 retains nothing, so live growth is
// noise around zero — bytes_per_flow = the bytes *allocated* per flow
// created.
func buildRepro(r *rec) (func() error, error) {
	x := &reproRun{r: r, p: reproConfig(r), d: newDigest()}
	if err := x.limits(); err != nil {
		return nil, err
	}
	var m runtime.MemStats
	r.pause(func() { runtime.ReadMemStats(&m) })
	r.res.Flows, r.res.Steps = int(x.created), 1
	r.res.BytesPerFlow = float64(m.TotalAlloc-r.m0.TotalAlloc) / x.created
	return func() error {
		err := x.figures()
		r.endRun()
		r.res.Key = x.d.String()
		r.res.FlowSteps = x.activations
		return err
	}, nil
}

func refRepro(r *rec) error {
	x := &reproRun{r: r, p: reproConfig(r), d: newDigest()}
	if err := x.limits(); err != nil {
		return err
	}
	err := x.figures()
	r.res.Key = x.d.String()
	return err
}
