// Package npb implements a synthetic analog of the NAS Parallel
// Benchmark Multi-Zone BT ("BT-MZ", §4.5): the overall mesh is
// partitioned into zones whose sizes are graded geometrically, so
// zone work varies by more than an order of magnitude — "BT-MZ
// creates the most dramatic load imbalance" in the suite. Zones are
// assigned to AMPI ranks (migratable threads), ranks to PEs
// round-robin; each step every rank solves its zones (modeled work
// proportional to zone points) and exchanges boundary data with its
// neighbour ranks.
//
// Run executes the benchmark with or without AMPI thread migration
// (isomalloc + swap-global, exactly the §4.5 configuration) and
// reports total execution time — the bars of Figure 12.
package npb

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"migflow/internal/ampi"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
	"migflow/internal/swapglobal"
	"migflow/internal/trace"
)

// Class is a BT-MZ problem class: the zone grid and total work scale.
// Real BT-MZ grades zone sizes so the largest-to-smallest ratio is
// roughly 20; Ratio reproduces that.
type Class struct {
	Name   string
	ZonesX int
	ZonesY int
	// WorkPerPointNs converts zone points to modeled solver time.
	WorkPerPointNs float64
	// Points is the total mesh points across all zones.
	Points float64
	// Ratio is largest/smallest zone size.
	Ratio float64
}

// The standard BT-MZ classes used in Figure 12. Zone counts follow
// the NPB spec (A: 4×4, B: 8×8); total points are scaled for
// simulation.
var (
	ClassA = Class{Name: "A", ZonesX: 4, ZonesY: 4, WorkPerPointNs: 50, Points: 1 << 20, Ratio: 20}
	ClassB = Class{Name: "B", ZonesX: 8, ZonesY: 8, WorkPerPointNs: 50, Points: 4 << 20, Ratio: 20}

	// SPClassA and LUClassA model the suite's other two benchmarks:
	// SP-MZ and LU-MZ partition their meshes into *equal-size* zones
	// (Ratio 1), so they exhibit little load imbalance — the paper
	// picks BT-MZ precisely because "BT-MZ creates the most dramatic
	// load imbalance" among the three.
	SPClassA = Class{Name: "SP-A", ZonesX: 4, ZonesY: 4, WorkPerPointNs: 50, Points: 1 << 20, Ratio: 1}
	LUClassA = Class{Name: "LU-A", ZonesX: 4, ZonesY: 4, WorkPerPointNs: 80, Points: 1 << 20, Ratio: 1}
)

// ClassByName resolves "A", "B", "SP-A" or "LU-A".
func ClassByName(name string) (Class, error) {
	switch name {
	case "A":
		return ClassA, nil
	case "B":
		return ClassB, nil
	case "SP-A":
		return SPClassA, nil
	case "LU-A":
		return LUClassA, nil
	case "Z4K":
		return ClassZ4K, nil
	}
	return Class{}, fmt.Errorf("npb: unknown class %q", name)
}

// ZoneNeighbors returns zone z's 2-D grid neighbours (no wraparound:
// the multi-zone meshes are bounded).
func (c Class) ZoneNeighbors(z int) []int {
	x, y := z%c.ZonesX, z/c.ZonesX
	var out []int
	if x > 0 {
		out = append(out, z-1)
	}
	if x < c.ZonesX-1 {
		out = append(out, z+1)
	}
	if y > 0 {
		out = append(out, z-c.ZonesX)
	}
	if y < c.ZonesY-1 {
		out = append(out, z+c.ZonesX)
	}
	return out
}

// NumZones returns the class's zone count.
func (c Class) NumZones() int { return c.ZonesX * c.ZonesY }

// ZoneSizes returns each zone's point count. Sizes grow
// geometrically along x and y so that size(last)/size(first) ≈
// Ratio, then are normalized to sum to Points.
func (c Class) ZoneSizes() []float64 {
	nx, ny := c.ZonesX, c.ZonesY
	// Per-dimension growth factor: ratio^(1/((nx-1)+(ny-1))).
	steps := float64(nx - 1 + ny - 1)
	g := 1.0
	if steps > 0 {
		g = math.Pow(c.Ratio, 1/steps)
	}
	sizes := make([]float64, 0, nx*ny)
	var sum float64
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			s := math.Pow(g, float64(x+y))
			sizes = append(sizes, s)
			sum += s
		}
	}
	for i := range sizes {
		sizes[i] *= c.Points / sum
	}
	return sizes
}

// AssignZones reproduces BT-MZ's own zone-to-process balancing:
// zones sorted by size descending, each assigned greedily to the
// least-loaded rank (loadbalance.GreedyLB's heap, ties to the lower
// rank). Per-rank balance is good when ranks hold several zones and
// degrades as ranks approach one-zone granularity — which, combined
// with AMPI's block rank-to-PE mapping, produces the "dramatic
// variation in execution times before load balancing" across
// B.16/B.32/B.64 that Figure 12 shows.
func AssignZones(sizes []float64, nranks int) [][]int {
	items := make([]loadbalance.Item, len(sizes))
	idx := make([]int, len(sizes))
	for z, size := range sizes {
		// PE -1: no zone starts anywhere, so the plan names every zone.
		items[z] = loadbalance.Item{ID: uint64(z), PE: -1, Load: size}
		idx[z] = z
	}
	plan := loadbalance.GreedyLB{}.Plan(items, nranks)
	// A rank lists its zones in the order the greedy placed them.
	sort.Slice(idx, func(a, b int) bool {
		if sizes[idx[a]] != sizes[idx[b]] {
			return sizes[idx[a]] > sizes[idx[b]]
		}
		return idx[a] < idx[b]
	})
	out := make([][]int, nranks)
	for _, z := range idx {
		r := plan[uint64(z)]
		out[r] = append(out[r], z)
	}
	return out
}

// Params configures one Figure 12 case, e.g. {ClassA, 8, 4} is
// "A.8,4PE".
type Params struct {
	Class  Class
	NProcs int // AMPI ranks
	NPEs   int // physical processors
	Steps  int // solver timesteps
	// Mode selects the flow backend that runs the zone step program
	// (btmzProgram). "" is Figure 12's configuration: ULT ranks with
	// privatized globals (isomalloc stacks plus a swap-global step
	// counter, the §4.5 setup). ampi.ModeULT runs the same program on
	// ULT ranks without globals, ampi.ModeEvent on continuation
	// records — what reaches 10^5+ zones: each zone-rank is then a
	// 137-byte record at the LB gate instead of a stack. Event mode
	// refuses Trace, which needs threads.
	Mode string
	// LB, when non-nil, triggers MPI_Migrate with this strategy after
	// the warm-up step.
	LB loadbalance.Strategy
	// HaloBytes per neighbour exchange.
	HaloBytes int
	// Trace enables Projections-style event logging; the log lands in
	// Result.Trace.
	Trace bool
	// Collectives selects the AMPI collective topology (tree by
	// default; CollFlat for A/B; CollTopoTree follows Topo).
	Collectives ampi.CollAlgo
	// Topo is the torus/PE-group shape collective trees can exploit:
	// when set, every collective tree edge is charged per-hop cost and
	// counted in Result.TopoHops (ampi.Topology docs).
	Topo ampi.Topology
	// Overlap makes the halo exchange split-phase: receives are
	// posted and halos sent before the solve, and the exchange
	// completes (Waitall) after it — so exchange latency hides under
	// solver work, and the per-step modeled time becomes
	// max(solve, exchange) instead of solve + exchange. The residual
	// reduction (ReduceEvery) pipelines the same way: each reduction
	// starts after its step's exchange and is collected a reduce
	// period later.
	Overlap bool
	// ReduceEvery joins a "max" residual-proxy Allreduce every k
	// steps (0 = never) — blocking by default, pipelined
	// (Iallreduce + deferred Wait) with Overlap.
	ReduceEvery int
}

// Label renders the paper's case naming ("A.8,4PE"), suffixed with
// the flow mode for program-mode runs ("Z4K.4096,8PE/event").
func (p Params) Label() string {
	l := fmt.Sprintf("%s.%d,%dPE", p.Class.Name, p.NProcs, p.NPEs)
	if p.Mode != "" {
		l += "/" + p.Mode
	}
	return l
}

// Result is one benchmark execution.
type Result struct {
	Params Params
	// TimeNs is the modeled parallel execution time: per step, the
	// maximum over PEs of the solver work that actually ran there
	// (reflecting where each rank was at that moment, i.e. the
	// migrations), plus halo-exchange latency, plus the one-time
	// migration transfer cost.
	TimeNs float64
	// PredictedNs is the virtual-time makespan (max rank VT) —
	// placement-invariant, so it is bit-identical across modes and
	// across LB decisions.
	PredictedNs   float64
	CommNs        float64   // halo-exchange component of TimeNs
	PELoads       []float64 // per-PE work, final placement: measured (ULT) or modeled (event)
	Imbalance     float64   // max/avg of PELoads
	Migrations    uint64
	MigratedBytes uint64
	MovedRanks    int
	// TopoHops counts the logical torus hops collective tree edges
	// crossed (zero unless Params.Topo is set).
	TopoHops uint64
	// Trace is the event log when Params.Trace was set (nil
	// otherwise).
	Trace *trace.Log
}

// normalized validates p and fills its defaults — the one block Run
// and ProgramJob share.
func (p Params) normalized() (Params, error) {
	if p.NProcs < 1 || p.NPEs < 1 {
		return p, fmt.Errorf("npb: bad params %+v", p)
	}
	switch p.Mode {
	case "", ampi.ModeULT:
	case ampi.ModeEvent:
		if p.Trace {
			return p, fmt.Errorf("npb: Trace needs ULT ranks; %q mode does not support it", p.Mode)
		}
	default:
		return p, fmt.Errorf("npb: unknown mode %q (want \"\", %q or %q)", p.Mode, ampi.ModeULT, ampi.ModeEvent)
	}
	if p.NProcs > p.Class.NumZones() {
		return p, fmt.Errorf("npb: %d ranks exceed %d zones", p.NProcs, p.Class.NumZones())
	}
	if p.ReduceEvery < 0 {
		return p, fmt.Errorf("npb: ReduceEvery %d must be ≥ 0", p.ReduceEvery)
	}
	if p.Steps == 0 {
		p.Steps = 10
	}
	if p.HaloBytes == 0 {
		p.HaloBytes = 4096
	}
	return p, nil
}

// Run executes the benchmark on a fresh machine: btmzProgram on the
// flow backend Mode selects, driven to completion, then the modeled
// makespan read off where every solve ran.
func Run(p Params) (*Result, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{NumPEs: p.NPEs}
	if p.Mode == "" {
		// Figure 12 as the paper ran it: the solver's step counter is a
		// swap-global privatized global, so it travels in the images of
		// the ranks the balancer moves.
		cfg.Globals = btmzGlobals()
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	var tlog *trace.Log
	if p.Trace {
		tlog = m.EnableTracing()
	}
	job, run, err := programJob(m, p)
	if err != nil {
		return nil, err
	}
	job.Run()
	if err := run.err.Load(); err != nil {
		return nil, *err
	}
	if !job.Done() {
		return nil, fmt.Errorf("npb: job did not complete (deadlock?)")
	}
	// Per step: the busiest PE's solver work plus the exchange's critical
	// path — or, split-phase (Overlap), whichever is longer, because the
	// halos fly while the solve runs.
	stepComm := run.exchangeNs(p, m.Network().Latency())
	var total, commTotal float64
	busy := make([]float64, p.NPEs)
	for _, pes := range run.workPE {
		clear(busy)
		for r, pe := range pes {
			busy[pe] += run.myWork[r]
		}
		if p.Overlap {
			total += math.Max(slices.Max(busy), stepComm)
		} else {
			total += slices.Max(busy) + stepComm
		}
		commTotal += stepComm
	}
	// The one-time migration transfers cross the network once, spread
	// over the PEs.
	migs, migBytes := m.MigrationStats()
	if migs > 0 {
		total += m.Network().Latency().Cost(int(migBytes)) / float64(p.NPEs)
	}
	var loads []float64
	if job.Mode() == ampi.ModeULT {
		// Measured: each thread's CPU time since the LB gate reset it.
		loads = job.PELoads()
	} else {
		// Modeled: one step's solver work under the final placement
		// (PELoads measures thread CPU time; an event rank has none).
		loads = make([]float64, p.NPEs)
		for r, w := range run.myWork {
			loads[job.PEOf(r)] += w
		}
	}
	return &Result{
		Params:        p,
		TimeNs:        total,
		PredictedNs:   job.PredictedNs(),
		CommNs:        commTotal,
		PELoads:       loads,
		Imbalance:     loadbalance.Imbalance(loads),
		Migrations:    migs,
		MigratedBytes: migBytes,
		MovedRanks:    job.LBMoved(),
		TopoHops:      m.Network().TopoHops(),
		Trace:         tlog,
	}, nil
}

// btmzGlobals is the solver's module of globals, privatized per rank by
// swap-global: its iteration counter and a residual.
func btmzGlobals() *swapglobal.Layout {
	layout := swapglobal.NewLayout()
	layout.Declare("step", 8)
	layout.Declare("residual", 8)
	return layout
}

// Cases returns the Figure 12 case list.
func Cases(steps int, lb loadbalance.Strategy) []Params {
	mk := func(c Class, nprocs, npes int) Params {
		return Params{Class: c, NProcs: nprocs, NPEs: npes, Steps: steps, LB: lb}
	}
	return []Params{
		mk(ClassA, 8, 4),
		mk(ClassA, 16, 8),
		mk(ClassB, 16, 8),
		mk(ClassB, 32, 8),
		mk(ClassB, 64, 8),
	}
}
