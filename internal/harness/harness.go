// Package harness regenerates every table and figure of the paper's
// evaluation (§4) as plain-text reports and as data points consumable
// by the benchmark suite and the cmd/ tools. One function per
// experiment; DESIGN.md's per-experiment index maps each to its
// module stack.
package harness

import (
	"fmt"
	"io"
	"time"

	"migflow/internal/ampi"
	"migflow/internal/converse"
	"migflow/internal/flows"
	"migflow/internal/loadbalance"
	"migflow/internal/mem"
	"migflow/internal/migrate"
	"migflow/internal/npb"
	"migflow/internal/platform"
	"migflow/internal/vmem"
)

// Table1 renders the portability matrix of migratable-thread
// techniques (§3.4.4) from the platform capability predicates.
func Table1(w io.Writer) {
	profs := platform.Profiles()
	fmt.Fprintf(w, "Table 1: portability of migratable thread techniques\n")
	fmt.Fprintf(w, "%-14s", "Thread")
	for _, name := range platform.Table1Order() {
		fmt.Fprintf(w, "%-10s", name)
	}
	fmt.Fprintln(w)
	for _, tech := range platform.Techniques() {
		fmt.Fprintf(w, "%-14s", tech)
		for _, name := range platform.Table1Order() {
			fmt.Fprintf(w, "%-10s", profs[name].Supports(tech))
		}
		fmt.Fprintln(w)
	}
}

// Table2Row is one probed limit row.
type Table2Row struct {
	Kind   flows.Kind
	Limits map[string]int // platform name → probed max
}

// Table2 probes each mechanism's practical creation limit on every
// platform (create-until-failure against the simulated kernels).
func Table2(w io.Writer, cap int) ([]Table2Row, error) {
	kinds := []flows.Kind{flows.KindProcess, flows.KindKThread, flows.KindUserThread}
	names := platform.Table2Order()
	var rows []Table2Row
	fmt.Fprintf(w, "Table 2: practical limits for flow-of-control mechanisms (probe cap %d)\n", cap)
	fmt.Fprintf(w, "%-16s", "Flow of control")
	for _, n := range names {
		fmt.Fprintf(w, "%-14s", n)
	}
	fmt.Fprintln(w)
	for _, kind := range kinds {
		row := Table2Row{Kind: kind, Limits: map[string]int{}}
		fmt.Fprintf(w, "%-16s", kind)
		for _, n := range names {
			prof, err := platform.ByName(n)
			if err != nil {
				return nil, err
			}
			m, err := flows.New(kind, prof, nil)
			if err != nil {
				return nil, err
			}
			got := m.Probe(cap)
			row.Limits[n] = got
			suffix := ""
			if got == cap {
				suffix = "+"
			}
			fmt.Fprintf(w, "%-14s", fmt.Sprintf("%d%s", got, suffix))
		}
		fmt.Fprintln(w)
		rows = append(rows, row)
	}
	return rows, nil
}

// FigureSwitchCurves regenerates one of Figures 4-8: context-switch
// time vs number of flows for every mechanism on the platform.
func FigureSwitchCurves(w io.Writer, profName string, counts []int, rounds int) (map[flows.Kind][]flows.Point, error) {
	prof, err := platform.ByName(profName)
	if err != nil {
		return nil, err
	}
	out := make(map[flows.Kind][]flows.Point)
	fmt.Fprintf(w, "Context switch time vs number of flows on %s (%s)\n", prof.Display, prof.Name)
	fmt.Fprintf(w, "%-8s", "flows")
	for _, k := range flows.Kinds() {
		fmt.Fprintf(w, "%14s", k)
	}
	fmt.Fprintln(w, "   (ns/switch, simulated)")
	for _, k := range flows.Kinds() {
		pts, err := flows.Curve(k, prof, counts, rounds)
		if err != nil {
			continue // mechanism unsupported on this platform
		}
		out[k] = pts
	}
	for _, n := range counts {
		fmt.Fprintf(w, "%-8d", n)
		for _, k := range flows.Kinds() {
			v := "-"
			for _, pt := range out[k] {
				if pt.Flows == n {
					v = fmt.Sprintf("%.0f", pt.NsPerYield)
				}
			}
			fmt.Fprintf(w, "%14s", v)
		}
		fmt.Fprintln(w)
	}
	return out, nil
}

// Fig9Point is one Figure 9 measurement: context-switch cost at a
// stack size for one migratable-thread technique.
type Fig9Point struct {
	Strategy  string
	StackSize uint64
	WallNs    float64 // real wall-clock ns per switch (this repo's work)
	VirtualNs float64 // simulated ns per switch (platform cost model)
}

// Fig9Measure runs the Figure 9 microbenchmark: two threads on one PE
// yield back and forth `switches` times, each having consumed
// (stackSize - one page) of its stack via alloca (PushFrame); the
// per-switch cost is reported in both time bases.
func Fig9Measure(strategy converse.StackStrategy, stackSize uint64, switches int) (Fig9Point, error) {
	region, err := mem.NewIsoRegion(mem.DefaultIsoBase, 2*vmem.RoundUpPages(stackSize)+512*vmem.PageSize, 1)
	if err != nil {
		return Fig9Point{}, err
	}
	pe, err := converse.NewPE(converse.PEConfig{
		Index: 0, Profile: platform.LinuxX86(), IsoRegion: region,
	})
	if err != nil {
		return Fig9Point{}, err
	}
	use := stackSize - vmem.PageSize // headroom like a real frame
	body := func(c *converse.Ctx) {
		if _, err := c.PushFrame(use); err != nil {
			panic(err)
		}
		// Touch the frame so stack-copying moves real, dirty bytes.
		if err := c.Space().Write(c.Thread().SP(), []byte("dirty")); err != nil {
			panic(err)
		}
		for i := 0; i < switches; i++ {
			c.Yield()
		}
	}
	for i := 0; i < 2; i++ {
		th, err := pe.Sched.CthCreate(converse.ThreadOptions{
			Strategy:  strategy,
			StackSize: stackSize,
		}, body)
		if err != nil {
			return Fig9Point{}, err
		}
		pe.Sched.Start(th)
	}
	v0 := pe.Clock.Now()
	t0 := time.Now()
	pe.Sched.RunUntilIdle()
	wall := time.Since(t0)
	nswitch := float64(pe.Sched.Switches())
	return Fig9Point{
		Strategy:  strategy.Name(),
		StackSize: stackSize,
		WallNs:    float64(wall.Nanoseconds()) / nswitch,
		VirtualNs: (pe.Clock.Now() - v0) / nswitch,
	}, nil
}

// Figure9 sweeps stack sizes for the three techniques.
func Figure9(w io.Writer, sizes []uint64, switches int) ([]Fig9Point, error) {
	var out []Fig9Point
	fmt.Fprintln(w, "Figure 9: context switch time vs stack size (x86 Linux profile)")
	fmt.Fprintf(w, "%-10s", "stack")
	for _, s := range migrate.All() {
		fmt.Fprintf(w, "%16s", s.Name()+"(sim)")
	}
	for _, s := range migrate.All() {
		fmt.Fprintf(w, "%17s", s.Name()+"(wall)")
	}
	fmt.Fprintln(w, "   ns/switch")
	for _, size := range sizes {
		var sim, wall []string
		for _, s := range migrate.All() {
			pt, err := Fig9Measure(s, size, switches)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
			sim = append(sim, fmt.Sprintf("%.0f", pt.VirtualNs))
			wall = append(wall, fmt.Sprintf("%.0f", pt.WallNs))
		}
		fmt.Fprintf(w, "%-10s", byteSize(size))
		for _, v := range sim {
			fmt.Fprintf(w, "%16s", v)
		}
		for _, v := range wall {
			fmt.Fprintf(w, "%17s", v)
		}
		fmt.Fprintln(w)
	}
	return out, nil
}

// Figure12 runs the BT-MZ cases with and without LB.
func Figure12(w io.Writer, steps int) ([][2]*npb.Result, error) {
	return Figure12With(w, steps, Fig12Config{})
}

// Fig12Config selects the optional mechanisms for a Figure 12 run:
// collective algorithm, exchange overlap, and the measured load
// balancer for the "LB" column (nil means GreedyLB).
type Fig12Config struct {
	Coll ampi.CollAlgo
	// LB is the strategy for the balanced column (nil → GreedyLB).
	LB loadbalance.Strategy
	// Overlap makes the halo exchange split-phase (Params.Overlap):
	// receives posted and halos sent before the solve, completed after
	// it, so exchange cost hides under compute.
	Overlap bool
	// ReduceEvery joins a residual-proxy Allreduce every k steps —
	// pipelined (Iallreduce) when Overlap is on.
	ReduceEvery int
	// Topo charges collective tree edges logical torus hops
	// (Params.Topo) and adds a hops column to the table.
	Topo ampi.Topology
}

// Figure12With is the fully-configurable Figure 12 driver.
func Figure12With(w io.Writer, steps int, cfg Fig12Config) ([][2]*npb.Result, error) {
	strat := cfg.LB
	if strat == nil {
		strat = loadbalance.GreedyLB{}
	}
	var out [][2]*npb.Result
	mode := ""
	if cfg.Coll == ampi.CollFlat {
		mode += ", flat collectives"
	}
	if cfg.Overlap {
		mode += ", split-phase overlap"
	}
	topo := cfg.Topo.Nodes > 0 || cfg.Coll == ampi.CollTopoTree
	fmt.Fprintf(w, "Figure 12: NAS BT-MZ with and without thread-migration load balancing%s\n", mode)
	fmt.Fprintf(w, "%-10s %14s %14s %9s %7s", "case", "noLB time(ms)", "LB time(ms)", "speedup", "moved")
	if topo {
		fmt.Fprintf(w, " %7s", "hops")
	}
	fmt.Fprintln(w)
	for _, p := range npb.Cases(steps, nil) {
		p.Collectives = cfg.Coll
		p.Overlap = cfg.Overlap
		p.ReduceEvery = cfg.ReduceEvery
		p.Topo = cfg.Topo
		base, err := npb.Run(p)
		if err != nil {
			return nil, err
		}
		q := p
		q.LB = strat
		lb, err := npb.Run(q)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%-10s %14.2f %14.2f %8.2fx %7d",
			p.Label(), base.TimeNs/1e6, lb.TimeNs/1e6, base.TimeNs/lb.TimeNs, lb.MovedRanks)
		if topo {
			fmt.Fprintf(w, " %7d", lb.TopoHops)
		}
		fmt.Fprintln(w)
		out = append(out, [2]*npb.Result{base, lb})
	}
	return out, nil
}

// BlockingModels runs the §2.2-2.3 blocking-call study: the makespan
// of an I/O-mixed workload on one processor under N:1 user threads,
// 1:1 kernel threads, N:M hybrids, and scheduler activations.
func BlockingModels(w io.Writer, prof *platform.Profile) (map[string]float64, error) {
	work := flows.BlockingWorkload{Flows: 16, Bursts: 10, ComputeNs: 20_000, IONs: 100_000}
	cases := []struct {
		name  string
		model flows.BlockingModel
		m     int
	}{
		{"N:1 user threads", flows.ModelN1, 0},
		{"N:M hybrid (M=2)", flows.ModelNM, 2},
		{"N:M hybrid (M=8)", flows.ModelNM, 8},
		{"1:1 kernel threads", flows.Model1to1, 0},
		{"scheduler activations", flows.ModelActivations, 0},
	}
	fmt.Fprintf(w, "Blocking calls under each threading model (§2.2-2.3) on %s\n", prof.Name)
	fmt.Fprintf(w, "  workload: %d flows × %d bursts of %.0f µs compute + %.0f µs blocking I/O\n",
		work.Flows, work.Bursts, work.ComputeNs/1000, work.IONs/1000)
	out := make(map[string]float64)
	for _, c := range cases {
		v, err := flows.SimulateBlocking(c.model, prof, work, c.m)
		if err != nil {
			return nil, err
		}
		out[c.name] = v
		fmt.Fprintf(w, "  %-24s %10.2f ms\n", c.name, v/1e6)
	}
	fmt.Fprintln(w, "  (N:1 serializes every blocking call — the §2.3 disadvantage;")
	fmt.Fprintln(w, "   interception/N:M/activations recover the overlap at user-switch prices)")
	return out, nil
}

// IsoCapacityPoint is one row of the §3.4.2 address-space experiment.
type IsoCapacityPoint struct {
	Bits      int
	StackSize uint64
	Threads   int
}

// IsoCapacity reproduces §3.4.2's address-space arithmetic as a live
// probe: allocate isomalloc stack slabs (address space only — frames
// are never touched, exactly like remote threads' claims) until the
// per-PE slot is exhausted, on a 32-bit node versus a 64-bit node.
// The paper: "Even if the entire 32-bit address space were available
// for thread stacks, if each thread uses 1 megabyte, there would only
// be room for 4,096 threads."
func IsoCapacity(w io.Writer, stackSizes []uint64, cap int) ([]IsoCapacityPoint, error) {
	type machineClass struct {
		bits      int
		slotBytes uint64
	}
	classes := []machineClass{
		{32, 2 << 30},  // a 32-bit node: ~2 GiB usable for the region
		{64, 64 << 30}, // a 64-bit node: terabytes available; 64 GiB region here
	}
	var out []IsoCapacityPoint
	fmt.Fprintln(w, "Isomalloc address-space capacity (§3.4.2): max threads per PE before the slot exhausts")
	fmt.Fprintf(w, "%-12s %14s %14s\n", "stack size", "32-bit node", "64-bit node")
	for _, size := range stackSizes {
		var row []int
		for _, mc := range classes {
			region, err := mem.NewIsoRegion(mem.DefaultIsoBase, mc.slotBytes, 1)
			if err != nil {
				return nil, err
			}
			iso := mem.NewIsoAllocator(region, 0)
			pages := vmem.RoundUpPages(size)/vmem.PageSize + 1 // + guard page
			n := 0
			for n < cap {
				if _, err := iso.AllocSlab(pages); err != nil {
					break
				}
				n++
			}
			row = append(row, n)
			out = append(out, IsoCapacityPoint{Bits: mc.bits, StackSize: size, Threads: n})
		}
		plus := func(n int) string {
			if n == cap {
				return fmt.Sprintf("%d+", n)
			}
			return fmt.Sprintf("%d", n)
		}
		fmt.Fprintf(w, "%-12s %14s %14s\n", byteSize(size), plus(row[0]), plus(row[1]))
	}
	fmt.Fprintln(w, "(paper: a full 4 GiB space fits only 4,096 one-megabyte threads;")
	fmt.Fprintln(w, " 64-bit machines \"never suffer from this problem\")")
	return out, nil
}

func byteSize(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
