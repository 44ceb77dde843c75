// Benchmarks regenerating the paper's evaluation: one benchmark per
// table and figure (see DESIGN.md's per-experiment index), plus
// ablation benchmarks for the design choices this reproduction makes.
//
// Two time bases appear in the output: benchmarks whose cost is real
// work in this repository (Figure 9's memcpy/remap, Figure 10's swap
// routines, PUP, migration) report honest wall-clock ns/op;
// benchmarks that emulate a 2006 platform (Figures 4-8, Tables)
// report the virtual measurement through the custom "sim-ns/switch"
// metric and use wall time only to drive iteration.
package migflow_test

import (
	"fmt"
	"testing"

	"migflow/internal/bigsim"
	"migflow/internal/converse"
	"migflow/internal/flows"
	"migflow/internal/harness"
	"migflow/internal/loadbalance"
	"migflow/internal/mem"
	"migflow/internal/migrate"
	"migflow/internal/npb"
	"migflow/internal/platform"
	"migflow/internal/pup"
	"migflow/internal/swapglobal"
	"migflow/internal/vmem"
)

// ---------------------------------------------------------------
// Table 1: portability matrix (derivation cost is trivial; the bench
// verifies and reports the matrix is derivable per-op).

func BenchmarkTable1Portability(b *testing.B) {
	profs := platform.Profiles()
	order := platform.Table1Order()
	for i := 0; i < b.N; i++ {
		for _, name := range order {
			for _, tech := range platform.Techniques() {
				_ = profs[name].Supports(tech)
			}
		}
	}
	b.ReportMetric(float64(len(order)*3), "cells/op")
}

// ---------------------------------------------------------------
// Table 2: create-until-failure probes against the simulated kernels.

func BenchmarkTable2Limits(b *testing.B) {
	for _, name := range platform.Table2Order() {
		prof, err := platform.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var procs, kthreads int
			for i := 0; i < b.N; i++ {
				pm, _ := flows.New(flows.KindProcess, prof, nil)
				procs = pm.Probe(100000)
				km, _ := flows.New(flows.KindKThread, prof, nil)
				kthreads = km.Probe(100000)
			}
			b.ReportMetric(float64(procs), "max-processes")
			b.ReportMetric(float64(kthreads), "max-kthreads")
		})
	}
}

// ---------------------------------------------------------------
// Figures 4-8: per-platform yield microbenchmarks. The reported
// sim-ns/switch is the virtual measurement at 1024 flows.

func benchSwitchFigure(b *testing.B, platName string) {
	prof, err := platform.ByName(platName)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range flows.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			const n = 1024
			var per float64
			for i := 0; i < b.N; i++ {
				m, err := flows.New(kind, prof, nil)
				if err != nil {
					b.Fatal(err)
				}
				per, err = m.BenchYield(n, 1)
				if err != nil {
					b.Skipf("%s unsupported at %d flows on %s: %v", kind, n, platName, err)
				}
			}
			b.ReportMetric(per, "sim-ns/switch")
		})
	}
}

func BenchmarkFig4LinuxSwitch(b *testing.B) { benchSwitchFigure(b, "linux-x86") }
func BenchmarkFig5MacSwitch(b *testing.B)   { benchSwitchFigure(b, "mac-g5") }
func BenchmarkFig6SunSwitch(b *testing.B)   { benchSwitchFigure(b, "sun-solaris9") }
func BenchmarkFig7IBMSPSwitch(b *testing.B) { benchSwitchFigure(b, "ibm-sp") }
func BenchmarkFig8AlphaSwitch(b *testing.B) { benchSwitchFigure(b, "alpha-es45") }

// ---------------------------------------------------------------
// Figure 9: context switch vs stack size for the three migratable
// techniques. Wall ns/op is real work (memcpy for stack copy, page
// remapping for aliasing, nothing for isomalloc); sim-ns/switch is
// the platform model.

func BenchmarkFig9StackSize(b *testing.B) {
	for _, strat := range migrate.All() {
		for _, size := range []uint64{8 << 10, 64 << 10, 512 << 10, 2 << 20, 8 << 20} {
			b.Run(fmt.Sprintf("%s/%dKB", strat.Name(), size>>10), func(b *testing.B) {
				var pt harness.Fig9Point
				var err error
				for i := 0; i < b.N; i++ {
					pt, err = harness.Fig9Measure(strat, size, 20)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(pt.VirtualNs, "sim-ns/switch")
				b.ReportMetric(pt.WallNs, "wall-ns/switch")
			})
		}
	}
}

// ---------------------------------------------------------------
// Figure 10 / §4.3: minimal context switch routines, wall clock.

func BenchmarkFig10MinimalSwap(b *testing.B) {
	var x, y converse.RegContext
	var live [converse.CalleeSavedRegs]uint64
	sp := uint64(0x1000)
	b.Run("minimal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			converse.MinimalSwap(&x, &y, &live, &sp)
		}
	})
	var liveF [converse.FullRegs]uint64
	b.Run("full-registers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			converse.FullSwap(&x, &y, &liveF, &sp)
		}
	})
	mask := uint64(0)
	b.Run("full-plus-sigmask", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			converse.SigmaskSwap(&x, &y, &liveF, &sp, &mask)
		}
	})
	b.Run("goroutine-handoff", func(b *testing.B) {
		ping := make(chan struct{})
		pong := make(chan struct{})
		go func() {
			for range ping {
				pong <- struct{}{}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping <- struct{}{}
			<-pong
		}
		b.StopTimer()
		close(ping)
	})
	b.Run("coroutine-switch", func(b *testing.B) {
		converse.SwitchRoundTrips(b.N)
	})
}

// ---------------------------------------------------------------
// Figure 11: BigSim time per step across simulating PE counts.

func BenchmarkFig11BigSim(b *testing.B) {
	for _, pes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("simPEs-%d", pes), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				cfg := bigsim.DefaultConfig()
				cfg.X, cfg.Y, cfg.Z = 16, 16, 8 // 2048 target processors
				cfg.SimPEs = pes
				sim, err := bigsim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				mean = bigsim.MeanStepTime(sim.Run(4))
				sim.Close()
			}
			b.ReportMetric(mean, "sim-ns/step")
		})
	}
}

// BenchmarkFig11BigSimParallel measures the REAL wall-clock speedup
// of driving the simulating PEs with one goroutine each (SMP
// execution, possible because isomalloc threads are not exclusive).
// ns/op is honest wall time per 4-step run.
func BenchmarkFig11BigSimParallel(b *testing.B) {
	for _, pes := range []int{1, 4} {
		for _, mode := range []string{"serial", "parallel"} {
			b.Run(fmt.Sprintf("simPEs-%d/%s", pes, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg := bigsim.DefaultConfig()
					cfg.X, cfg.Y, cfg.Z = 16, 16, 8
					cfg.SimPEs = pes
					sim, err := bigsim.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if mode == "parallel" {
						sim.RunParallel(4)
					} else {
						sim.Run(4)
					}
					sim.Close()
				}
			})
		}
	}
}

// ---------------------------------------------------------------
// Figure 12: BT-MZ with and without LB.

func BenchmarkFig12BTMZ(b *testing.B) {
	for _, p := range npb.Cases(10, nil) {
		for _, lb := range []string{"none", "greedy"} {
			b.Run(p.Label()+"/"+lb, func(b *testing.B) {
				q := p
				if lb == "greedy" {
					q.LB = loadbalance.GreedyLB{}
				}
				var res *npb.Result
				var err error
				for i := 0; i < b.N; i++ {
					res, err = npb.Run(q)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.TimeNs/1e6, "sim-ms/run")
				b.ReportMetric(res.Imbalance, "imbalance")
			})
		}
	}
}

// ---------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md).

// BenchmarkAblationGOTSwap: per-switch cost of swap-global
// privatization as the number of globals grows.
func BenchmarkAblationGOTSwap(b *testing.B) {
	for _, nglobals := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("globals-%d", nglobals), func(b *testing.B) {
			layout := swapglobal.NewLayout()
			for i := 0; i < nglobals; i++ {
				layout.Declare(fmt.Sprintf("g%d", i), 8)
			}
			space := vmem.NewSpace(0)
			got, err := swapglobal.Install(space, 0x30000000, layout)
			if err != nil {
				b.Fatal(err)
			}
			heap, err := mem.NewHeap(space, vmem.Range{Start: 0x1000000, Length: 16 << 20})
			if err != nil {
				b.Fatal(err)
			}
			inst, err := swapglobal.NewInstance(layout, mem.AsAllocator(heap))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := got.Swap(inst.Image()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMallocInterpose: isomalloc-through-interposer
// versus direct system-heap allocation.
func BenchmarkAblationMallocInterpose(b *testing.B) {
	space := vmem.NewSpace(0)
	sys, err := mem.NewHeap(space, vmem.Range{Start: 0x1000000, Length: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	region, err := mem.NewIsoRegion(mem.DefaultIsoBase, 64<<20, 1)
	if err != nil {
		b.Fatal(err)
	}
	th := mem.NewThreadHeap(mem.NewIsoAllocator(region, 0), space, 0)
	ip := mem.NewInterposer(mem.AsAllocator(sys))
	b.Run("system-direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := sys.Alloc(64)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Free(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interposed-system", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := ip.Malloc(64)
			if err != nil {
				b.Fatal(err)
			}
			if err := ip.Free(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interposed-isomalloc", func(b *testing.B) {
		ip.Enter(th)
		defer ip.Exit()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a, err := ip.Malloc(64)
			if err != nil {
				b.Fatal(err)
			}
			if err := ip.Free(a); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSchedulerLayers quantifies §4.3's layering claim:
// the minimal swap versus the full migratable scheduler path.
func BenchmarkAblationSchedulerLayers(b *testing.B) {
	b.Run("fast-ult-yield", func(b *testing.B) {
		s := converse.NewFastScheduler()
		n := b.N
		for i := 0; i < 2; i++ {
			th := s.Create(func(c *converse.FastCtx) {
				for j := 0; j < n; j++ {
					c.Yield()
				}
			})
			s.Start(th)
		}
		b.ResetTimer()
		s.RunUntilIdle()
	})
	b.Run("migratable-yield", func(b *testing.B) {
		region, err := mem.NewIsoRegion(mem.DefaultIsoBase, 4096*vmem.PageSize, 1)
		if err != nil {
			b.Fatal(err)
		}
		pe, err := converse.NewPE(converse.PEConfig{Index: 0, Profile: platform.Opteron(), IsoRegion: region})
		if err != nil {
			b.Fatal(err)
		}
		n := b.N
		for i := 0; i < 2; i++ {
			th, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}, StackSize: vmem.PageSize}, func(c *converse.Ctx) {
				for j := 0; j < n; j++ {
					c.Yield()
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			pe.Sched.Start(th)
		}
		b.ResetTimer()
		pe.Sched.RunUntilIdle()
	})
}

// BenchmarkAblationLBStrategies compares balancers on the B.64 case.
func BenchmarkAblationLBStrategies(b *testing.B) {
	for _, name := range []string{"greedy", "refine", "rotate"} {
		b.Run(name, func(b *testing.B) {
			strat, err := loadbalance.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			p := npb.Params{Class: npb.ClassB, NProcs: 64, NPEs: 8, Steps: 10, LB: strat}
			var res *npb.Result
			for i := 0; i < b.N; i++ {
				res, err = npb.Run(p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.TimeNs/1e6, "sim-ms/run")
			b.ReportMetric(res.Imbalance, "imbalance")
		})
	}
}

// BenchmarkAblationVirtualization sweeps the virtualization ratio
// (AMPI ranks per PE) on the BT-MZ class-B problem with LB on:
// post-LB execution time stays near the balanced optimum at every
// ratio, even though the *pre*-LB placement degrades sharply as
// ranks approach one-zone granularity (compare the Fig12 bench's
// "none" rows) — thread migration recovers what decomposition
// granularity loses, the paper's §4.5 argument for virtualization.
func BenchmarkAblationVirtualization(b *testing.B) {
	for _, nprocs := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("ranks-%d-on-8PE", nprocs), func(b *testing.B) {
			p := npb.Params{Class: npb.ClassB, NProcs: nprocs, NPEs: 8, Steps: 10, LB: loadbalance.GreedyLB{}}
			var res *npb.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = npb.Run(p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.TimeNs/1e6, "sim-ms/run")
			b.ReportMetric(res.Imbalance, "imbalance")
		})
	}
}

// BenchmarkAblationBlockingModels reports the §2.2-2.3 blocking-call
// makespans per threading model (virtual time).
func BenchmarkAblationBlockingModels(b *testing.B) {
	prof := platform.LinuxX86()
	w := flows.BlockingWorkload{Flows: 16, Bursts: 10, ComputeNs: 20_000, IONs: 100_000}
	for _, c := range []struct {
		name  string
		model flows.BlockingModel
		m     int
	}{
		{"N1", flows.ModelN1, 0},
		{"NM-8", flows.ModelNM, 8},
		{"1to1", flows.Model1to1, 0},
		{"activations", flows.ModelActivations, 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			var v float64
			var err error
			for i := 0; i < b.N; i++ {
				v, err = flows.SimulateBlocking(c.model, prof, w, c.m)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(v/1e6, "sim-ms/makespan")
		})
	}
}

// BenchmarkMigration measures a real end-to-end thread migration
// (extract + PUP round trip + install + adoption) per stack size.
func BenchmarkMigration(b *testing.B) {
	for _, strat := range migrate.All() {
		for _, size := range []uint64{16 << 10, 256 << 10} {
			b.Run(fmt.Sprintf("%s/%dKB", strat.Name(), size>>10), func(b *testing.B) {
				region, err := mem.NewIsoRegion(mem.DefaultIsoBase, uint64(b.N+4)*2*vmem.RoundUpPages(size)+4096*vmem.PageSize, 2)
				if err != nil {
					b.Fatal(err)
				}
				mk := func(i int) *converse.PE {
					pe, err := converse.NewPE(converse.PEConfig{Index: i, Profile: platform.Opteron(), IsoRegion: region})
					if err != nil {
						b.Fatal(err)
					}
					return pe
				}
				pes := []*converse.PE{mk(0), mk(1)}
				hops := 0
				pes[0].Sched.SetMigrateHandler(func(t *converse.Thread, dest int) {
					if _, err := migrate.MigrateNow(t, pes[0], pes[1], nil); err != nil {
						b.Fatal(err)
					}
					hops++
				})
				pes[1].Sched.SetMigrateHandler(func(t *converse.Thread, dest int) {
					if _, err := migrate.MigrateNow(t, pes[1], pes[0], nil); err != nil {
						b.Fatal(err)
					}
					hops++
				})
				n := b.N
				th, err := pes[0].Sched.CthCreate(converse.ThreadOptions{Strategy: strat, StackSize: size}, func(c *converse.Ctx) {
					for i := 0; i < n; i++ {
						c.MigrateTo(1 - c.PE().Index)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				pes[0].Sched.Start(th)
				b.ResetTimer()
				for pes[0].Sched.ReadyLen() > 0 || pes[1].Sched.ReadyLen() > 0 {
					pes[0].Sched.RunUntilIdle()
					pes[1].Sched.RunUntilIdle()
				}
				b.StopTimer()
				if hops < n {
					b.Fatalf("only %d of %d migrations ran", hops, n)
				}
			})
		}
	}
}

// BenchmarkPUP measures serialization throughput of the PUP framework.
func BenchmarkPUP(b *testing.B) {
	im := &converse.StackImage{Strategy: "isomalloc", Base: 0x40000000, Size: 64 << 10,
		Runs: []vmem.Run{{Addr: 0x40000000, Data: make([]byte, 64<<10)}}}
	b.Run("pack-64KB-stack", func(b *testing.B) {
		b.SetBytes(64 << 10)
		for i := 0; i < b.N; i++ {
			if _, err := pup.Pack(im); err != nil {
				b.Fatal(err)
			}
		}
	})
	data, err := pup.Pack(im)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unpack-64KB-stack", func(b *testing.B) {
		b.SetBytes(64 << 10)
		for i := 0; i < b.N; i++ {
			var out converse.StackImage
			if err := pup.Unpack(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVmemAccess measures the simulated-memory substrate itself.
func BenchmarkVmemAccess(b *testing.B) {
	s := vmem.NewSpace(0)
	if err := s.Map(0x10000, 16*vmem.PageSize, vmem.ProtRW); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.Run("write-4KB", func(b *testing.B) {
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			if err := s.Write(0x10800, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read-uint64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.ReadUint64(0x10008); err != nil {
				b.Fatal(err)
			}
		}
	})
}
