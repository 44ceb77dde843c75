package ampi

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"migflow/internal/loadbalance"
	"migflow/internal/pup"
)

// ncOut is one rank's collective results in the equivalence tests.
type ncOut struct {
	allred float64
	red    float64
	bcast  []byte
	parts  [][]byte
	vt     float64
}

// ncOutPUP is ncOut's Options.LocalPUP: the "migrate" gap moves event
// ranks with their results half collected.
func ncOutPUP(p *pup.PUPer, local any) (any, error) {
	o, _ := local.(*ncOut)
	if o == nil {
		o = &ncOut{}
	}
	n := len(o.parts)
	if err := pupFields(p, &o.allred, &o.red, &o.bcast, &o.vt, &n); err != nil {
		return nil, err
	}
	if p.IsUnpacking() {
		if n < 0 || n > p.Remaining()/4 {
			return nil, fmt.Errorf("ncOut claims %d gather parts", n)
		}
		o.parts = nil
		if n > 0 {
			o.parts = make([][]byte, n)
		}
	}
	for i := range o.parts {
		if err := pupFields(p, &o.parts[i]); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// TestThreadNonblockingMatchesBlocking runs the full collective set on
// thread (ULT) ranks twice — once through the blocking combinators,
// once as each one's (start, wait) pair back to back — and demands
// identical results, per-rank VT and PE clocks under every topology:
// a blocking collective is its start plus its wait, so splitting it
// may not change a single charge.
func TestThreadNonblockingMatchesBlocking(t *testing.T) {
	const ranks, root = 12, 3
	val := func(k int) func(*PC) float64 { return func(pc *PC) float64 { return float64(pc.Rank() * k) } }
	seed := func(*PC) []byte { return []byte("split-phase") }
	mine := func(pc *PC) []byte { return []byte{byte(pc.Rank())} }
	setAll := func(pc *PC, v float64) { pc.Local.(*ncOut).allred = v }
	setRed := func(pc *PC, v float64) { pc.Local.(*ncOut).red = v }
	setBc := func(pc *PC, b []byte) { pc.Local.(*ncOut).bcast = b }
	setGa := func(pc *PC, parts [][]byte) { pc.Local.(*ncOut).parts = parts }
	split := func(start, wait Proc) Proc { return Seq(start, wait) }
	run := func(algo CollAlgo, body Proc) ([]ncOut, float64) {
		out := make([]ncOut, ranks)
		_, m := runProg(t, 4, ranks, Options{Collectives: algo, TreeArity: 2, MsgOverheadNs: 500}, Seq(
			Do(func(pc *PC) { pc.Local = &ncOut{} }),
			body,
			Do(func(pc *PC) {
				out[pc.Rank()] = *pc.Local.(*ncOut)
				out[pc.Rank()].vt = pc.VT()
			}),
		))
		return out, m.MaxTime()
	}
	for _, algo := range []CollAlgo{CollTree, CollFlat, CollTopoTree} {
		blk, blkT := run(algo, Seq(
			Barrier(),
			Allreduce("sum", val(1), setAll),
			Reduce(root, "max", val(3), setRed),
			Bcast(root, seed, setBc),
			Gather(root, mine, setGa),
		))
		spl, splT := run(algo, Seq(
			split(Ibarrier()),
			split(Iallreduce("sum", val(1), setAll)),
			split(Ireduce(root, "max", val(3), setRed)),
			split(Ibcast(root, seed, setBc)),
			split(Igather(root, mine, setGa)),
		))
		if math.Float64bits(blkT) != math.Float64bits(splT) {
			t.Errorf("%s: PE clocks diverged: blocking %g, split %g", algoName(algo), blkT, splT)
		}
		for rk := range blk {
			if math.Float64bits(blk[rk].vt) != math.Float64bits(spl[rk].vt) {
				t.Errorf("%s: rank %d VT diverged: %g vs %g", algoName(algo), rk, blk[rk].vt, spl[rk].vt)
			}
			if blk[rk].allred != spl[rk].allred || blk[rk].red != spl[rk].red {
				t.Errorf("%s: rank %d reductions diverged: %+v vs %+v", algoName(algo), rk, blk[rk], spl[rk])
			}
			if !bytes.Equal(blk[rk].bcast, spl[rk].bcast) {
				t.Errorf("%s: rank %d bcast diverged: %q vs %q", algoName(algo), rk, blk[rk].bcast, spl[rk].bcast)
			}
			if len(blk[rk].parts) != len(spl[rk].parts) {
				t.Errorf("%s: rank %d gather diverged", algoName(algo), rk)
			}
		}
	}
}

// TestThreadIcollOverlapWindow pins the point of the split on thread
// ranks: a leaf's contribution is in flight at start, and interleaving
// independent point-to-point traffic between start and wait corrupts
// neither the collective nor the messages.
func TestThreadIcollOverlapWindow(t *testing.T) {
	const ranks = 8
	sums := make([]float64, ranks)
	start, wait := Iallreduce("sum", func(*PC) float64 { return 1 },
		func(pc *PC, v float64) { sums[pc.Rank()] = v })
	runProg(t, 2, ranks, Options{Collectives: CollTree}, Seq(
		start,
		// Unrelated halo traffic inside the overlap window.
		Do(func(pc *PC) { pc.Send((pc.Rank()+1)%ranks, 7, []byte{byte(pc.Rank())}) }),
		RecvFrom(func(pc *PC) int { return (pc.Rank() + ranks - 1) % ranks }, 7,
			func(pc *PC, data []byte, from int) {
				if len(data) != 1 || int(data[0]) != from {
					t.Errorf("rank %d: halo inside window broken: %v from %d", pc.Rank(), data, from)
				}
			}),
		wait,
	))
	for rk, v := range sums {
		if v != ranks {
			t.Errorf("rank %d sum = %g, want %d", rk, v, ranks)
		}
	}
}

// ncProgram builds the program-API equivalence workload. gap selects
// what separates each collective's start from its wait:
// "none" (adjacent — the blocking decomposition), "work" (compute in
// the overlap window), or "migrate" (a full LB gate between the
// halves — collectives in flight across a migration).
func ncProgram(gap string, out *[]ncOut, mu *sync.Mutex) Proc {
	const root = 2
	gapProc := func() Proc {
		switch gap {
		case "work":
			return Do(func(pc *PC) { pc.Work(700) })
		case "migrate":
			return Migrate(loadbalance.GreedyLB{})
		}
		return Seq()
	}
	arS, arW := Iallreduce("sum",
		func(pc *PC) float64 { return float64(pc.Rank() + 1) },
		func(pc *PC, v float64) { pc.Local.(*ncOut).allred = v })
	rdS, rdW := Ireduce(root, "max",
		func(pc *PC) float64 { return float64(pc.Rank() * 3) },
		func(pc *PC, v float64) { pc.Local.(*ncOut).red = v })
	bcS, bcW := Ibcast(root,
		func(pc *PC) []byte { return []byte("program-split") },
		func(pc *PC, b []byte) { pc.Local.(*ncOut).bcast = b })
	gaS, gaW := Igather(root,
		func(pc *PC) []byte { return []byte{byte(pc.Rank())} },
		func(pc *PC, parts [][]byte) { pc.Local.(*ncOut).parts = parts })
	baS, baW := Ibarrier()
	return Seq(
		Do(func(pc *PC) {
			pc.Local = &ncOut{}
			pc.Work(float64(10 * (pc.Rank() + 1))) // skew so LB has something to move
		}),
		baS, gapProc(), baW,
		arS, gapProc(), arW,
		rdS, gapProc(), rdW,
		bcS, gapProc(), bcW,
		gaS, gapProc(), gaW,
		Do(func(pc *PC) {
			o := *pc.Local.(*ncOut)
			o.vt = pc.VT()
			mu.Lock()
			(*out)[pc.Rank()] = o
			mu.Unlock()
		}),
	)
}

// TestNonblockingCollEquivalence is the acceptance matrix: the same
// split-phase collective program across mode (ult|event) × PE count ×
// gap (adjacent | work in the window | LB gate in the window) must
// produce bit-identical per-rank virtual times and results within
// each gap variant — the flow backend, the placement, and a
// mid-collective migration are all invisible to the simulated
// program. The "none" variant must additionally match the blocking
// forms exactly, which it does by construction (blocking = start;wait).
func TestNonblockingCollEquivalence(t *testing.T) {
	const ranks = 24
	run := func(gap, mode string, pes int) []ncOut {
		var mu sync.Mutex
		out := make([]ncOut, ranks)
		m := newMachine(t, pes, nil)
		// The logical topology is fixed (not tied to the PE count):
		// hop charges and the tree shape are pure functions of rank
		// and Options, which is what keeps VT invariant across
		// placements.
		j, err := NewProgram(m, ranks, Options{
			Mode: mode, MsgOverheadNs: 250, BlockPlacement: true,
			Collectives: CollTopoTree, Topo: Topology{Nodes: 6, GroupSize: 2},
			LocalPUP: ncOutPUP,
		}, ncProgram(gap, &out, &mu))
		if err != nil {
			t.Fatal(err)
		}
		j.Run()
		if !j.Done() {
			t.Fatalf("gap=%s mode=%s pes=%d: job deadlocked", gap, mode, pes)
		}
		return out
	}
	for _, gap := range []string{"none", "work", "migrate"} {
		gap := gap
		t.Run(gap, func(t *testing.T) {
			ref := run(gap, ModeULT, 4)
			for _, mode := range []string{ModeULT, ModeEvent} {
				for _, pes := range []int{1, 4, 6} {
					got := run(gap, mode, pes)
					for rk := range got {
						label := fmt.Sprintf("gap=%s mode=%s pes=%d rank=%d", gap, mode, pes, rk)
						if math.Float64bits(got[rk].vt) != math.Float64bits(ref[rk].vt) {
							t.Fatalf("%s: VT %g differs from reference %g", label, got[rk].vt, ref[rk].vt)
						}
						if got[rk].allred != ref[rk].allred || got[rk].allred != ranks*(ranks+1)/2 {
							t.Fatalf("%s: allreduce %g, ref %g", label, got[rk].allred, ref[rk].allred)
						}
						if got[rk].red != ref[rk].red {
							t.Fatalf("%s: reduce %g, ref %g", label, got[rk].red, ref[rk].red)
						}
						if !bytes.Equal(got[rk].bcast, []byte("program-split")) {
							t.Fatalf("%s: bcast %q", label, got[rk].bcast)
						}
						if (rk == 2) != (got[rk].parts != nil) {
							t.Fatalf("%s: gather presence wrong", label)
						}
					}
				}
			}
		})
	}
	// The work-gap schedule must be cheaper than serializing the same
	// work after blocking collectives: overlap hides the tree latency.
	serial := run("none", ModeULT, 4)
	overlap := run("work", ModeULT, 4)
	extra := 5 * 700.0 // five gaps of Work(700) per rank
	if !(overlap[ranks-1].vt < serial[ranks-1].vt+extra) {
		t.Errorf("overlap bought nothing: split VT %g vs blocking-then-work %g",
			overlap[ranks-1].vt, serial[ranks-1].vt+extra)
	}
}

// TestFinishWithCollectiveOutstanding: a program that starts a
// nonblocking collective and never waits for it is a bug its peers
// would otherwise pay for by hanging in theirs. Finishing names the
// rank and the site, and the panic reaches whoever called Run — from a
// rank's first activation (the bare start) as from one resumed by a
// delivery (the ring exchange after it), in both modes.
func TestFinishWithCollectiveOutstanding(t *testing.T) {
	ring := Seq(
		Do(func(pc *PC) { pc.Send((pc.Rank()+1)%pc.Size(), 0, nil) }),
		RecvFrom(func(pc *PC) int { return (pc.Rank() + pc.Size() - 1) % pc.Size() }, 0, nil),
	)
	for _, mode := range []string{ModeULT, ModeEvent} {
		for name, tail := range map[string]Proc{"first activation": Seq(), "after a delivery": ring} {
			start, _ := Iallreduce("sum", func(*PC) float64 { return 1 }, nil)
			m := newMachine(t, 2, nil)
			job, err := NewProgram(m, 3, Options{Mode: mode, StackSize: 32 << 10}, Seq(start, tail))
			if err != nil {
				t.Fatal(err)
			}
			var got any
			func() {
				defer func() { got = recover() }()
				job.Run()
			}()
			msg := fmt.Sprint(got)
			if got == nil || !strings.Contains(msg, "finished with Iallreduce outstanding") || !strings.Contains(msg, "ampi: rank ") {
				t.Fatalf("%s, %s: Run returned %v, want a panic naming the rank and the Iallreduce site", mode, name, got)
			}
		}
	}
}

// TestWildcardSkipsCollectiveTraffic: a wildcard receive matches
// application tags only, as in MPI. Rank 1 starts an Allreduce — its
// contribution is on the wire to the root, rank 0 — and then sends
// rank 0 one byte with tag 7; rank 0 posts Recv(AnySource, AnyTag)
// before joining the reduction. The receive must take the tag-7 byte,
// not the runtime's own negative-tagged edge, and the reduction must
// still complete, in both modes.
func TestWildcardSkipsCollectiveTraffic(t *testing.T) {
	const tag = 7
	type result struct {
		data []byte
		from int
		sums [2]float64
	}
	check := func(name string, job *Job, got *result) {
		t.Helper()
		job.Run()
		if !job.Done() {
			t.Errorf("%s: job did not complete", name)
		}
		if !bytes.Equal(got.data, []byte{tag}) || got.from != 1 {
			t.Errorf("%s: wildcard receive got %v from rank %d, want [%d] from rank 1", name, got.data, got.from, tag)
		}
		if got.sums != [2]float64{3, 3} {
			t.Errorf("%s: Allreduce results %v, want [3 3]", name, got.sums)
		}
	}

	for _, mode := range []string{ModeULT, ModeEvent} {
		var prog result
		// The root's start sends nothing, so rank 0 receives before it
		// has taken any part in the reduction.
		start, wait := Iallreduce("sum", func(pc *PC) float64 { return float64(pc.Rank() + 1) },
			func(pc *PC, v float64) { prog.sums[pc.Rank()] = v })
		job, err := NewProgram(newMachine(t, 2, nil), 2, Options{Mode: mode}, Seq(
			start,
			Do(func(pc *PC) {
				if pc.Rank() == 1 {
					pc.Send(0, tag, []byte{tag})
				}
			}),
			RecvEach(func(pc *PC) []int {
				if pc.Rank() == 0 {
					return []int{AnySource}
				}
				return nil
			}, AnyTag, func(_ *PC, data []byte, from int) { prog.data, prog.from = bytes.Clone(data), from }),
			wait,
		))
		if err != nil {
			t.Fatal(err)
		}
		check("program API, "+mode, job, &prog)
	}
}
