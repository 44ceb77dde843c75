package npb

import (
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"migflow/internal/ampi"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
)

// TestProgramModesAgree: the shared step body interpreted by threads
// and by event records must predict bit-identical makespans — both
// the placement-derived TimeNs (no LB, so placements coincide) and
// the placement-invariant PredictedNs.
func TestProgramModesAgree(t *testing.T) {
	for _, base := range []Params{
		{Class: ClassA, NProcs: 8, NPEs: 4, Steps: 6},
		{Class: ClassB, NProcs: 64, NPEs: 8, Steps: 4},
		{Class: ClassZ4K, NProcs: 512, NPEs: 8, Steps: 3},
	} {
		p := base
		p.Mode = ampi.ModeULT
		ult, err := Run(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Label(), err)
		}
		p.Mode = ampi.ModeEvent
		ev, err := Run(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Label(), err)
		}
		if math.Float64bits(ult.TimeNs) != math.Float64bits(ev.TimeNs) {
			t.Errorf("%s: TimeNs diverged: ult %v, event %v", base.Label(), ult.TimeNs, ev.TimeNs)
		}
		if math.Float64bits(ult.PredictedNs) != math.Float64bits(ev.PredictedNs) {
			t.Errorf("%s: PredictedNs diverged: ult %v, event %v", base.Label(), ult.PredictedNs, ev.PredictedNs)
		}
		if ult.PredictedNs == 0 {
			t.Errorf("%s: program mode reported zero predicted makespan", base.Label())
		}
	}
}

// TestProgramPredictedInvariantUnderLB: PredictedNs is virtual time,
// so even when the two modes' LB gates move different ranks (thread
// loads are measured CPU, event loads are modeled busy-ns), the
// predicted makespan must not budge — and must match the ungated run.
func TestProgramPredictedInvariantUnderLB(t *testing.T) {
	base := Params{Class: ClassZ4K, NProcs: 256, NPEs: 8, Steps: 4, Mode: ampi.ModeEvent}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{ampi.ModeULT, ampi.ModeEvent} {
		p := base
		p.Mode = mode
		p.LB = loadbalance.GreedyLB{}
		got, err := Run(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Label(), err)
		}
		if got.MovedRanks == 0 {
			t.Errorf("%s: skewed zones + greedy gate moved nothing", p.Label())
		}
		if math.Float64bits(got.PredictedNs) != math.Float64bits(ref.PredictedNs) {
			t.Errorf("%s: LB changed PredictedNs: %v vs %v", p.Label(), got.PredictedNs, ref.PredictedNs)
		}
	}
}

// TestEventLBImprovesSkewedMakespan is the acceptance run shrunk to
// CI scale: the skewed 4,096-zone class, one zone per event rank, LB
// gate after the measurement step. Block placement concentrates the
// graded (large) zones on the last PEs, so the balancer has real
// imbalance to fix and TimeNs must drop.
func TestEventLBImprovesSkewedMakespan(t *testing.T) {
	base := Params{Class: ClassZ4K, NProcs: ClassZ4K.NumZones(), NPEs: 8, Steps: 4, Mode: ampi.ModeEvent}
	before, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	p := base
	p.LB = loadbalance.GreedyLB{}
	after, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if after.MovedRanks == 0 {
		t.Fatal("LB gate moved nothing on the skewed class")
	}
	if after.TimeNs >= before.TimeNs {
		t.Fatalf("LB did not improve makespan: %.0f → %.0f ns", before.TimeNs, after.TimeNs)
	}
	if after.Imbalance >= before.Imbalance {
		t.Fatalf("LB did not improve imbalance: %.3f → %.3f", before.Imbalance, after.Imbalance)
	}
	// Moving a zone cost a record, not a stack: the whole 4,096-rank
	// reshuffle must stay in hundreds of bytes per rank.
	if per := float64(after.Migrations) / float64(after.MovedRanks); per != 1 {
		t.Fatalf("migration count %v != moved ranks %v", after.Migrations, after.MovedRanks)
	}
	t.Logf("skewed %s: %.2f ms → %.2f ms (moved %d ranks, imbalance %.3f → %.3f)",
		p.Label(), before.TimeNs/1e6, after.TimeNs/1e6, after.MovedRanks, before.Imbalance, after.Imbalance)
}

// TestBTMZOverlapImproves is the split-phase acceptance at CI scale:
// on the skewed graded class the overlapped schedule (nonblocking
// halo exchange + pipelined residual Iallreduce) must beat blocking,
// in makespan and in predicted time, on every flow backend — Figure
// 12's ULT ranks with globals, plain ULT ranks and event ranks — and
// the plain ULT and event backends must still agree bit-for-bit with
// each other under overlap.
func TestBTMZOverlapImproves(t *testing.T) {
	class := GradedClass("Z256", 16, 16, 1<<17, 20, 50)
	base := Params{
		Class: class, NProcs: class.NumZones(), NPEs: 8,
		Steps: 8, ReduceEvery: 4,
		Collectives: ampi.CollTopoTree,
		Topo:        ampi.Topology{Nodes: 8, GroupSize: 4},
	}
	for _, mode := range []string{"", ampi.ModeULT, ampi.ModeEvent} {
		p := base
		p.Mode = mode
		off, err := Run(p)
		if err != nil {
			t.Fatalf("mode=%q off: %v", mode, err)
		}
		p.Overlap = true
		on, err := Run(p)
		if err != nil {
			t.Fatalf("mode=%q on: %v", mode, err)
		}
		if !(on.TimeNs < off.TimeNs) {
			t.Errorf("mode=%q: overlap did not improve makespan: %.0f → %.0f ns", mode, off.TimeNs, on.TimeNs)
		}
		if !(on.PredictedNs < off.PredictedNs) {
			t.Errorf("mode=%q: overlap did not lower predicted time: %.0f → %.0f ns", mode, off.PredictedNs, on.PredictedNs)
		}
		if on.TopoHops == 0 {
			t.Errorf("mode=%q: topo trees charged no hops", mode)
		}
	}
	// Modes must stay bit-identical with overlap on.
	p := base
	p.Overlap = true
	p.Mode = ampi.ModeULT
	ult, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Mode = ampi.ModeEvent
	evt, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ult.PredictedNs) != math.Float64bits(evt.PredictedNs) {
		t.Errorf("overlap: PredictedNs diverged: ult %v, event %v", ult.PredictedNs, evt.PredictedNs)
	}
	if math.Float64bits(ult.TimeNs) != math.Float64bits(evt.TimeNs) {
		t.Errorf("overlap: TimeNs diverged: ult %v, event %v", ult.TimeNs, evt.TimeNs)
	}
}

// TestProgramModeRejectsBadCombos: mode validation happens before any
// machine is built, and event mode names the thread-only option it
// refuses.
func TestProgramModeRejectsBadCombos(t *testing.T) {
	if _, err := Run(Params{Class: ClassA, NProcs: 8, NPEs: 4, Mode: "fiber"}); err == nil {
		t.Error("unknown mode accepted")
	}
	_, err := Run(Params{Class: ClassA, NProcs: 8, NPEs: 4, Mode: ampi.ModeEvent, Trace: true})
	if err == nil {
		t.Error("event mode + Trace accepted")
	} else if !strings.Contains(err.Error(), "Trace") {
		t.Errorf("event mode + Trace: error %q does not name it", err)
	}
	if _, err := Run(Params{Class: ClassA, NProcs: 8, NPEs: 4, ReduceEvery: -1}); err == nil {
		t.Error("negative ReduceEvery accepted")
	}
}

// TestSteadyStateStepAllocations is ampi's test of the same name for
// the BT-MZ program, on two rows: one zone per event rank on the 64×64
// graded class, and Figure 12's A.16,8PE on ULT ranks with privatized
// globals. Both have a GreedyLB gate after the first step and a
// residual reduction every second. After a rank's first pass — which
// takes until the first steps after the gate, where the mailbox
// reaches its size — and once the message pool is warm, an event step
// allocates nothing: a halo is a pooled message lending the shared
// payload, and a reduction edge's value rides inside its message. The
// difference between a 4- and a 12-step run, per rank-step, stays
// within 0.1 allocations on the event row. The ULT row allows 1.5: its
// step-counter load through the privatized globals refills vmem's
// 4-extent TLB about once per rank-step (from four ranks per PE up, as
// in B.64,8PE, about twice). Where the pool drops what it is given
// (the race detector, the msgpoison tag) each row may also allocate
// every message afresh.
func TestSteadyStateStepAllocations(t *testing.T) {
	const short, long = 4, 12
	// The collector stays off so the message pool keeps what the runs
	// hand back.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, row := range []struct {
		name  string
		p     Params
		cfg   core.Config
		bound float64
	}{
		{"event Z4K", Params{Class: ClassZ4K, NProcs: ClassZ4K.NumZones(), NPEs: 4, Mode: ampi.ModeEvent},
			core.Config{NumPEs: 4}, 0.1},
		{"Figure 12 A.16,8PE", Params{Class: ClassA, NProcs: 16, NPEs: 8},
			core.Config{NumPEs: 8, Globals: btmzGlobals()}, 1.5},
	} {
		ranks := row.p.NProcs
		run := func(steps int) (mallocs, msgs uint64) {
			p := row.p
			p.Steps, p.LB, p.ReduceEvery = steps, loadbalance.GreedyLB{}, 2
			m, err := core.NewMachine(row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			job, err := ProgramJob(m, p)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			job.Run()
			runtime.ReadMemStats(&after)
			if !job.Done() {
				t.Fatalf("%s: %d-step job did not complete", row.name, steps)
			}
			return after.Mallocs - before.Mallocs, m.Network().Snapshot().Sent
		}
		// A warm-up run as long as the long one fills the pool to its
		// peak; without it the long run reuses the short one's messages
		// and the difference comes out negative.
		run(long)
		m0, s0 := run(short)
		m1, s1 := run(long)
		rankSteps := float64(ranks * (long - short))
		perStep, msgs, bound := (float64(m1)-float64(m0))/rankSteps, float64(s1-s0)/rankSteps, row.bound
		if lossyPool {
			bound += msgs
		}
		t.Logf("%s: %.3f allocations per steady-state rank-step (%.2f messages)", row.name, perStep, msgs)
		if perStep > bound {
			t.Errorf("%s: %.3f allocations per steady-state rank-step, want ≤ %.2f", row.name, perStep, bound)
		}
	}
}
