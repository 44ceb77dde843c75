package harness

import (
	"bytes"
	"migflow/internal/platform"
	"strings"
	"testing"

	"migflow/internal/bigsim"
	"migflow/internal/converse"
	"migflow/internal/flows"
	"migflow/internal/migrate"
	"migflow/internal/vmem"
)

func TestTable1Render(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"Stack Copy", "Isomalloc", "Memory Alias", "bgl", "windows", "No", "Maybe", "Yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Probe(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table2(&buf, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Spot-check against the paper's Table 2.
	byKind := map[flows.Kind]Table2Row{}
	for _, r := range rows {
		byKind[r.Kind] = r
	}
	if got := byKind[flows.KindProcess].Limits["ibm-sp"]; got != 100 {
		t.Errorf("IBM SP process limit = %d, want 100", got)
	}
	if got := byKind[flows.KindKThread].Limits["linux-x86"]; got != 250 {
		t.Errorf("Linux pthread limit = %d, want 250", got)
	}
	if got := byKind[flows.KindUserThread].Limits["ibm-sp"]; got != 15000 {
		t.Errorf("IBM SP ULT limit = %d, want 15000", got)
	}
	if got := byKind[flows.KindUserThread].Limits["linux-x86"]; got != 100000 {
		t.Errorf("Linux ULT probe = %d, want cap (unbounded)", got)
	}
}

func TestFigureSwitchCurves(t *testing.T) {
	var buf bytes.Buffer
	curves, err := FigureSwitchCurves(&buf, "linux-x86", []int{2, 16, 128}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves[flows.KindUserThread]) != 3 {
		t.Errorf("ULT curve has %d points", len(curves[flows.KindUserThread]))
	}
	// Figure 4 ordering at every point.
	for i := range curves[flows.KindUserThread] {
		u := curves[flows.KindUserThread][i].NsPerYield
		p := curves[flows.KindProcess][i].NsPerYield
		if !(u < p) {
			t.Errorf("point %d: ULT %g not faster than process %g", i, u, p)
		}
	}
	if _, err := FigureSwitchCurves(&buf, "vax", []int{2}, 1); err == nil {
		t.Error("unknown platform accepted")
	}
}

// TestFig9Shape pins the Figure 9 result in *virtual* time (the
// stable basis): isomalloc is flat and fastest everywhere; stack
// copying is cheap for small stacks but grows linearly, becoming
// "unusably slow" past ~20 KB; memory aliasing is a flat ~4-6 µs, so
// the copy and alias curves cross between small and large stacks.
func TestFig9Shape(t *testing.T) {
	get := func(strat converse.StackStrategy, size uint64) Fig9Point {
		pt, err := Fig9Measure(strat, size, 40)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	for _, size := range []uint64{8 << 10, 64 << 10, 512 << 10} {
		sc := get(migrate.StackCopy{}, size)
		iso := get(migrate.Isomalloc{}, size)
		al := get(migrate.MemoryAlias{}, size)
		// Isomalloc is the fastest overall at every size.
		if !(iso.VirtualNs < al.VirtualNs && iso.VirtualNs < sc.VirtualNs) {
			t.Errorf("size %d: isomalloc not fastest: iso=%g alias=%g copy=%g",
				size, iso.VirtualNs, al.VirtualNs, sc.VirtualNs)
		}
	}
	// The crossover: below ~20 KB copying beats aliasing; well above
	// it, aliasing wins.
	if sc, al := get(migrate.StackCopy{}, 8<<10), get(migrate.MemoryAlias{}, 8<<10); !(sc.VirtualNs < al.VirtualNs) {
		t.Errorf("8KB: copy %g should beat alias %g", sc.VirtualNs, al.VirtualNs)
	}
	if sc, al := get(migrate.StackCopy{}, 512<<10), get(migrate.MemoryAlias{}, 512<<10); !(al.VirtualNs < sc.VirtualNs) {
		t.Errorf("512KB: alias %g should beat copy %g", al.VirtualNs, sc.VirtualNs)
	}
	// Stack copy cost grows ~linearly with stack size.
	small := get(migrate.StackCopy{}, 8<<10)
	big := get(migrate.StackCopy{}, 512<<10)
	if ratio := big.VirtualNs / small.VirtualNs; ratio < 10 {
		t.Errorf("stack-copy cost grew only %.1fx over a 64x stack growth", ratio)
	}
	// Isomalloc stays flat.
	isoSmall := get(migrate.Isomalloc{}, 8<<10)
	isoBig := get(migrate.Isomalloc{}, 512<<10)
	if ratio := isoBig.VirtualNs / isoSmall.VirtualNs; ratio > 1.2 {
		t.Errorf("isomalloc cost grew %.2fx with stack size; should be flat", ratio)
	}
	// Memory aliasing grows only slowly (page-table work).
	alSmall := get(migrate.MemoryAlias{}, 8<<10)
	alBig := get(migrate.MemoryAlias{}, 512<<10)
	if ratio := alBig.VirtualNs / alSmall.VirtualNs; ratio > 4 {
		t.Errorf("memalias cost grew %.2fx; should grow only slowly", ratio)
	}
}

func TestFigure9Render(t *testing.T) {
	var buf bytes.Buffer
	pts, err := Figure9(&buf, []uint64{8 << 10, 32 << 10}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Errorf("points = %d, want 6", len(pts))
	}
	if !strings.Contains(buf.String(), "8KB") {
		t.Error("output missing size labels")
	}
}

func TestFigure10(t *testing.T) {
	var buf bytes.Buffer
	res := Figure10(&buf, 200000)
	if res.MinimalNs <= 0 {
		t.Error("minimal swap measured nothing")
	}
	// The §4.3 ordering: minimal < full < full+sigmask.
	if !(res.MinimalNs < res.FullNs && res.FullNs < res.SigmaskNs) {
		t.Errorf("ordering broken: minimal=%g full=%g sigmask=%g",
			res.MinimalNs, res.FullNs, res.SigmaskNs)
	}
	if res.CoroutineNs <= 0 || !strings.Contains(buf.String(), "coroutine switch") {
		t.Errorf("coroutine switch row missing: %g ns\n%s", res.CoroutineNs, buf.String())
	}
}

func TestFigure11(t *testing.T) {
	var buf bytes.Buffer
	pts, err := Figure11(&buf, 8, 8, 4, 3, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if !(pts[2].StepTimeNs < pts[0].StepTimeNs) {
		t.Error("no scaling from 1 to 4 PEs")
	}
}

func TestFigure11Mode(t *testing.T) {
	var buf bytes.Buffer
	pts, err := Figure11Mode(&buf, 8, 8, 4, 3, []int{1, 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if !(p.EventStepNs < p.ULTStepNs) {
			t.Errorf("simPEs=%d: event step %g not below ult %g", p.SimPEs, p.EventStepNs, p.ULTStepNs)
		}
		if p.PredictedNs <= 0 {
			t.Errorf("simPEs=%d: predicted %g", p.SimPEs, p.PredictedNs)
		}
	}
	// The prediction is backend- and PE-count-invariant.
	if pts[0].PredictedNs != pts[1].PredictedNs {
		t.Errorf("prediction varies with simPEs: %g vs %g", pts[0].PredictedNs, pts[1].PredictedNs)
	}
	if !strings.Contains(buf.String(), "ult/event") {
		t.Error("report missing ult/event column")
	}
}

func TestFlowFootprint(t *testing.T) {
	cfg := bigsim.Config{
		X: 8, Y: 8, Z: 4, SimPEs: 4,
		AtomsPerCell: 10, WorkPerAtomNs: 5, GhostBytes: 256,
	}
	cfg.Mode = bigsim.ModeEvent
	_, gEvent, err := FlowFootprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gEvent != 0 {
		t.Errorf("event mode spends %g goroutines/flow, want 0", gEvent)
	}
	cfg.Mode = bigsim.ModeULT
	_, gULT, err := FlowFootprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gULT < 0.99 || gULT > 1.01 {
		t.Errorf("ult mode spends %g goroutines/flow, want 1", gULT)
	}
}

func TestFigure12(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	pairs, err := Figure12(&buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Fatalf("cases = %d", len(pairs))
	}
	for _, pr := range pairs {
		if !(pr[1].TimeNs <= pr[0].TimeNs*1.02) {
			t.Errorf("%s: LB made it worse: %g vs %g", pr[0].Params.Label(), pr[1].TimeNs, pr[0].TimeNs)
		}
	}
}

// TestIsoCapacity pins the §3.4.2 arithmetic: 1 MiB threads exhaust
// a 32-bit node's slot in the low thousands while a 64-bit node
// shrugs.
func TestIsoCapacity(t *testing.T) {
	var buf bytes.Buffer
	pts, err := IsoCapacity(&buf, []uint64{1 << 20}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	p32, p64 := pts[0], pts[1]
	if p32.Bits != 32 || p64.Bits != 64 {
		t.Fatalf("order: %+v", pts)
	}
	// 2 GiB / (1 MiB + guard page) ≈ 2039.
	if p32.Threads < 1500 || p32.Threads > 2100 {
		t.Errorf("32-bit capacity = %d, want ≈ 2000", p32.Threads)
	}
	if p64.Threads < 30*p32.Threads {
		t.Errorf("64-bit capacity %d not ≫ 32-bit %d", p64.Threads, p32.Threads)
	}
	if !strings.Contains(buf.String(), "1MB") {
		t.Error("report missing size label")
	}
}

func TestByteSize(t *testing.T) {
	if byteSize(8<<20) != "8MB" || byteSize(64<<10) != "64KB" || byteSize(100) != "100B" {
		t.Error("byteSize formatting wrong")
	}
}

func TestFig9MeasureRejectsHugeRegionless(t *testing.T) {
	// Smallest sanity: a page-size stack still works.
	if _, err := Fig9Measure(migrate.Isomalloc{}, 2*vmem.PageSize, 5); err != nil {
		t.Errorf("tiny stack measure failed: %v", err)
	}
}

func TestBlockingModelsRender(t *testing.T) {
	var buf bytes.Buffer
	out, err := BlockingModels(&buf, platform.LinuxX86())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("cases = %d", len(out))
	}
	if out["N:1 user threads"] <= out["1:1 kernel threads"] {
		t.Error("N:1 should be the slowest")
	}
	if !strings.Contains(buf.String(), "N:M hybrid (M=8)") {
		t.Error("report missing N:M row")
	}
}
