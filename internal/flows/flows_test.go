package flows

import (
	"testing"

	"migflow/internal/platform"
)

func TestNewUnknownKind(t *testing.T) {
	if _, err := New("warp", platform.LinuxX86(), nil); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestKindsComplete(t *testing.T) {
	if len(Kinds()) != 5 {
		t.Errorf("Kinds() = %v", Kinds())
	}
	for _, k := range Kinds() {
		if _, err := New(k, platform.LinuxX86(), nil); err != nil {
			t.Fatalf("New(%s): %v", k, err)
		}
	}
}

// TestProbesReproduceTable2 reruns the Table 2 probes through the
// Mechanism interface for every platform in the table.
func TestProbesReproduceTable2(t *testing.T) {
	const cap = 100000
	for _, name := range platform.Table2Order() {
		prof, err := platform.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		expect := func(kind Kind, lim platform.Limit) {
			m, err := New(kind, prof, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := m.Probe(cap)
			if lim.Bounded() && got != lim.N {
				t.Errorf("%s %s probe = %d, want %d", name, kind, got, lim.N)
			}
			if !lim.Bounded() && got != cap {
				t.Errorf("%s %s probe = %d, want cap %d (unbounded)", name, kind, got, cap)
			}
		}
		expect(KindProcess, prof.MaxProcesses)
		expect(KindKThread, prof.MaxKernelThreads)
		expect(KindUserThread, prof.MaxUserThreads)
	}
}

func TestEventObjectsUnbounded(t *testing.T) {
	m, err := New(KindEventObject, platform.LinuxX86(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Probe(12345); got != 12345 {
		t.Errorf("event probe = %d", got)
	}
}

func TestBenchYieldRespectsLimits(t *testing.T) {
	prof := platform.LinuxX86() // 250 pthreads max
	m, err := New(KindKThread, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.BenchYield(1000, 1); err == nil {
		t.Error("benchmark beyond the pthread limit accepted")
	}
	if _, err := m.BenchYield(100, 2); err != nil {
		t.Errorf("within-limit bench failed: %v", err)
	}
	u, err := New(KindUserThread, platform.IBMSP(), nil) // 15000 cap
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.BenchYield(20000, 1); err == nil {
		t.Error("ULT bench beyond SP's 15000 limit accepted")
	}
}

// TestCurveShapeLinux pins the Figure 4 ordering on the Linux
// profile: ULT beats AMPI beats kernel flows, at every point.
func TestCurveShapeLinux(t *testing.T) {
	prof := platform.LinuxX86()
	counts := []int{2, 8, 32, 128}
	get := func(kind Kind) []Point {
		pts, err := Curve(kind, prof, counts, 3)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	ult, ampi, proc, kt := get(KindUserThread), get(KindAMPIThread), get(KindProcess), get(KindKThread)
	for i := range counts {
		if !(ult[i].NsPerYield < ampi[i].NsPerYield) {
			t.Errorf("n=%d: ULT %g !< AMPI %g", counts[i], ult[i].NsPerYield, ampi[i].NsPerYield)
		}
		if !(ampi[i].NsPerYield < kt[i].NsPerYield && kt[i].NsPerYield < proc[i].NsPerYield) {
			t.Errorf("n=%d: ordering broken: ampi=%g kt=%g proc=%g", counts[i], ampi[i].NsPerYield, kt[i].NsPerYield, proc[i].NsPerYield)
		}
	}
	// ULT time grows slowly with the number of flows.
	if !(ult[len(ult)-1].NsPerYield > ult[0].NsPerYield) {
		t.Error("ULT curve should grow with flow count on Linux")
	}
}

// TestCurveArtifactIBMSP pins the Figure 7 artifact: the kernel-flow
// curves sit *below* the ULT curve because sched_yield is ignored.
func TestCurveArtifactIBMSP(t *testing.T) {
	prof := platform.IBMSP()
	counts := []int{2, 8, 32}
	proc, err := Curve(KindProcess, prof, counts, 2)
	if err != nil {
		t.Fatal(err)
	}
	ult, err := Curve(KindUserThread, prof, counts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if !(proc[i].NsPerYield < ult[i].NsPerYield) {
			t.Errorf("n=%d: SP artifact missing: proc=%g ult=%g", counts[i], proc[i].NsPerYield, ult[i].NsPerYield)
		}
	}
}

// TestCurveSkipsOverLimitPoints checks the curve stops where the
// mechanism's limit cuts it off, like the paper's plots.
func TestCurveSkipsOverLimitPoints(t *testing.T) {
	prof := platform.LinuxX86()
	pts, err := Curve(KindKThread, prof, []int{100, 200, 5000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Errorf("curve has %d points, want 2 (5000 > pthread limit)", len(pts))
	}
	if _, err := Curve(KindProcess, platform.IBMSP(), []int{5000}, 1); err == nil {
		t.Error("curve with zero measurable points should error")
	}
}

// TestProcessBenchCleansUp ensures BenchYield does not leak processes
// into the kernel table.
func TestProcessBenchCleansUp(t *testing.T) {
	prof := platform.IBMSP() // limit 100
	m, err := New(KindProcess, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.BenchYield(100, 1); err != nil {
			t.Fatalf("run %d: %v (processes leaked?)", i, err)
		}
	}
}
