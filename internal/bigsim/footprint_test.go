package bigsim

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestTargetFootprint pins what a target processor costs. Its state is
// {id, simPE, nbrs, tclock} in 40 bytes. In event mode New holds that
// plus the cell's mail count and two arrival words, ≤ 72 B of live heap
// per target on the paper's 64×56×56 torus over 32 simulating PEs, and
// starts no goroutine; in ULT mode it starts one goroutine per target.
func TestTargetFootprint(t *testing.T) {
	if size := unsafe.Sizeof(tproc{}); size > 40 {
		t.Errorf("tproc is %d B, want ≤ 40", size)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g0 := runtime.NumGoroutine()
	s, err := New(Config{X: 64, Y: 56, Z: 56, SimPEs: 32, Mode: ModeEvent})
	if err != nil {
		t.Fatal(err)
	}
	g1 := runtime.NumGoroutine()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perTarget := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(s.NumTargets())
	runtime.KeepAlive(s)
	t.Logf("event mode: %d targets, %.1f B of live heap per target", s.NumTargets(), perTarget)
	if perTarget > 72 {
		t.Errorf("event mode holds %.1f B per target, want ≤ 72", perTarget)
	}
	if g1 != g0 {
		t.Errorf("event mode started %d goroutines, want none", g1-g0)
	}

	g0 = runtime.NumGoroutine()
	u, err := New(Config{X: 8, Y: 8, Z: 4, SimPEs: 4, Mode: ModeULT})
	if err != nil {
		t.Fatal(err)
	}
	if g := runtime.NumGoroutine() - g0; g != u.NumTargets() {
		t.Errorf("ULT mode started %d goroutines for %d targets, want one each", g, u.NumTargets())
	}
	u.Close()
}
