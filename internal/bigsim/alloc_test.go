//go:build !race

package bigsim

import (
	"testing"
	"unsafe"
)

// TestEventStepAllocatesNothing: once built, an event-mode Step on a
// 16×16×16 torus over 32 simulating PEs allocates nothing — each PE's
// pre-step clock, largest target clock and cell bounds are words of its
// peClock, which stays one 64-byte line.
func TestEventStepAllocatesNothing(t *testing.T) {
	if size := unsafe.Sizeof(peClock{}); size != 64 {
		t.Errorf("peClock is %d B, want 64", size)
	}
	s, err := New(Config{X: 16, Y: 16, Z: 16, SimPEs: 32, Mode: ModeEvent})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Step()
	if n := testing.AllocsPerRun(10, func() { s.Step() }); n != 0 {
		t.Errorf("an event-mode Step allocates %v objects, want 0", n)
	}
}
