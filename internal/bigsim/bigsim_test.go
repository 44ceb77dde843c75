package bigsim

import (
	"testing"
)

func small(simPEs int) Config {
	return Config{
		X: 8, Y: 8, Z: 4, SimPEs: simPEs,
		AtomsPerCell: 2000, WorkPerAtomNs: 20,
		GhostBytes: 512,
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{X: 0, Y: 1, Z: 1, SimPEs: 1}); err == nil {
		t.Error("bad torus accepted")
	}
	if _, err := New(Config{X: 2, Y: 2, Z: 1, SimPEs: 0}); err == nil {
		t.Error("zero PEs accepted")
	}
	if _, err := New(Config{X: 1, Y: 1, Z: 1, SimPEs: 4}); err == nil {
		t.Error("fewer targets than PEs accepted")
	}
}

func TestTorusNeighbors(t *testing.T) {
	s, err := New(small(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Wraparound along x from cell 0: -1 → x = 7.
	if got := s.neighbor(0, -1, 0, 0); got != 7 {
		t.Errorf("neighbor(0,-1,0,0) = %d, want 7", got)
	}
	if got := s.neighbor(0, 0, -1, 0); got != 8*7 {
		t.Errorf("neighbor(0,0,-1,0) = %d, want %d", got, 8*7)
	}
	// Coordinates round trip.
	x, y, z := s.coords(8*8*3 + 8*2 + 5)
	if x != 5 || y != 2 || z != 3 {
		t.Errorf("coords = %d,%d,%d", x, y, z)
	}
}

func TestStepGhostExchangeComplete(t *testing.T) {
	s, err := New(small(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumTargets() != 256 {
		t.Fatalf("targets = %d", s.NumTargets())
	}
	// Two steps: the second validates every cell got exactly 6
	// ghosts (the Step method panics otherwise).
	st1 := s.Step()
	st2 := s.Step()
	if st1.TimeNs <= 0 || st2.TimeNs <= 0 {
		t.Errorf("step times: %g, %g", st1.TimeNs, st2.TimeNs)
	}
	if st2.CrossPEMessages == 0 || st2.IntraPEMessages == 0 {
		t.Errorf("messages: cross=%d intra=%d", st2.CrossPEMessages, st2.IntraPEMessages)
	}
	if st2.CrossPEMessages+st2.IntraPEMessages != 6*s.NumTargets() {
		t.Errorf("total messages = %d, want %d", st2.CrossPEMessages+st2.IntraPEMessages, 6*s.NumTargets())
	}
}

func TestSinglePEAllIntra(t *testing.T) {
	s, err := New(small(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Step()
	if st.CrossPEMessages != 0 {
		t.Errorf("cross-PE messages on 1 PE: %d", st.CrossPEMessages)
	}
}

// TestScalability pins the Figure 11 shape: with a fixed target
// machine, simulation time per step drops substantially as simulating
// PEs are added.
func TestScalability(t *testing.T) {
	var times []float64
	for _, p := range []int{1, 2, 4, 8} {
		s, err := New(small(p))
		if err != nil {
			t.Fatal(err)
		}
		stats := s.Run(4)
		s.Close()
		times = append(times, MeanStepTime(stats))
	}
	for i := 1; i < len(times); i++ {
		if !(times[i] < times[i-1]) {
			t.Errorf("no speedup from %d to %d PEs: %g → %g", 1<<(i-1), 1<<i, times[i-1], times[i])
		}
	}
	// Doubling PEs 1→8 should give substantial (though sub-linear,
	// due to communication) speedup.
	if speedup := times[0] / times[3]; speedup < 3 {
		t.Errorf("8-PE speedup = %.2f, want ≥ 3", speedup)
	}
}

func TestRunAndMean(t *testing.T) {
	s, err := New(small(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stats := s.Run(5)
	if len(stats) != 5 {
		t.Fatalf("stats = %d", len(stats))
	}
	for i, st := range stats {
		if st.Step != i+1 {
			t.Errorf("step %d numbered %d", i, st.Step)
		}
	}
	if MeanStepTime(stats) <= 0 {
		t.Error("mean step time not positive")
	}
	if MeanStepTime(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	if MeanStepTime(stats[:1]) != stats[0].TimeNs {
		t.Error("single-step mean wrong")
	}
}

// TestPredictionInvariantAcrossSimPEs pins BigSim's defining
// property: the predicted target-machine time must not depend on how
// many simulating processors run the simulation — only the simulation
// *speed* changes.
func TestPredictionInvariantAcrossSimPEs(t *testing.T) {
	const steps = 5
	var ref []float64
	for _, p := range []int{1, 2, 4, 8} {
		s, err := New(small(p))
		if err != nil {
			t.Fatal(err)
		}
		stats := s.Run(steps)
		s.Close()
		if ref == nil {
			ref = make([]float64, steps)
			for i, st := range stats {
				ref[i] = st.PredictedTargetNs
				if st.PredictedTargetNs <= 0 {
					t.Fatalf("step %d predicted %g", i, st.PredictedTargetNs)
				}
			}
			continue
		}
		for i, st := range stats {
			if st.PredictedTargetNs != ref[i] {
				t.Errorf("simPEs=%d step %d: predicted %g, want %g (must be PE-count invariant)",
					p, i, st.PredictedTargetNs, ref[i])
			}
		}
	}
}

// TestPredictionIncludesTargetLatency checks the prediction reflects
// the target network: slower target links → larger predicted step.
func TestPredictionIncludesTargetLatency(t *testing.T) {
	run := func(alpha float64) float64 {
		cfg := small(2)
		cfg.TargetLatency.Alpha = alpha
		cfg.TargetLatency.BetaPerByte = 1
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		stats := s.Run(4)
		return stats[len(stats)-1].PredictedTargetNs
	}
	fast, slow := run(1000), run(100000)
	if !(slow > fast) {
		t.Errorf("slow target network predicted %g, fast %g", slow, fast)
	}
}

// TestParallelDriverMatchesSerial: the SMP driver must produce the
// same virtual results (step times and target prediction) as the
// deterministic serial driver.
func TestParallelDriverMatchesSerial(t *testing.T) {
	const steps = 4
	serial := runModeDriver(t, small(4), ModeULT, false, steps)
	parallel := runModeDriver(t, small(4), ModeULT, true, steps)
	for i := range serial {
		if serial[i].PredictedTargetNs != parallel[i].PredictedTargetNs {
			t.Errorf("step %d: prediction %g (serial) vs %g (parallel)",
				i, serial[i].PredictedTargetNs, parallel[i].PredictedTargetNs)
		}
		if serial[i].TimeNs != parallel[i].TimeNs {
			t.Errorf("step %d: sim time %g vs %g", i, serial[i].TimeNs, parallel[i].TimeNs)
		}
		if serial[i].CrossPEMessages != parallel[i].CrossPEMessages {
			t.Errorf("step %d: cross messages %d vs %d", i, serial[i].CrossPEMessages, parallel[i].CrossPEMessages)
		}
	}
}

// TestManyThreadsOnOnePE is the paper's headline scenario scaled
// down: thousands of target-processor ULTs on one simulating PE.
func TestManyThreadsOnOnePE(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s, err := New(Config{
		X: 20, Y: 20, Z: 10, SimPEs: 1,
		AtomsPerCell: 10, WorkPerAtomNs: 5, GhostBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumTargets() != 4000 {
		t.Fatalf("targets = %d", s.NumTargets())
	}
	st := s.Step()
	if st.TimeNs <= 0 {
		t.Error("step did not advance time")
	}
}
