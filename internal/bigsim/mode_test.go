package bigsim

import (
	"math"
	"math/rand"
	"testing"
)

// runModeDriver builds a simulator and runs it with the given backend
// and driver, returning per-step stats.
func runModeDriver(t testing.TB, cfg Config, mode string, parallel bool, steps int) []StepStats {
	cfg.Mode = mode
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if parallel {
		return s.RunParallel(steps)
	}
	return s.Run(steps)
}

// TestCrossBackendEquivalence is the property test pinning the
// tentpole invariant: for randomized small toruses, SimPE counts,
// step counts, and Aggregate on/off, the predicted target-machine
// time is bit-identical and all logical message counts are equal
// between the "ult" and "event" backends and between the Step and
// StepParallel drivers — only the simulating-machine cost may differ.
func TestCrossBackendEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		cfg := Config{
			X: 2 + rng.Intn(4), Y: 2 + rng.Intn(4), Z: 1 + rng.Intn(4),
			AtomsPerCell:  10 + rng.Intn(500),
			WorkPerAtomNs: float64(1 + rng.Intn(40)),
			GhostBytes:    64 << rng.Intn(5),
			Aggregate:     rng.Intn(2) == 1,
		}
		targets := cfg.X * cfg.Y * cfg.Z
		cfg.SimPEs = 1 + rng.Intn(targets)
		steps := 1 + rng.Intn(4)

		ref := runModeDriver(t, cfg, ModeULT, false, steps)
		for _, variant := range []struct {
			name     string
			mode     string
			parallel bool
		}{
			{"ult/parallel", ModeULT, true},
			{"event/serial", ModeEvent, false},
			{"event/parallel", ModeEvent, true},
		} {
			got := runModeDriver(t, cfg, variant.mode, variant.parallel, steps)
			for i := range ref {
				if math.Float64bits(got[i].PredictedTargetNs) != math.Float64bits(ref[i].PredictedTargetNs) {
					t.Errorf("trial %d (%+v) %s step %d: prediction %v, want %v (must be bit-identical)",
						trial, cfg, variant.name, i, got[i].PredictedTargetNs, ref[i].PredictedTargetNs)
				}
				if got[i].CrossPEMessages != ref[i].CrossPEMessages ||
					got[i].IntraPEMessages != ref[i].IntraPEMessages ||
					got[i].Envelopes != ref[i].Envelopes ||
					got[i].CoalescedGhosts != ref[i].CoalescedGhosts {
					t.Errorf("trial %d (%+v) %s step %d: traffic %+v, want %+v",
						trial, cfg, variant.name, i, got[i], ref[i])
				}
			}
		}

		// The prediction is also invariant across SimPE counts (BigSim's
		// defining property), in both backends.
		alt := cfg
		alt.SimPEs = 1 + rng.Intn(targets)
		for _, mode := range []string{ModeULT, ModeEvent} {
			got := runModeDriver(t, alt, mode, false, steps)
			for i := range ref {
				if math.Float64bits(got[i].PredictedTargetNs) != math.Float64bits(ref[i].PredictedTargetNs) {
					t.Errorf("trial %d %s: SimPEs %d→%d changed prediction at step %d: %v vs %v",
						trial, mode, cfg.SimPEs, alt.SimPEs, i, got[i].PredictedTargetNs, ref[i].PredictedTargetNs)
				}
			}
		}
	}
}

// TestEventModeCheaperDispatch pins the paper's flows comparison:
// with everything else equal, event dispatch (Base 90 ns on the Alpha)
// must yield a strictly smaller simulation time per step than ULT
// switching (Base 680 ns + log growth).
func TestEventModeCheaperDispatch(t *testing.T) {
	cfg := small(4)
	ult := runModeDriver(t, cfg, ModeULT, false, 3)
	evt := runModeDriver(t, cfg, ModeEvent, false, 3)
	for i := range ult {
		if !(evt[i].TimeNs < ult[i].TimeNs) {
			t.Errorf("step %d: event sim time %g not below ult %g", i, evt[i].TimeNs, ult[i].TimeNs)
		}
	}
}

// TestModeValidation: unknown Mode strings are rejected with a clear
// error; the zero value and "ult" select the goroutine backend.
func TestModeValidation(t *testing.T) {
	if _, err := New(Config{X: 2, Y: 2, Z: 1, SimPEs: 1, Mode: "fibers"}); err == nil {
		t.Error("unknown Mode accepted")
	}
	for _, mode := range []string{"", ModeULT, ModeEvent} {
		s, err := New(Config{X: 2, Y: 2, Z: 1, SimPEs: 1, Mode: mode})
		if err != nil {
			t.Fatalf("Mode %q rejected: %v", mode, err)
		}
		want := mode
		if want == "" {
			want = ModeULT
		}
		if s.Mode() != want {
			t.Errorf("Mode %q resolved to %q", mode, s.Mode())
		}
		s.Close()
	}
}

// TestEventModePaperScale runs the paper's headline configuration —
// 200,704 target processors (64×56×56), "clearly not feasible" as
// heavier flows — through the event backend. With ~64 B of state per
// flow and no goroutines this completes comfortably in CI, where the
// ULT backend would need a stack and a channel per target.
func TestEventModePaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{
		X: 64, Y: 56, Z: 56, SimPEs: 32,
		AtomsPerCell: 10, WorkPerAtomNs: 5, GhostBytes: 1024,
		Mode: ModeEvent,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumTargets() != 200704 {
		t.Fatalf("targets = %d", s.NumTargets())
	}
	stats := s.RunParallel(2)
	st := stats[1]
	if st.CrossPEMessages+st.IntraPEMessages != 6*200704 {
		t.Errorf("total messages = %d, want %d", st.CrossPEMessages+st.IntraPEMessages, 6*200704)
	}
	if st.TimeNs <= 0 || st.PredictedTargetNs <= 0 {
		t.Errorf("times: sim %g, predicted %g", st.TimeNs, st.PredictedTargetNs)
	}
}

// TestEventParallelStress hammers the event backend's parallel driver
// (run under -race in CI): many PEs dispatching flows concurrently,
// with and without aggregation, must keep every step's ghost exchange
// complete (Step panics otherwise) and deterministic.
func TestEventParallelStress(t *testing.T) {
	for _, agg := range []bool{false, true} {
		cfg := Config{
			X: 8, Y: 8, Z: 4, SimPEs: 16,
			AtomsPerCell: 10, WorkPerAtomNs: 3, GhostBytes: 256,
			Aggregate: agg, Mode: ModeEvent,
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats := s.RunParallel(8)
		s.Close()
		ref := runModeDriver(t, cfg, ModeEvent, false, 8)
		for i := range stats {
			if stats[i] != ref[i] {
				t.Errorf("agg=%v step %d: parallel %+v vs serial %+v", agg, i, stats[i], ref[i])
			}
		}
	}
}
