package bigsim

import "testing"

func aggCfg(simPEs int) Config {
	cfg := small(simPEs)
	cfg.Aggregate = true
	return cfg
}

// TestAggParallelMatchesSerial: aggregation must stay deterministic —
// the SMP driver and the serial driver produce identical per-step
// results, including the envelope counters.
func TestAggParallelMatchesSerial(t *testing.T) {
	const steps = 4
	serial := runModeDriver(t, aggCfg(4), ModeULT, false, steps)
	parallel := runModeDriver(t, aggCfg(4), ModeULT, true, steps)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("step %d: serial %+v vs parallel %+v", i, serial[i], parallel[i])
		}
	}
}

// TestAggPredictionAndTrafficUnchanged: aggregation is a simulating-
// machine optimization only. The target prediction and the logical
// message counts must be bit-identical with and without it.
func TestAggPredictionAndTrafficUnchanged(t *testing.T) {
	const steps = 5
	run := func(agg bool) []StepStats {
		cfg := small(4)
		cfg.Aggregate = agg
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return s.Run(steps)
	}
	direct, aggd := run(false), run(true)
	for i := range direct {
		if direct[i].PredictedTargetNs != aggd[i].PredictedTargetNs {
			t.Errorf("step %d: prediction %g direct vs %g aggregated",
				i, direct[i].PredictedTargetNs, aggd[i].PredictedTargetNs)
		}
		if direct[i].CrossPEMessages != aggd[i].CrossPEMessages {
			t.Errorf("step %d: cross %d direct vs %d aggregated",
				i, direct[i].CrossPEMessages, aggd[i].CrossPEMessages)
		}
		if direct[i].IntraPEMessages != aggd[i].IntraPEMessages {
			t.Errorf("step %d: intra %d direct vs %d aggregated",
				i, direct[i].IntraPEMessages, aggd[i].IntraPEMessages)
		}
	}
}

// TestAggCounters: every cross-PE ghost rides exactly one envelope,
// and envelopes genuinely coalesce (far fewer envelopes than ghosts —
// block-mapped torus slabs exchange whole faces with each neighbour
// slab).
func TestAggCounters(t *testing.T) {
	s, err := New(aggCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Run(2)[1]
	if st.CoalescedGhosts != st.CrossPEMessages {
		t.Errorf("coalesced %d ghosts, %d crossed PEs", st.CoalescedGhosts, st.CrossPEMessages)
	}
	if st.Envelopes == 0 || st.Envelopes >= st.CrossPEMessages {
		t.Errorf("%d envelopes for %d cross-PE ghosts: not coalescing", st.Envelopes, st.CrossPEMessages)
	}
	// Direct mode reports no envelopes.
	d, err := New(small(4))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if st := d.Run(2)[1]; st.Envelopes != 0 || st.CoalescedGhosts != 0 {
		t.Errorf("direct mode reported envelopes: %+v", st)
	}
}

// TestAggReducesStepTime: paying one Alpha per (src,dst) PE pair
// instead of one per ghost must shrink the simulating machine's step
// time.
func TestAggReducesStepTime(t *testing.T) {
	const steps = 5
	run := func(agg bool) float64 {
		cfg := small(8)
		cfg.Aggregate = agg
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return MeanStepTime(s.Run(steps))
	}
	direct, aggd := run(false), run(true)
	if !(aggd < direct) {
		t.Errorf("aggregated step %g not faster than direct %g", aggd, direct)
	}
}

// BenchmarkGhostExchange measures wall time per simulated step,
// per-message versus aggregated.
func BenchmarkGhostExchange(b *testing.B) {
	run := func(b *testing.B, agg bool) {
		cfg := small(4)
		cfg.Aggregate = agg
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	}
	b.Run("direct", func(b *testing.B) { run(b, false) })
	b.Run("agg", func(b *testing.B) { run(b, true) })
}
