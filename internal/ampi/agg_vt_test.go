package ampi

// The aggregation VT-invariance property: streaming aggregation is a
// wall-clock optimization only. Whatever envelopes the policy
// composes, every rank's virtual time must equal the unaggregated
// run bit for bit, because VT is computed per message
// (consume charges VTime + Cost(len)) and never sees envelope
// boundaries. A policy that leaked into VT would desync the sharded
// equivalence suite in ways this test catches at the source.

import (
	"math"
	"math/rand"
	"testing"

	"migflow/internal/comm"
)

// jacobiVT runs one ULT-mode Jacobi config to completion and returns
// the per-rank VT bit patterns.
func jacobiVT(t *testing.T, cfg JacobiConfig) []uint64 {
	t.Helper()
	_, job, err := NewJacobi(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job.Run()
	if !job.Done() {
		t.Fatal("jacobi did not complete")
	}
	bits := make([]uint64, cfg.Ranks)
	for r := 0; r < cfg.Ranks; r++ {
		bits[r] = math.Float64bits(job.VT(r))
	}
	return bits
}

// TestAggregationPolicyVTInvariance is the property test across
// random policies: tiny and huge payload and byte thresholds all must
// reproduce the unaggregated per-rank VT exactly.
func TestAggregationPolicyVTInvariance(t *testing.T) {
	base := JacobiConfig{
		Mode: ModeULT, Ranks: 24, Iters: 8, PEs: 4,
		HaloBytes: 16, WorkNs: 900, ReduceEvery: 2, BlockPlacement: true,
	}
	want := jacobiVT(t, base)

	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		pol := comm.AggPolicy{
			MaxPayloads: 1 + rng.Intn(32),
			MaxBytes:    32 + rng.Intn(1<<14),
		}
		cfg := base
		cfg.Aggregate = true
		cfg.AggPolicy = pol
		got := jacobiVT(t, cfg)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("trial %d (policy %+v): rank %d VT %v, want %v — aggregation leaked into virtual time",
					trial, pol, r, math.Float64frombits(got[r]), math.Float64frombits(want[r]))
			}
		}
	}
}
