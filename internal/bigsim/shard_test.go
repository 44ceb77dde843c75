package bigsim

import (
	"math"
	"sync"
	"testing"

	"migflow/internal/pup"
)

func stepEqual(a, b StepStats) bool {
	return a.Step == b.Step &&
		math.Float64bits(a.TimeNs) == math.Float64bits(b.TimeNs) &&
		math.Float64bits(a.PredictedTargetNs) == math.Float64bits(b.PredictedTargetNs) &&
		a.CrossPEMessages == b.CrossPEMessages &&
		a.IntraPEMessages == b.IntraPEMessages &&
		a.Envelopes == b.Envelopes &&
		a.CoalescedGhosts == b.CoalescedGhosts
}

// runShardPair drives both workers' slabs concurrently, meeting at
// the per-step frame exchange, and demands both report identical
// stats for every step.
func runShardPair(t *testing.T, cfg Config, steps int) []StepStats {
	t.Helper()
	var shards [2]*Shard
	for i := range shards {
		sh, err := NewShard(cfg, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = sh
	}
	ch := [2]chan []byte{make(chan []byte, 1), make(chan []byte, 1)}
	var results [2][]StepStats
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	for i := range shards {
		go func(i int) {
			defer wg.Done()
			for s := 0; s < steps; s++ {
				st, err := shards[i].Step(func(out [][]byte) ([][]byte, error) {
					ch[i] <- out[1-i]
					in := make([][]byte, 2)
					in[1-i] = <-ch[1-i]
					return in, nil
				})
				if err != nil {
					errs[i] = err
					return
				}
				results[i] = append(results[i], st)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	if len(results[0]) != steps || len(results[1]) != steps {
		t.Fatalf("step counts: %d and %d, want %d", len(results[0]), len(results[1]), steps)
	}
	for s := 0; s < steps; s++ {
		if !stepEqual(results[0][s], results[1][s]) {
			t.Fatalf("step %d: workers disagree: %+v vs %+v", s, results[0][s], results[1][s])
		}
	}
	return results[0]
}

// TestShardMatchesSerial: the 2-slab run must reproduce the serial
// simulator's per-step stats bit for bit, per-message and aggregated.
func TestShardMatchesSerial(t *testing.T) {
	for _, agg := range []bool{false, true} {
		cfg := Config{
			X: 8, Y: 6, Z: 4, SimPEs: 6, Mode: ModeEvent,
			AtomsPerCell: 150, WorkPerAtomNs: 30, GhostBytes: 1024,
			Aggregate: agg,
		}
		const steps = 5
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Run(steps)
		got := runShardPair(t, cfg, steps)
		for s := range want {
			if !stepEqual(want[s], got[s]) {
				t.Fatalf("aggregate=%v step %d: serial %+v, sharded %+v", agg, s, want[s], got[s])
			}
		}
	}
}

// TestShardRejectsULT: goroutine-backed flows cannot cross a process
// boundary.
func TestShardRejectsULT(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeULT
	if _, err := NewShard(cfg, 0, 2); err == nil {
		t.Fatal("ULT mode must be rejected")
	}
}

// TestShardOddSplit: slab cuts that do not divide the PE count.
func TestShardOddSplit(t *testing.T) {
	cfg := Config{
		X: 6, Y: 5, Z: 3, SimPEs: 5, Mode: ModeEvent,
		AtomsPerCell: 100, WorkPerAtomNs: 20, GhostBytes: 512,
	}
	const steps = 4
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Run(steps)
	got := runShardPair(t, cfg, steps)
	for s := range want {
		if !stepEqual(want[s], got[s]) {
			t.Fatalf("step %d: serial %+v, sharded %+v", s, want[s], got[s])
		}
	}
}

// TestDecodeFrameHostileCounts: a frame's cell and envelope counts are
// bounded by the bytes that follow them. 768,614,336,404,564,651 × 24
// wraps to 8, so a product bound lets that count through to a
// make([]cellDelta, n) that panics; the division form refuses it, and
// the other counts that would wrap, by name.
func TestDecodeFrameHostileCounts(t *testing.T) {
	const wraps = 768_614_336_404_564_651 // ×24 ≡ 8 (mod 2^64)
	frame := func(counts ...int) []byte {
		p := pup.NewGrowPacker()
		if err := pupFrameHeader(p, &shardFrame{}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if err := p.Int(&counts[i]); err != nil {
				t.Fatal(err)
			}
		}
		var pad uint64
		if err := p.Uint64(&pad); err != nil {
			t.Fatal(err)
		}
		return p.PackedBytes()
	}
	for _, n := range []int{-1, wraps, 1 << 62, math.MaxInt64} {
		for name, data := range map[string][]byte{"cells": frame(n), "envelopes": frame(0, n)} {
			if _, err := decodeFrame(data); err == nil {
				t.Errorf("decodeFrame accepted %d %s", n, name)
			}
		}
	}
}
