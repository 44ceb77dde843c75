package bigsim

import (
	"errors"
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

// hostileShard is worker 0 of a 4×4×4 machine split over 2 workers,
// and a cell of its slab.
func hostileShard(t testing.TB) (*Shard, int32) {
	t.Helper()
	sh, err := NewShard(Config{X: 4, Y: 4, Z: 4, SimPEs: 2, Mode: ModeEvent, AtomsPerCell: 4, WorkPerAtomNs: 10, GhostBytes: 64, Aggregate: true}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	return sh, sh.S.byPE[sh.peLo][0].id
}

// stepWith runs one Step whose exchange hands back frame as worker 1's.
func stepWith(sh *Shard, frame []byte) error {
	_, err := sh.Step(func([][]byte) ([][]byte, error) { return [][]byte{nil, frame}, nil })
	return err
}

// packFrame packs a step-0 frame of raw int64 cell entries (id, mail)
// and envelope entries (src, dst), as a peer could put on the wire.
func packFrame(t testing.TB, cells, envs [][2]int64) []byte {
	t.Helper()
	p := pup.NewGrowPacker()
	if err := pupFrameHeader(p, &shardFrame{}); err != nil {
		t.Fatal(err)
	}
	for _, list := range [][][2]int64{cells, envs} {
		n := len(list)
		if err := p.Int(&n); err != nil {
			t.Fatal(err)
		}
		for _, e := range list {
			v := 1.0
			if err := errors.Join(p.Int64(&e[0]), p.Int64(&e[1]), p.Float64(&v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p.PackedBytes()
}

// TestShardRejectsHostileFrames: a step frame that writes outside the
// slab is refused by name from Step — a cell id of -1, an id that
// aliases a local cell once truncated to int32, an envelope from PE
// -1, and more ghosts than a cell can hold, which the next prologue
// would otherwise trip over. None may panic.
func TestShardRejectsHostileFrames(t *testing.T) {
	_, local := hostileShard(t)
	for name, frame := range map[string][]byte{
		"cell -1":         packFrame(t, [][2]int64{{-1, 1}}, nil),
		"truncated id":    packFrame(t, [][2]int64{{1<<32 + int64(local), 1}}, nil),
		"envelope src -1": packFrame(t, nil, [][2]int64{{-1, 0}}),
		"overfilled cell": packFrame(t, [][2]int64{{int64(local), ghostsPerCell + 1}}, nil),
		"negative mail":   packFrame(t, [][2]int64{{int64(local), -1}}, nil),
	} {
		sh, _ := hostileShard(t)
		if err := stepWith(sh, frame); !errors.Is(err, errBadFrame) {
			t.Errorf("%s: Step returned %v, want errBadFrame", name, err)
		}
	}
	// A short frame passes its own step and is caught at the next one.
	sh, _ := hostileShard(t)
	if err := stepWith(sh, packFrame(t, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := stepWith(sh, packFrame(t, nil, nil)); !errors.Is(err, errBadFrame) {
		t.Errorf("step after a short frame returned %v, want errBadFrame", err)
	}
}

// FuzzBigSimFrame decodes and applies arbitrary bytes as a peer's step
// frame on a fresh shard, then steps once more: each Step ends in
// success or errBadFrame, never a panic.
func FuzzBigSimFrame(f *testing.F) {
	sh, local := hostileShard(f)
	f.Add(packFrame(f, nil, nil))
	f.Add(packFrame(f, [][2]int64{{int64(local), 2}}, [][2]int64{{1, 0}}))
	f.Add(packFrame(f, [][2]int64{{-1, 1}}, [][2]int64{{-1, 0}}))
	_, out, err := sh.harvest(make([]float64, sh.peHi-sh.peLo))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(out[1])
	f.Fuzz(func(t *testing.T, frame []byte) {
		sh, _ := hostileShard(t)
		for i := 0; i < 2; i++ {
			if err := stepWith(sh, frame); err != nil {
				if !errors.Is(err, errBadFrame) {
					t.Fatalf("step %d: %v is not errBadFrame", i, err)
				}
				return
			}
		}
	})
}
