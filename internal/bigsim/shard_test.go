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

// runShards drives n workers' slabs concurrently, cut the way package
// shard cuts them (worker w owns PEs [w·SimPEs/n, (w+1)·SimPEs/n)),
// meeting at the per-step frame exchange, and demands every worker
// report identical stats for every step.
func runShards(t *testing.T, cfg Config, n, steps int) []StepStats {
	t.Helper()
	cut := func(w int) int { return w * cfg.SimPEs / n }
	owner := func(pe int) int {
		w := 0
		for pe >= cut(w+1) {
			w++
		}
		return w
	}
	shards := make([]*Shard, n)
	links := make([][]chan []byte, n) // links[i][j] carries i's frames to j
	for i := range shards {
		sh, err := NewShard(cfg, i, n, cut(i), cut(i+1), owner)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = sh
		links[i] = make([]chan []byte, n)
		for j := range links[i] {
			links[i][j] = make(chan []byte, 1)
		}
	}
	results := make([][]StepStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A worker that stops closes its links: its peers then read
			// nil frames and fail their next step instead of hanging.
			defer func() {
				for _, c := range links[i] {
					close(c)
				}
			}()
			exchange := func(out [][]byte) ([][]byte, error) {
				for j := range out {
					if j != i {
						links[i][j] <- out[j]
					}
				}
				in := make([][]byte, n)
				for j := range in {
					if j != i {
						in[j] = <-links[j][i]
					}
				}
				return in, nil
			}
			for s := 0; s < steps; s++ {
				st, err := sh.Step(exchange)
				if err != nil {
					errs[i] = err
					return
				}
				results[i] = append(results[i], st)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	for i := range results {
		if len(results[i]) != steps {
			t.Fatalf("shard %d ran %d steps, want %d", i, len(results[i]), steps)
		}
		for s := range results[i] {
			if !stepEqual(results[0][s], results[i][s]) {
				t.Fatalf("step %d: workers 0 and %d disagree: %+v vs %+v", s, i, results[0][s], results[i][s])
			}
		}
	}
	return results[0]
}

// TestShardMatchesSerial is the driver table: StepParallel on both
// backends, and 2- and 3-way shards of the event backend (7 PEs, so
// neither cut divides evenly), must each reproduce the serial Step of
// their backend bit for bit, per-message and aggregated.
func TestShardMatchesSerial(t *testing.T) {
	const steps = 5
	drivers := []struct {
		name string
		mode string
		run  func(cfg Config) []StepStats
	}{
		{"parallel", ModeULT, func(cfg Config) []StepStats { return runModeDriver(t, cfg, ModeULT, true, steps) }},
		{"parallel", ModeEvent, func(cfg Config) []StepStats { return runModeDriver(t, cfg, ModeEvent, true, steps) }},
		{"shards=2", ModeEvent, func(cfg Config) []StepStats { return runShards(t, cfg, 2, steps) }},
		{"shards=3", ModeEvent, func(cfg Config) []StepStats { return runShards(t, cfg, 3, steps) }},
	}
	for _, agg := range []bool{false, true} {
		for _, d := range drivers {
			cfg := Config{
				X: 8, Y: 6, Z: 4, SimPEs: 7, Mode: d.mode,
				AtomsPerCell: 150, WorkPerAtomNs: 30, GhostBytes: 1024,
				Aggregate: agg,
			}
			want := runModeDriver(t, cfg, d.mode, false, steps)
			got := d.run(cfg)
			for s := range want {
				if !stepEqual(want[s], got[s]) {
					t.Fatalf("%s/%s aggregate=%v step %d: serial %+v, got %+v", d.name, d.mode, agg, s, want[s], got[s])
				}
			}
		}
	}
}

// TestShardRejectsULT: goroutine-backed flows cannot cross a process
// boundary.
func TestShardRejectsULT(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeULT
	if _, err := NewShard(cfg, 0, 2, 0, 2, func(pe int) int { return pe / 2 }); err == nil {
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
	want := runModeDriver(t, cfg, ModeEvent, false, steps)
	got := runShards(t, cfg, 2, steps)
	for s := range want {
		if !stepEqual(want[s], got[s]) {
			t.Fatalf("step %d: serial %+v, sharded %+v", s, want[s], got[s])
		}
	}
}

// TestDecodeFrameHostileCounts: a frame's clock and envelope counts
// are bounded by the bytes that follow them. (2^61+1) × 8 and
// 768,614,336,404,564,651 × 24 both wrap to 8, so a product bound
// would let those counts through to a make that panics; the division
// form refuses them, and the other counts that would wrap, by name.
func TestDecodeFrameHostileCounts(t *testing.T) {
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
	for _, n := range []int{-1, 1<<61 + 1, 768_614_336_404_564_651, 1 << 62, math.MaxInt64} {
		for name, data := range map[string][]byte{"clocks": frame(n), "envelopes": frame(0, n)} {
			if _, err := decodeFrame(data); err == nil {
				t.Errorf("decodeFrame accepted %d %s", n, name)
			}
		}
	}
}

// hostileShard is worker 0 of a 4×4×4 machine split over 2 workers,
// one PE each, and the number of target clocks worker 1's frame must
// carry.
func hostileShard(t testing.TB) (*Shard, int) {
	t.Helper()
	cfg := Config{X: 4, Y: 4, Z: 4, SimPEs: 2, Mode: ModeEvent, AtomsPerCell: 4, WorkPerAtomNs: 10, GhostBytes: 64, Aggregate: true}
	sh, err := NewShard(cfg, 0, 2, 0, 1, func(pe int) int { return pe })
	if err != nil {
		t.Fatal(err)
	}
	return sh, len(sh.imports[1])
}

// stepWith runs one Step whose exchange hands back frame as worker 1's.
func stepWith(sh *Shard, frame []byte) error {
	_, err := sh.Step(func([][]byte) ([][]byte, error) { return [][]byte{nil, frame}, nil })
	return err
}

// packFrame packs a step-0 frame of raw target clocks and envelope
// entries (src, dst), as a peer could put on the wire.
func packFrame(t testing.TB, clocks []float64, envs [][2]int64) []byte {
	t.Helper()
	p := pup.NewGrowPacker()
	if err := pupFrameHeader(p, &shardFrame{}); err != nil {
		t.Fatal(err)
	}
	n := len(clocks)
	if err := p.Int(&n); err != nil {
		t.Fatal(err)
	}
	for i := range clocks {
		if err := p.Float64(&clocks[i]); err != nil {
			t.Fatal(err)
		}
	}
	n = len(envs)
	if err := p.Int(&n); err != nil {
		t.Fatal(err)
	}
	for _, e := range envs {
		v := 1.0
		if err := errors.Join(p.Int64(&e[0]), p.Int64(&e[1]), p.Float64(&v)); err != nil {
			t.Fatal(err)
		}
	}
	return p.PackedBytes()
}

// clocksWith returns n zero target clocks with clock i set to v.
func clocksWith(n, i int, v float64) []float64 {
	c := make([]float64, n)
	c[i] = v
	return c
}

// TestShardRejectsHostileFrames: a step frame that is not exactly the
// clocks this slab reads, or writes outside the slab, is refused by
// name from the Step it arrives at — one clock too many, one too few,
// a NaN or a negative clock, and an envelope from PE -1. None may
// panic; the frame the slab expects passes.
func TestShardRejectsHostileFrames(t *testing.T) {
	_, n := hostileShard(t)
	for name, frame := range map[string][]byte{
		"one clock too many": packFrame(t, make([]float64, n+1), nil),
		"short frame":        packFrame(t, make([]float64, n-1), nil),
		"NaN clock":          packFrame(t, clocksWith(n, n/2, math.NaN()), nil),
		"negative clock":     packFrame(t, clocksWith(n, 0, -1), nil),
		"envelope src -1":    packFrame(t, make([]float64, n), [][2]int64{{-1, 0}}),
	} {
		sh, _ := hostileShard(t)
		if err := stepWith(sh, frame); !errors.Is(err, errBadFrame) {
			t.Errorf("%s: Step returned %v, want errBadFrame", name, err)
		}
	}
	sh, _ := hostileShard(t)
	if err := stepWith(sh, packFrame(t, make([]float64, n), [][2]int64{{1, 0}})); err != nil {
		t.Errorf("a well-formed frame: Step returned %v", err)
	}
}

// FuzzBigSimFrame decodes and applies arbitrary bytes as a peer's step
// frame on a fresh shard, then steps once more: each Step ends in
// success or errBadFrame, never a panic.
func FuzzBigSimFrame(f *testing.F) {
	sh, n := hostileShard(f)
	f.Add(packFrame(f, nil, nil))
	f.Add(packFrame(f, make([]float64, n), [][2]int64{{1, 0}}))
	f.Add(packFrame(f, clocksWith(n, 0, math.NaN()), [][2]int64{{-1, 0}}))
	out, err := sh.harvest(summary{})
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
