package bigsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestStepPinnedOnOddTori pins every StepStats float, bit for bit, on
// tori the Figure 11 golden does not cover: 2×3×4, whose ±x
// neighbours coincide; 1×5×4, where a cell is its own ±x neighbour;
// and 16×16×16 on 32 PEs, where a PE holds less than one z-plane. Each
// row is {TimeNs, PredictedTargetNs} bits for steps 1–5, the same
// under Run and RunParallel, in both modes with and without
// aggregation.
func TestStepPinnedOnOddTori(t *testing.T) {
	tori := map[string][4]int{"2x3x4": {2, 3, 4, 5}, "1x5x4": {1, 5, 4, 3}, "16x16x16": {16, 16, 16, 32}}
	for _, pin := range []struct {
		torus, mode string
		agg         bool
		want        [5][2]uint64
	}{
		{"2x3x4", "ult", false, [5][2]uint64{{0x40eb6c57231b84b8, 0x40a7700000000000}, {0x40f8092b918dc266, 0x40c1a00000000000}, {0x40f8092b918dc268, 0x40c1a00000000000}, {0x40f8092b918dc236, 0x40c1a00000000000}, {0x40f8092b918dc234, 0x40c1a00000000000}}},
		{"2x3x4", "ult", true, [5][2]uint64{{0x40e39c57231b84b9, 0x40a7700000000000}, {0x40ec8a57231b84bd, 0x40c1a00000000000}, {0x40ec8a57231b84be, 0x40c1a00000000000}, {0x40ec8a57231b84bc, 0x40c1a00000000000}, {0x40ec8a57231b84b8, 0x40c1a00000000000}}},
		{"2x3x4", "event", false, [5][2]uint64{{0x40e997750d0c7102, 0x40a7700000000000}, {0x40f71eba8686388d, 0x40c1a00000000000}, {0x40f71eba8686388e, 0x40c1a00000000000}, {0x40f71eba86863864, 0x40c1a00000000000}, {0x40f71eba86863864, 0x40c1a00000000000}}},
		{"2x3x4", "event", true, [5][2]uint64{{0x40e1c7750d0c7104, 0x40a7700000000000}, {0x40eab5750d0c7106, 0x40c1a00000000000}, {0x40eab5750d0c710a, 0x40c1a00000000000}, {0x40eab5750d0c7108, 0x40c1a00000000000}, {0x40eab5750d0c7108, 0x40c1a00000000000}}},
		{"1x5x4", "ult", false, [5][2]uint64{{0x40edb3885cd949fe, 0x40a7700000000000}, {0x40f613ddc8063e9b, 0x40c1a00000000000}, {0x40f613ddc8063e9c, 0x40c1a00000000000}, {0x40f613ddc8063e8e, 0x40c1a00000000000}, {0x40f613ddc8063e90, 0x40c1a00000000000}}},
		{"1x5x4", "ult", true, [5][2]uint64{{0x40e7d7885cd949ff, 0x40a7700000000000}, {0x40ed81bb900c7d2d, 0x40c1a00000000000}, {0x40ed81bb900c7d30, 0x40c1a00000000000}, {0x40ed81bb900c7d2c, 0x40c1a00000000000}, {0x40ed81bb900c7d38, 0x40c1a00000000000}}},
		{"1x5x4", "event", false, [5][2]uint64{{0x40eb05c9e2905bed, 0x40a7700000000000}, {0x40f4bcfe8ae1c796, 0x40c1a00000000000}, {0x40f4bcfe8ae1c796, 0x40c1a00000000000}, {0x40f4bcfe8ae1c77e, 0x40c1a00000000000}, {0x40f4bcfe8ae1c77c, 0x40c1a00000000000}}},
		{"1x5x4", "event", true, [5][2]uint64{{0x40e529c9e2905bf0, 0x40a7700000000000}, {0x40ead3fd15c38f20, 0x40c1a00000000000}, {0x40ead3fd15c38f24, 0x40c1a00000000000}, {0x40ead3fd15c38f20, 0x40c1a00000000000}, {0x40ead3fd15c38f1c, 0x40c1a00000000000}}},
		{"16x16x16", "ult", false, [5][2]uint64{{0x4132374ccccccccd, 0x40a7700000000000}, {0x413b820000000081, 0x40c1a00000000000}, {0x413b81ffffffff5e, 0x40c1a00000000000}, {0x413b81fffffffe40, 0x40c1a00000000000}, {0x413b81fffffffe44, 0x40c1a00000000000}}},
		{"16x16x16", "ult", true, [5][2]uint64{{0x412bbc099999999a, 0x40a7700000000000}, {0x4130a2cc00000000, 0x40c1a00000000000}, {0x4130a2cc00000001, 0x40c1a00000000000}, {0x4130a2cc00000000, 0x40c1a00000000000}, {0x4130a2cc00000002, 0x40c1a00000000000}}},
		{"16x16x16", "event", false, [5][2]uint64{{0x41301eccccccccba, 0x40a7700000000000}, {0x4139698000000082, 0x40c1a00000000000}, {0x413969800000000c, 0x40c1a00000000000}, {0x4139697ffffffe40, 0x40c1a00000000000}, {0x4139697ffffffe40, 0x40c1a00000000000}}},
		{"16x16x16", "event", true, [5][2]uint64{{0x41278b099999999a, 0x40a7700000000000}, {0x412d149800000000, 0x40c1a00000000000}, {0x412d1497fffffffe, 0x40c1a00000000000}, {0x412d149800000000, 0x40c1a00000000000}, {0x412d149800000000, 0x40c1a00000000000}}},
	} {
		d := tori[pin.torus]
		cfg := Config{
			X: d[0], Y: d[1], Z: d[2], SimPEs: d[3],
			AtomsPerCell: 150, WorkPerAtomNs: 30, GhostBytes: 1024,
			Aggregate: pin.agg,
		}
		for _, parallel := range []bool{false, true} {
			for i, st := range runModeDriver(t, cfg, pin.mode, parallel, 5) {
				got := [2]uint64{math.Float64bits(st.TimeNs), math.Float64bits(st.PredictedTargetNs)}
				if got != pin.want[i] {
					t.Errorf("%s %s aggregate=%v parallel=%v step %d: %#x, want %#x",
						pin.torus, pin.mode, pin.agg, parallel, i+1, got, pin.want[i])
				}
			}
		}
	}
}

// TestStepReadsTheSixNeighbours pins which cells a step reads. Before
// each step it writes seeded, distinct previous-step clocks into the
// simulator, one cell's far above the rest, and after it checks every
// cell's new clock against a reference that finds the six torus
// neighbours from coordinates by its own arithmetic: the later of the
// cell's own clock and the largest neighbour clock plus one ghost's
// latency, plus the target work. Every cell takes the high clock once,
// so every neighbour relation is checked exactly, not only where the
// seeded clocks happen to make it the maximum. Odd tori, both modes,
// both drivers, with and without aggregation.
func TestStepReadsTheSixNeighbours(t *testing.T) {
	for _, torus := range [][4]int{{3, 5, 7, 4}, {5, 1, 3, 2}} {
		for _, mode := range []string{ModeEvent, ModeULT} {
			for _, agg := range []bool{false, true} {
				for _, parallel := range []bool{false, true} {
					name := fmt.Sprintf("%dx%dx%d/%s/aggregate=%v/parallel=%v", torus[0], torus[1], torus[2], mode, agg, parallel)
					t.Run(name, func(t *testing.T) { checkNeighbourReads(t, torus, mode, agg, parallel) })
				}
			}
		}
	}
}

func checkNeighbourReads(t *testing.T, torus [4]int, mode string, agg, parallel bool) {
	X, Y, Z := torus[0], torus[1], torus[2]
	s, err := New(Config{X: X, Y: Y, Z: Z, SimPEs: torus[3], AtomsPerCell: 10, WorkPerAtomNs: 5, GhostBytes: 64, Mode: mode, Aggregate: agg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	step := s.Step
	if parallel {
		step = s.StepParallel
	}
	step() // the first step reads no ghosts
	n := X * Y * Z
	rng := rand.New(rand.NewSource(int64(n)))
	prev := make([]float64, n)
	for hot := 0; hot < n; hot++ {
		for i, v := range rng.Perm(n) {
			prev[i] = 1e6 + 997*float64(v)
		}
		prev[hot] = 1e9
		// The next step's begin swaps tnext in as the clocks it reads.
		copy(s.tnext, prev)
		step()
		for i := range prev {
			x, y, z := i%X, i/X%Y, i/(X*Y)
			cell := func(x, y, z int) float64 { return prev[(x+X)%X+X*((y+Y)%Y+Y*((z+Z)%Z))] }
			arr := max(cell(x+1, y, z), cell(x-1, y, z), cell(x, y+1, z), cell(x, y-1, z), cell(x, y, z+1), cell(x, y, z-1))
			want := max(prev[i], arr+s.ghostNs) + s.cfg.TargetWorkNs
			if got := s.tnext[i]; got != want {
				t.Fatalf("high clock on cell %d: cell %d (%d,%d,%d) steps to %v, want %v", hot, i, x, y, z, got, want)
			}
		}
	}
}
