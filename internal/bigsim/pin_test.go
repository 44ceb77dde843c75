package bigsim

import (
	"math"
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
