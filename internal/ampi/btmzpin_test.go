package ampi_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"migflow/internal/ampi"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
	"migflow/internal/npb"
)

// TestBTMZImageDigest pins the record format on the BT-MZ program: the
// checkpoint image of 16 event zone-ranks at the gate after the first
// step, blocking and overlapped, each with a residual reduction every
// step, hashes (FNV-1a, 64 bits) to the constant below. TestImageDigests
// pins the ampi package's own programs the same way.
func TestBTMZImageDigest(t *testing.T) {
	for _, row := range []struct {
		overlap bool
		want    string
	}{{false, "322e1db6fbbefa06"}, {true, "c42ad9e2303c64a9"}} {
		m, err := core.NewMachine(core.Config{NumPEs: 4})
		if err != nil {
			t.Fatal(err)
		}
		j, err := npb.ProgramJob(m, npb.Params{
			Class: npb.ClassA, NProcs: 16, NPEs: 4, Steps: 3, Mode: ampi.ModeEvent,
			LB: loadbalance.RotateLB{}, ReduceEvery: 1, Overlap: row.overlap,
		})
		if err != nil {
			t.Fatal(err)
		}
		var image bytes.Buffer
		ampi.CheckpointGates(j, &image)
		j.Run()
		if err := j.Err(); err != nil || !j.Done() {
			t.Fatalf("overlap=%v: run with a checkpoint ended with %v (done %v)", row.overlap, err, j.Done())
		}
		h := fnv.New64a()
		h.Write(image.Bytes())
		if got := fmt.Sprintf("%016x", h.Sum64()); got != row.want {
			t.Errorf("overlap=%v: BT-MZ image (%d bytes) digest %s, want %s", row.overlap, image.Len(), got, row.want)
		}
	}
}
