package harness

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"migflow/internal/ampi"
	"migflow/internal/comm"
	"migflow/internal/loadbalance"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build")

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/harness -update` to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s differs from this build at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// TestFigure12Golden pins Figure 12 — the table cmd/btmz prints for each
// flag set below, at its default 20 steps — and every modeled field of
// every run behind it, floats as their bit patterns. Modeled time is a
// pure function of the inputs, so any change to the BT-MZ model, the
// latency model, the balancers or the migration images shows up here
// as a diff of named fields.
func TestFigure12Golden(t *testing.T) {
	refine, _ := loadbalance.ByName("refine")
	rotate, _ := loadbalance.ByName("rotate")
	commaware, _ := loadbalance.ByName("commaware")
	hier, _ := loadbalance.ByName("hier")
	configs := []struct {
		flags string
		cfg   Fig12Config
	}{
		{"", Fig12Config{}},
		{"-lb refine", Fig12Config{LB: refine}},
		{"-lb rotate", Fig12Config{LB: rotate}},
		{"-lb commaware", Fig12Config{LB: commaware}},
		{"-lb hier", Fig12Config{LB: hier}},
		{"-coll flat", Fig12Config{Coll: ampi.CollFlat}},
		{"-coll topo -reduce 2", Fig12Config{Coll: ampi.CollTopoTree, ReduceEvery: 2}},
		{"-overlap -reduce 4", Fig12Config{Overlap: true, ReduceEvery: 4}},
		{"-agg on", Fig12Config{Aggregate: true}},
		{"-agg 16:8192", Fig12Config{Aggregate: true, AggPolicy: comm.AggPolicy{MaxPayloads: 16, MaxBytes: 8192}}},
	}
	var buf bytes.Buffer
	for _, c := range configs {
		fmt.Fprintf(&buf, "== btmz %s\n", c.flags)
		pairs, err := Figure12With(&buf, 20, c.cfg)
		if err != nil {
			t.Fatalf("btmz %s: %v", c.flags, err)
		}
		for _, pr := range pairs {
			for i, r := range pr {
				fmt.Fprintf(&buf, "%-8s %-4s time=%016x comm=%016x imb=%016x migbytes=%d moved=%d env=%d aggpay=%d hops=%d\n",
					r.Params.Label(), [2]string{"noLB", "LB"}[i],
					math.Float64bits(r.TimeNs), math.Float64bits(r.CommNs), math.Float64bits(r.Imbalance),
					r.MigratedBytes, r.MovedRanks, r.Envelopes, r.AggPayloads, r.TopoHops)
			}
		}
	}
	checkGolden(t, "fig12.golden", buf.Bytes())
}
