package harness

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"migflow/internal/ampi"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
	"migflow/internal/npb"
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
				fmt.Fprintf(&buf, "%-8s %-4s time=%016x comm=%016x imb=%016x migbytes=%d moved=%d hops=%d\n",
					r.Params.Label(), [2]string{"noLB", "LB"}[i],
					math.Float64bits(r.TimeNs), math.Float64bits(r.CommNs), math.Float64bits(r.Imbalance),
					r.MigratedBytes, r.MovedRanks, r.TopoHops)
			}
		}
	}
	checkGolden(t, "fig12.golden", buf.Bytes())
}

// TestBTMZModeGolden pins the one-zone-per-rank study `btmz -mode`
// prints: npb.Run on Z4K with 8 PEs and 20 steps, on ULT ranks and on
// event records, each without and with GreedyLB. Every modeled field
// is written as its bit pattern, in fig12.golden's line format, plus
// the predicted makespan and the per-PE loads.
func TestBTMZModeGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, mode := range []string{ampi.ModeULT, ampi.ModeEvent} {
		fmt.Fprintf(&buf, "== btmz -mode %s\n", mode)
		for i, lb := range []loadbalance.Strategy{nil, loadbalance.GreedyLB{}} {
			r, err := npb.Run(npb.Params{
				Class: npb.ClassZ4K, NProcs: npb.ClassZ4K.NumZones(), NPEs: 8,
				Steps: 20, Mode: mode, LB: lb,
			})
			if err != nil {
				t.Fatalf("btmz -mode %s: %v", mode, err)
			}
			fmt.Fprintf(&buf, "%-8s %-4s time=%016x comm=%016x imb=%016x migbytes=%d moved=%d hops=%d\n",
				r.Params.Label(), [2]string{"noLB", "LB"}[i],
				math.Float64bits(r.TimeNs), math.Float64bits(r.CommNs), math.Float64bits(r.Imbalance),
				r.MigratedBytes, r.MovedRanks, r.TopoHops)
			fmt.Fprintf(&buf, "  predicted=%016x migrations=%d loads=", math.Float64bits(r.PredictedNs), r.Migrations)
			for _, l := range r.PELoads {
				fmt.Fprintf(&buf, " %016x", math.Float64bits(l))
			}
			buf.WriteByte('\n')
		}
	}
	checkGolden(t, "btmz_mode.golden", buf.Bytes())
}

// TestJacobiModeGolden pins the Jacobi program and the thread API on
// both rank backends, PE clocks included: ampi.NewJacobi with 4,096
// ranks on 8 PEs, 8 iterations and a residual Allreduce every 4, plain,
// with a GreedyLB gate after iteration 2 over skewed work, and
// split-phase; then one NewJob body, a ring Send/Recv and an
// Allreduce, on 64 thread ranks and 4 PEs. Floats are written as their
// bit patterns, in fig12.golden's line format; the per-rank virtual
// times as one FNV-64 of their bits in rank order.
func TestJacobiModeGolden(t *testing.T) {
	var buf bytes.Buffer
	write := func(label string, m *core.Machine, job *ampi.Job) {
		if !job.Done() {
			t.Fatalf("%s: job did not complete", label)
		}
		h := fnv.New64()
		for r := 0; r < job.Size(); r++ {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(job.VT(r)))
			h.Write(b[:])
		}
		s := m.Network().Snapshot()
		migs, migBytes := m.MigrationStats()
		fmt.Fprintf(&buf, "%-8s predicted=%016x vts=%016x sent=%d fwd=%d moved=%d migrations=%d migbytes=%d\n",
			label, math.Float64bits(job.PredictedNs()), h.Sum64(), s.Sent, s.Forwards, job.LBMoved(), migs, migBytes)
		buf.WriteString("  clocks=")
		for p := 0; p < m.NumPEs(); p++ {
			fmt.Fprintf(&buf, " %016x", math.Float64bits(m.PE(p).Clock.Now()))
		}
		buf.WriteByte('\n')
	}
	for _, mode := range []string{ampi.ModeULT, ampi.ModeEvent} {
		fmt.Fprintf(&buf, "== jacobi -mode %s\n", mode)
		for _, v := range []struct {
			label string
			cfg   ampi.JacobiConfig
		}{
			{"plain", ampi.JacobiConfig{}},
			{"lb", ampi.JacobiConfig{MigrateAt: 2, WorkSkew: 2, LB: loadbalance.GreedyLB{}}},
			{"overlap", ampi.JacobiConfig{Overlap: true}},
		} {
			cfg := v.cfg
			cfg.Mode, cfg.Ranks, cfg.PEs, cfg.Iters, cfg.ReduceEvery, cfg.BlockPlacement = mode, 4096, 8, 8, 4, true
			m, job, err := ampi.NewJacobi(cfg)
			if err != nil {
				t.Fatalf("jacobi -mode %s %s: %v", mode, v.label, err)
			}
			job.Run()
			write(v.label, m, job)
		}
	}
	buf.WriteString("== thread API\n")
	m, err := core.NewMachine(core.Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 64
	job, err := ampi.NewJob(m, ranks, ampi.Options{}, func(r *ampi.Rank) {
		me := r.Rank()
		r.Work(float64(1000 + 10*me))
		if err := r.Send((me+1)%ranks, 0, []byte{byte(me)}); err != nil {
			t.Error(err)
		}
		if _, _, err := r.Recv((me+ranks-1)%ranks, 0); err != nil {
			t.Error(err)
		}
		r.Work(500)
		if _, err := r.Allreduce("sum", float64(me)); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	job.Run()
	write("ring", m, job)
	checkGolden(t, "jacobi_mode.golden", buf.Bytes())
}
