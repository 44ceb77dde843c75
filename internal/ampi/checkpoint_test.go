package ampi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"migflow/internal/loadbalance"
)

// ckptCase is one program of the checkpoint axis: built with its
// Migrate gate at k (turned into a Checkpoint by instrument), with
// output sink.
type ckptCase struct {
	name  string
	size  int
	opts  Options
	build func(sink []float64) Proc
}

// ckptCases are the checkpoint axis's programs: an event Jacobi ring
// with its gate after every iteration k, blocking and overlapped (whose
// gates after a reducing iteration hold the pipelined Iallreduce active,
// its contributions buffered at the parents), and 60 specMix programs
// with a gate between two of their statements — after a phase's sends
// and before its receives, it holds buffered messages.
func ckptCases() []ckptCase {
	var cases []ckptCase
	for _, overlap := range []bool{false, true} {
		for k := 1; k <= 6; k++ {
			cfg := JacobiConfig{Ranks: 6, Iters: 6, WorkNs: 1000, WorkSkew: 0.5, ReduceEvery: 2, HaloBytes: 8,
				Overlap: overlap, MsgOverheadNs: 300, MigrateAt: k, LB: loadbalance.RotateLB{}}
			cases = append(cases, ckptCase{
				name: fmt.Sprintf("jacobi/overlap=%v/gate%d", overlap, k), size: cfg.Ranks,
				opts: Options{Mode: ModeEvent, MsgOverheadNs: cfg.MsgOverheadNs, LocalPUP: jacobiLocalPUP},
				build: func(sink []float64) Proc {
					cfg := cfg
					cfg.Observe = func(r int, c JacobiCell) { sink[r] = c.X + c.Global }
					return JacobiProgram(cfg)
				},
			})
		}
	}
	for i := 0; i < 60; i++ {
		size := 2 + i*5%7
		opts := []Options{
			{TreeArity: 2 + i%3},
			{Collectives: CollFlat},
			{Collectives: CollTopoTree, TreeArity: 2, Topo: Topology{Nodes: 3, GroupSize: 2, HopNs: 40}},
		}[i%3]
		opts.Mode, opts.MsgOverheadNs, opts.LocalPUP = ModeEvent, float64(i%2)*175, mixLocalPUP
		cases = append(cases, ckptCase{name: fmt.Sprintf("mix/seed%d", i), size: size, opts: opts,
			build: func(sink []float64) Proc {
				ps := specMix(int64(i), size, sink).(seqProc).ps
				k := 1 + i%(len(ps)-1)
				return Seq(slices.Insert(slices.Clone(ps), k, Migrate(loadbalance.RotateLB{}))...)
			}})
	}
	return cases
}

// ckptRun runs c's program on a fresh machine of pes PEs, checkpointing
// at its gate, and returns the image, the trace and the outputs.
func ckptRun(t testing.TB, c ckptCase, pes int) (image []byte, tr *vtTrace, out []float64) {
	t.Helper()
	var buf bytes.Buffer
	out = make([]float64, c.size)
	prog, tr := instrument(c.build(out), c.size, &buf)
	j, err := NewProgram(newMachine(t, pes, nil), c.size, c.opts, prog)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	j.Run()
	if err := j.Err(); err != nil || !j.Done() {
		t.Fatalf("%s: run with a checkpoint ended with %v (done %v)", c.name, err, j.Done())
	}
	return buf.Bytes(), tr, out
}

// TestCheckpointRestoreEquivalence is the checkpoint axis: for each
// program, a run-through on 2 PEs, checkpointing at its gate on the
// way, must equal a restore of that image on a fresh machine of 1, 2 or
// 4 PEs finished under Run and under RunParallel — every rank's virtual
// time after each statement it passes (vtdiff), its output and its
// final VT bit for bit, and Err nil. The 4-PE Run row restores onto a
// machine that has already run another job, whose network gave that
// job's ranks other entity numbers: a buffered message's sender must
// cross by rank to survive it.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	buffered, active := 0, 0
	for _, c := range ckptCases() {
		image, want, wantOut := ckptRun(t, c, 2)
		for _, pes := range []int{1, 2, 4} {
			for _, parallel := range []bool{false, true} {
				at := fmt.Sprintf("%s restored on %d PEs/%s", c.name, pes, driverName(parallel))
				m := newMachine(t, pes, nil)
				if pes == 4 && !parallel {
					other, err := NewProgram(m, 5, Options{Mode: ModeEvent}, Barrier())
					if err != nil {
						t.Fatal(err)
					}
					if other.Run(); !other.Done() {
						t.Fatalf("%s: the machine's first job did not finish", at)
					}
				}
				out := make([]float64, c.size)
				prog, got := instrument(c.build(out), c.size, nil)
				j, err := Restore(m, prog, c.opts, bytes.NewReader(image))
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if pes == 1 && !parallel {
					for r := range j.store() {
						s := &j.store()[r]
						if len(s.mbox) > int(s.head) {
							buffered++
						}
						for run := s.pc.colls; run != nil; run = run.link {
							if run.active {
								active++
							}
						}
					}
				}
				drive(t, j, parallel)
				if err := j.Err(); err != nil || !j.Done() {
					t.Fatalf("%s: ended with %v (done %v)", at, err, j.Done())
				}
				if d := vtdiff(want, got); d != "" {
					t.Fatalf("%s: %s", at, d)
				}
				for r := range out {
					if math.Float64bits(out[r]) != math.Float64bits(wantOut[r]) {
						t.Fatalf("%s: rank %d output %v, want %v", at, r, out[r], wantOut[r])
					}
					if w := want.marks[r]; math.Float64bits(j.VT(r)) != math.Float64bits(w[len(w)-1].vt) {
						t.Fatalf("%s: rank %d final VT %v, want %v", at, r, j.VT(r), w[len(w)-1].vt)
					}
				}
			}
		}
	}
	t.Logf("restored records held %d buffered mailboxes and %d active collective runs", buffered, active)
	if buffered == 0 || active == 0 {
		t.Fatalf("restored records held %d buffered mailboxes and %d active collective runs; the axis needs both", buffered, active)
	}
}

// TestImageCanonical: a gate image is a canonical form of the ranks'
// state. Every ckptCases program checkpointed on 1, 2, 3 and 4 PEs,
// under Run and under RunParallel, writes the bytes it writes on 1 PE
// under Run, though placement decides each PE's clock and the order in
// which messages from different senders reach a mailbox.
func TestImageCanonical(t *testing.T) {
	for _, c := range ckptCases() {
		var want []byte
		for _, pes := range []int{1, 2, 3, 4} {
			for _, parallel := range []bool{false, true} {
				var buf bytes.Buffer
				prog, _ := instrument(c.build(make([]float64, c.size)), c.size, &buf)
				j, err := NewProgram(newMachine(t, pes, nil), c.size, c.opts, prog)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				drive(t, j, parallel)
				if err := j.Err(); err != nil || !j.Done() {
					t.Fatalf("%s on %d PEs/%s: ended with %v (done %v)", c.name, pes, driverName(parallel), err, j.Done())
				}
				if want == nil {
					want = buf.Bytes()
					continue
				}
				if got := buf.Bytes(); !bytes.Equal(got, want) {
					i := 0
					for i < min(len(got), len(want)) && got[i] == want[i] {
						i++
					}
					t.Fatalf("%s on %d PEs/%s: image (%d bytes) differs from the 1-PE Run image (%d bytes) at byte %d",
						c.name, pes, driverName(parallel), len(got), len(want), i)
				}
			}
		}
	}
}

// TestRestoreNamedErrors: an image Restore cannot honour is a named
// error, and the machine's directory keeps no entry of the attempt. The image is
// Jacobi's, taken at its first gate, but for a specMix program's image
// restored with one statement more after its gate: same sites, same
// depth, refused at the header by the tree's shape.
func TestRestoreNamedErrors(t *testing.T) {
	cases := ckptCases()
	jacobi, mix := cases[0], cases[len(cases)-1]
	image, _, _ := ckptRun(t, jacobi, 2)
	mixImage, _, _ := ckptRun(t, mix, 2)
	mixAfter := mix
	mixAfter.build = func(sink []float64) Proc {
		ps := mix.build(sink).(seqProc).ps
		return Seq(append(slices.Clone(ps), Do(func(*PC) {}))...)
	}
	sizeAt := len(imageMagic) + 8
	withSize := func(n int) []byte {
		b := slices.Clone(image)
		binary.LittleEndian.PutUint64(b[sizeAt:], uint64(n))
		return b
	}
	otherOpts := jacobi.opts
	otherOpts.MsgOverheadNs = 0
	for _, row := range []struct {
		name  string
		c     ckptCase
		opts  Options
		image []byte
		want  string
	}{
		{"no image", jacobi, jacobi.opts, nil, "ampi: Restore: reading the image header: EOF"},
		{"foreign bytes", jacobi, jacobi.opts, bytes.Repeat([]byte("not an image "), 8), "ampi: Restore: not a checkpoint image"},
		{"truncated", jacobi, jacobi.opts, image[:len(image)-9], "image truncated"},
		{"another program", mix, mix.opts, image, "image is of another program (depth 5; site 0 Allreduce kind 1 root 0; shape "},
		{"statement added after the gate", mixAfter, mix.opts, mixImage, "image is of another program"},
		{"another VT option", jacobi, otherOpts, image, "image was taken with MsgOverheadNs 300, Collectives 0"},
		{"header names more ranks than it holds", jacobi, jacobi.opts, withSize(jacobi.size + 1), "image ends at record 6 of 7"},
		{"header names fewer ranks than it holds", jacobi, jacobi.opts, withSize(jacobi.size - 1), "past its 5 records"},
	} {
		m := newMachine(t, 2, nil)
		prog, _ := instrument(row.c.build(make([]float64, row.c.size)), row.c.size, nil)
		_, err := Restore(m, prog, row.opts, bytes.NewReader(row.image))
		if err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: Restore returned %v, want an error naming %q", row.name, err, row.want)
		}
		if n := m.Network().NumEntities(); n != 0 {
			t.Errorf("%s: a failed Restore left %d entities in the machine's directory", row.name, n)
		}
	}
	ult := jacobi.opts
	ult.Mode = ModeULT
	if _, err := NewProgram(newMachine(t, 2, nil), 2, ult, Seq(Checkpoint(&bytes.Buffer{}))); err == nil ||
		!strings.Contains(err.Error(), `a program with a Checkpoint runs only as an in-process "event" job`) {
		t.Errorf("a ULT job with a Checkpoint: NewProgram returned %v", err)
	}
}

// failingWriter refuses every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestCheckpointWriteErrorIsJobErr: a checkpoint whose writer fails
// ends the run with the writer's error in Job.Err, under both drivers,
// every rank still parked at the gate.
func TestCheckpointWriteErrorIsJobErr(t *testing.T) {
	prog := Seq(Do(func(pc *PC) { pc.Work(100) }), Checkpoint(failingWriter{}), Do(func(pc *PC) { pc.Work(100) }))
	for _, parallel := range []bool{false, true} {
		j, err := NewProgram(newMachine(t, 2, nil), 4, Options{Mode: ModeEvent}, prog)
		if err != nil {
			t.Fatal(err)
		}
		drive(t, j, parallel)
		if err := j.Err(); err == nil || err.Error() != "ampi: Checkpoint gate: disk full" {
			t.Fatalf("%s: Err() = %v, want the writer's error", driverName(parallel), err)
		}
		if j.Done() {
			t.Errorf("%s: job finished past a failed checkpoint", driverName(parallel))
		}
		for r := range j.store() {
			if pc := &j.store()[r].pc; !pc.atGate() {
				t.Errorf("%s: rank %d is in %T, not parked at the gate", driverName(parallel), r, pc.parkedIn())
			}
		}
	}
}

// FuzzRestore throws bytes at Restore: it returns a job or a named
// error, and never panics. The seeds are images of the checkpoint axis —
// Jacobi with and without an active collective run at its gate, and
// specMix programs with and without buffered messages — and row picks
// the program an image is restored with.
func FuzzRestore(f *testing.F) {
	cases := ckptCases()
	seeds := []int{0, 1, 7, 12, 13, 20, len(cases) - 1}
	for i, c := range seeds {
		image, _, _ := ckptRun(f, cases[c], 2)
		f.Add(uint8(i), image)
	}
	f.Fuzz(func(t *testing.T, row uint8, data []byte) {
		c := cases[seeds[int(row)%len(seeds)]]
		prog, _ := instrument(c.build(make([]float64, c.size)), c.size, nil)
		j, err := Restore(newMachine(t, 2, nil), prog, c.opts, bytes.NewReader(data))
		if err == nil && j.Size() < 1 {
			t.Fatalf("%s: Restore returned an empty job", c.name)
		}
	})
}
