package ampi

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"migflow/internal/loadbalance"
)

// TestRunReportsDeadlock: a run that goes quiescent with ranks
// unfinished ends with ErrDeadlock from Job.Err, naming each stuck rank,
// its PE, the receive it waits in and what its mailbox holds, on both
// backends and under both drivers, which must say the same thing.
// Two ranks that each wait for any source's tag 0 on 2 PEs are stuck
// in Recv(src=any, tag=0); a send on the wrong tag leaves the message
// unmatched in the receiver's mailbox; a rank stuck before a collective
// leaves its parent in the collective's wait. RunParallel tells stuck
// from finished at once: it returns within 100 ms. A job that finishes
// reports nil.
func TestRunReportsDeadlock(t *testing.T) {
	rows := []struct {
		name string
		prog Proc
		want []string
	}{
		{"any-source", Recv(AnySource, 0, nil), []string{
			"2 of 2 ranks cannot finish",
			"rank 0 on PE 0 in Recv(src=any, tag=0)",
			"rank 1 on PE 1 in Recv(src=any, tag=0)",
		}},
		{"wrong-tag", Seq(
			Do(func(pc *PC) {
				if pc.Rank() == 0 {
					pc.Send(1, 7, []byte("x"))
				}
			}),
			RecvFrom(func(pc *PC) int { return 1 - pc.Rank() }, 0, nil),
		), []string{
			"rank 0 on PE 0 in Recv(src=1, tag=0)",
			"rank 1 on PE 1 in Recv(src=0, tag=0), mailbox holds [from rank 0, tag 7]",
		}},
		{"collective", Seq(
			// Rank 1 waits on itself before the Allreduce, so rank 0 waits
			// in the Allreduce for rank 1's contribution.
			RecvEach(func(pc *PC) []int { return []int{pc.Rank()}[:pc.Rank()] }, 5, nil),
			Allreduce("sum", func(*PC) float64 { return 1 }, nil),
		), []string{
			"rank 0 on PE 0 in Allreduce wait (site 0): Recv(src=1, tag=-",
			"rank 1 on PE 1 in RecvEach: Recv(src=1, tag=5)",
		}},
	}
	said := map[string]string{} // mode/row → what Run reported
	for _, parallel := range []bool{false, true} {
		for _, mode := range []string{ModeULT, ModeEvent} {
			for _, row := range rows {
				name := fmt.Sprintf("%s/%s/%s", row.name, mode, driverName(parallel))
				job, err := NewProgram(newMachine(t, 2, nil), 2, Options{Mode: mode}, row.prog)
				if err != nil {
					t.Fatal(err)
				}
				took := drive(t, job, parallel)
				if parallel && took > 100*time.Millisecond {
					t.Errorf("%s: returned after %v, want ≤ 100 ms", name, took)
				}
				err = job.Err()
				if !errors.Is(err, ErrDeadlock) {
					t.Fatalf("%s: Err() = %v, want ErrDeadlock", name, err)
				}
				t.Logf("%s (%v): %v", name, took, err)
				for _, w := range row.want {
					if !strings.Contains(err.Error(), w) {
						t.Errorf("%s: %q does not say %q", name, err, w)
					}
				}
				key := mode + "/" + row.name
				if !parallel {
					said[key] = err.Error()
				} else if err.Error() != said[key] {
					t.Errorf("%s: %q, but Run said %q", name, err, said[key])
				}
			}
			job, err := NewProgram(newMachine(t, 2, nil), 2, Options{Mode: mode}, Seq(
				Do(func(pc *PC) { pc.Send(1-pc.Rank(), 0, nil) }),
				Recv(AnySource, 0, nil),
			))
			if err != nil {
				t.Fatal(err)
			}
			drive(t, job, parallel)
			if err := job.Err(); err != nil || !job.Done() {
				t.Errorf("%s/%s: a job that finished reports %v (done %v)", mode, driverName(parallel), err, job.Done())
			}
		}
	}
}

// TestGateErrorIsJobErr: a Migrate gate whose LB step fails ends the run
// with that error in Job.Err, on both backends and under both drivers,
// with every rank still parked at the gate — a library error, not a
// panic. The strategy plans a PE beyond the machine.
func TestGateErrorIsJobErr(t *testing.T) {
	const pes, size = 2, 4
	prog := Seq(Do(func(pc *PC) { pc.Work(100) }), Migrate(offMachineLB{}), Do(func(pc *PC) { pc.Work(100) }))
	for _, parallel := range []bool{false, true} {
		for _, mode := range []string{ModeULT, ModeEvent} {
			name := mode + "/" + driverName(parallel)
			job, err := NewProgram(newMachine(t, pes, nil), size, Options{Mode: mode}, prog)
			if err != nil {
				t.Fatal(err)
			}
			drive(t, job, parallel)
			err = job.Err()
			if err == nil || !strings.Contains(err.Error(), "ampi: LB gate: ") || !strings.Contains(err.Error(), "PE 5 out of range") {
				t.Fatalf("%s: Err() = %v, want the LB gate's out-of-range error", name, err)
			}
			if job.Done() {
				t.Errorf("%s: job finished past a failed gate", name)
			}
			ranks := job.store()
			for r := range ranks {
				if pc := &ranks[r].pc; !pc.atGate() {
					t.Errorf("%s: rank %d is in %T, not parked at the gate", name, r, pc.parkedIn())
				}
			}
		}
	}
}

// offMachineLB plans every rank onto a PE three beyond the machine.
type offMachineLB struct{}

func (offMachineLB) Name() string { return "off-machine" }

func (offMachineLB) Plan(items []loadbalance.Item, numPEs int) loadbalance.Plan {
	plan := loadbalance.Plan{}
	for _, it := range items {
		plan[it.ID] = numPEs + 3
	}
	return plan
}

// driverName names a Job driver for test output.
func driverName(parallel bool) string {
	if parallel {
		return "RunParallel"
	}
	return "Run"
}

// drive runs j under Run or RunParallel and returns how long that took.
// A driver still running after 5 s fails the test instead of hanging
// the suite.
func drive(t *testing.T, j *Job, parallel bool) time.Duration {
	t.Helper()
	run := j.Run
	if parallel {
		run = j.RunParallel
	}
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		run()
	}()
	select {
	case <-done:
		return time.Since(start)
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still running after 5 s", driverName(parallel))
		return 0
	}
}
