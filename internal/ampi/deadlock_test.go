package ampi

import (
	"errors"
	"strings"
	"testing"
)

// TestRunReportsDeadlock: a Run that goes quiescent with ranks
// unfinished ends with ErrDeadlock from Job.Err, naming each stuck rank,
// its PE, the receive it waits in and what its mailbox holds, on both
// backends. Two ranks that each wait for any source's tag 0 on 2 PEs
// are stuck in Recv(src=any, tag=0); a send on the wrong tag leaves the
// message unmatched in the receiver's mailbox; a rank stuck before a
// collective leaves its parent in the collective's wait. A job that
// finishes reports nil.
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
	for _, mode := range []string{ModeULT, ModeEvent} {
		for _, row := range rows {
			job, err := NewProgram(newMachine(t, 2, nil), 2, Options{Mode: mode}, row.prog)
			if err != nil {
				t.Fatal(err)
			}
			job.Run()
			err = job.Err()
			if !errors.Is(err, ErrDeadlock) {
				t.Fatalf("%s/%s: Err() = %v, want ErrDeadlock", row.name, mode, err)
			}
			t.Logf("%s/%s: %v", row.name, mode, err)
			for _, w := range row.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("%s/%s: %q does not say %q", row.name, mode, err, w)
				}
			}
		}
		job, _ := runProg(t, 2, 2, Options{Mode: mode}, Seq(
			Do(func(pc *PC) { pc.Send(1-pc.Rank(), 0, nil) }),
			Recv(AnySource, 0, nil),
		))
		if err := job.Err(); err != nil {
			t.Errorf("%s: a job that finished reports %v", mode, err)
		}
	}
}
