package ampi

// Deadlock: a run that goes quiescent with ranks unfinished can never
// finish — nothing is runnable and nothing is in flight, so no receive
// will ever be matched. Run and RunParallel record that as an error
// naming each stuck rank instead of returning as if the job had
// finished.

import (
	"errors"
	"fmt"
	"strings"
)

// ErrDeadlock is what Job.Err matches (errors.Is) after a run that went
// quiescent with ranks unfinished. The error itself is a
// *DeadlockError.
var ErrDeadlock = errors.New("ampi: deadlock")

// DeadlockError lists the ranks a deadlocked run left unfinished, in
// rank order.
type DeadlockError struct {
	Size  int         // the job's rank count
	Ranks []StuckRank // every unfinished rank
}

// StuckRank is one unfinished rank of a deadlocked run.
type StuckRank struct {
	Rank, PE int
	// At is the statement the rank is parked in, with the receive it
	// waits for: "Recv(src=any, tag=0)", or a collective wait with its
	// site number, "Allreduce wait (site 0): Recv(src=1, tag=-102)".
	At string
	// Mailbox lists the messages buffered for the rank that its receive
	// does not match, oldest first: "from rank 1, tag 7".
	Mailbox []string
}

// deadlockListed bounds how many ranks DeadlockError.Error spells out.
const deadlockListed = 16

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v: %d of %d ranks cannot finish", ErrDeadlock, len(e.Ranks), e.Size)
	for i, r := range e.Ranks {
		if i == deadlockListed {
			fmt.Fprintf(&b, "; and %d more", len(e.Ranks)-i)
			break
		}
		fmt.Fprintf(&b, "; rank %d on PE %d in %s", r.Rank, r.PE, r.At)
		if len(r.Mailbox) > 0 {
			fmt.Fprintf(&b, ", mailbox holds [%s]", strings.Join(r.Mailbox, "; "))
		}
	}
	return b.String()
}

// Is makes errors.Is(err, ErrDeadlock) hold.
func (e *DeadlockError) Is(target error) bool { return target == ErrDeadlock }

// Err reports how the last Run or RunParallel ended: nil; the Migrate
// gate's LB error; or a *DeadlockError when the machine went quiescent
// with ranks unfinished.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// deadlock returns a *DeadlockError if the machine went quiescent with
// ranks unfinished, else nil. A sharded job's other ranks live in
// other processes, so it is not judged here.
func (j *Job) deadlock() error {
	if j.Done() || j.m.Sharded() {
		return nil
	}
	dl := &DeadlockError{Size: j.size}
	ranks := j.store()
	for r := range ranks {
		s := &ranks[r]
		s.mu.Lock()
		if !s.done && len(s.pc.stack) > 0 {
			dl.Ranks = append(dl.Ranks, j.stuck(s))
		}
		s.mu.Unlock()
	}
	return dl
}

// stuck describes the parked rank in s. s.mu held.
func (j *Job) stuck(s *slot) StuckRank {
	r := s.pc.Rank()
	sr := StuckRank{Rank: r, PE: j.PEOf(r)}
	switch p := s.pc.parkedIn().(type) {
	case recvProc, doProc: // Recv, or a thread body's Rank.Recv or Rank.Allreduce
	case collWaitProc:
		if n, ok := j.siteNum[p.site]; ok {
			sr.At = fmt.Sprintf("%s wait (site %d)", p.site.name, n)
		} else {
			sr.At = p.site.name + " wait"
		}
	case recvEachProc:
		sr.At = "RecvEach"
	case waitallProc:
		sr.At = "Waitall"
	default:
		sr.At = fmt.Sprintf("%T", p)
	}
	if s.hasWait {
		recv := fmt.Sprintf("Recv(src=%s, tag=%s)", wildcard(int(s.waiting.src)), wildcard(int(s.waiting.tag)))
		if sr.At == "" {
			sr.At = recv
		} else {
			sr.At += ": " + recv
		}
	}
	for _, m := range s.mbox[s.head:] {
		sr.Mailbox = append(sr.Mailbox, fmt.Sprintf("from rank %d, tag %d", j.senderOf(m.From), m.Tag))
	}
	return sr
}

// wildcard prints a receive operand, "any" for AnySource or AnyTag.
func wildcard(v int) string {
	if v == AnySource {
		return "any"
	}
	return fmt.Sprint(v)
}
