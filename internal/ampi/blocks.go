package ampi

// First-use blocks. What a rank holds beside its slot once it runs — its
// frame stack, its mailbox arrays up to the largest class, its
// collective runs and their tree children — is carved out of blocks,
// each sized for blockRanks ranks, not allocated rank by rank. A block
// is cut when a carve finds the newest one used up, never at
// construction, so a job that is built and not run holds none of this.
// Carves go to ranks in the order they first need them, so a sharded
// worker fills its blocks with the ranks it runs, whatever the
// placement. A slot keeps what it carved across moves (an extract
// empties its stack and mailbox in place), so a rank carves each at
// most once per process.
//
// The trade is retention: a block is one object to the collector, so a
// finished rank's frames stay until every rank that carved from the same
// block has finished. An event job drops its blocks when its last rank
// does.
//
// Only a first use takes blocks.mu: a rank that holds its carve never
// comes back here, so a steady-state step takes no lock.

import (
	"math/bits"
	"sync"

	"migflow/internal/comm"
)

const (
	// blockRanks is how many ranks' carves one block holds.
	blockRanks = 256
	// mboxCap is the capacity of a mailbox's first array. Jacobi
	// buffers one message per rank, BT-MZ's halos up to four: a first
	// capacity of 4 kept BT-MZ from growing any but cost 16 B more a
	// rank, +2.6 MiB of peak RSS at 131k Jacobi ranks (EXPERIMENTS.md,
	// "A rank's first pass allocates in blocks"). So a mailbox that
	// outgrows its array moves to one of twice the capacity, carved from
	// the blocks of that class (mailbox), up to maxMboxCap; only a job
	// whose mailboxes reach a class ever cuts blocks of it, and only
	// beyond the largest does a mailbox grow by append.
	mboxCap     = 2
	maxMboxCap  = 8 * mboxCap
	mboxClasses = 4 // mboxCap, 2·mboxCap, … maxMboxCap
)

// blocks is a job's first-use store: the uncarved rest of the newest
// block of each kind.
type blocks struct {
	mu     sync.Mutex
	frames []frame
	mbox   [mboxClasses][]*comm.Message // per capacity class
	runs   []collRun
	ints   []int // collective tree children
	// family is the scratch a collective family is computed into before
	// its exact length is carved.
	family []int
}

// carve returns the next n elements of *rest, empty with capacity n,
// first cutting a block of per elements for each of up to blockRanks of
// the job's ranks when *rest is short. j.blocks.mu held.
func carve[T any](j *Job, rest *[]T, n, per int) []T {
	if len(*rest) < n {
		*rest = make([]T, max(n, min(blockRanks, j.size)*per))
	}
	s := (*rest)[:0:n]
	*rest = (*rest)[n:]
	return s
}

// frameStack returns a frame stack: empty, with the capacity of the
// program's depth.
func (j *Job) frameStack() []frame {
	j.blocks.mu.Lock()
	defer j.blocks.mu.Unlock()
	return carve(j, &j.blocks.frames, j.depth, j.depth)
}

// mailbox returns an empty mailbox array for one that outgrew capacity
// n (0 for none yet): the smallest class above n, mboxCap doubled up to
// maxMboxCap, carved from that class's blocks. n < maxMboxCap.
func (j *Job) mailbox(n int) []*comm.Message {
	k := bits.Len(uint(n / mboxCap))
	j.blocks.mu.Lock()
	defer j.blocks.mu.Unlock()
	return carve(j, &j.blocks.mbox[k], mboxCap<<k, mboxCap<<k)
}

// carveRun returns a zeroed collective run. A block holds a run per rank
// per numbered site.
func (j *Job) carveRun() *collRun {
	j.blocks.mu.Lock()
	defer j.blocks.mu.Unlock()
	return &carve(j, &j.blocks.runs, 1, max(1, len(j.sites)))[:1][0]
}

// family returns rank r's parent and children at a collective of kind
// rooted at root (collFamily), the children carved to their exact
// length.
func (j *Job) family(kind collKind, r int32, root int) (parent int32, children []int) {
	bs := &j.blocks
	bs.mu.Lock()
	defer bs.mu.Unlock()
	p, fam := collFamily(bs.family[:0], kind, int(r), j.size, &j.opts, root)
	parent, bs.family = int32(p), fam
	k := len(bs.family)
	if k == 0 {
		return parent, nil
	}
	// A rank-order tree's children are k for each of its first ranks.
	children = carve(j, &bs.ints, k, j.opts.TreeArity)[:k]
	copy(children, bs.family)
	return parent, children
}

// dropBlocks lets the collector have each block once no rank holds a
// carve of it.
func (j *Job) dropBlocks() {
	bs := &j.blocks
	bs.mu.Lock()
	bs.frames, bs.mbox, bs.runs, bs.ints = nil, [mboxClasses][]*comm.Message{}, nil, nil
	bs.mu.Unlock()
}
