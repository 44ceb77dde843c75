package ampi

import "fmt"

// Request is a nonblocking-operation handle (MPI_Request). Sends
// complete immediately (eager buffering, like small-message MPI);
// receives complete at Wait.
type Request struct {
	rank *Rank
	recv *matchSpec // nil for sends
	done bool
	data []byte
	from int
}

// Isend starts a nonblocking send. With eager buffering the data is
// already on the wire when Isend returns, so the request is complete;
// the handle exists for MPI-shaped code.
func (r *Rank) Isend(dest, tag int, data []byte) (*Request, error) {
	if tag < 0 {
		return nil, fmt.Errorf("ampi: Isend tag %d must be ≥ 0", tag)
	}
	if err := r.send(dest, tag, data); err != nil {
		return nil, err
	}
	return &Request{rank: r, done: true}, nil
}

// Irecv posts a nonblocking receive; matching happens at Wait. (Real
// MPI matches at arrival; for the post-compute-wait pattern the
// semantics coincide. Overlapping wildcard Irecvs should Wait in
// post order.)
func (r *Rank) Irecv(src, tag int) (*Request, error) {
	if tag < 0 && tag != AnyTag {
		return nil, fmt.Errorf("ampi: Irecv tag %d must be ≥ 0 or AnyTag", tag)
	}
	return &Request{rank: r, recv: &matchSpec{src: src, tag: tag}}, nil
}

// Test reports whether the request has completed, without blocking.
func (q *Request) Test() bool {
	if q.done {
		return true
	}
	q.rank.mu.Lock()
	defer q.rank.mu.Unlock()
	for _, m := range q.rank.mbox {
		if q.rank.matchesLocked(*q.recv, m) {
			return true
		}
	}
	return false
}

// Wait blocks until the request completes and, for receives, returns
// the payload and sender rank.
func (r *Rank) Wait(q *Request) ([]byte, int, error) {
	if q.rank != r {
		return nil, 0, fmt.Errorf("ampi: Wait on another rank's request")
	}
	if q.done {
		return q.data, q.from, nil
	}
	m := r.recv(q.recv.src, q.recv.tag)
	q.done = true
	q.data = m.Data
	q.from = r.senderRank(m)
	return q.data, q.from, nil
}

// Waitall completes every request in order.
func (r *Rank) Waitall(qs []*Request) error {
	for _, q := range qs {
		if _, _, err := r.Wait(q); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------
// Nonblocking collectives (MPI-3 I-collectives).
//
// A CollRequest is an in-progress collective schedule (tree.go): the
// Ixxx call runs the schedule's leading sends — with eager buffering
// a leaf's contribution is on the wire before the call returns — and
// Wait executes the rest (receives and the sends that depend on
// them). The blocking collectives (ampi.go, collectives.go) are
// literally Ixxx + Wait, so results and virtual-time charges are
// bit-identical by construction, and the gap between start and wait
// is where compute overlaps communication.
//
// Like MPI, collectives of the same kind must complete in program
// order: do not start another collective that shares this one's tags
// (the same Ixxx kind, or its blocking form) before Wait returns.

// CollRequest is a nonblocking-collective handle. After Wait, the
// operation's result is in Value (reductions), Data (Bcast, Scatter),
// or Parts (Gather at the root, Alltoall).
type CollRequest struct {
	r    *Rank
	st   collState // the schedule, its cursor and its accumulator
	done bool

	Value float64  // Iallreduce / Ireduce (root) result
	Data  []byte   // Ibcast / Scatter result
	Parts [][]byte // Igather (root only) / Alltoall result
}

// icoll starts kind rooted at root from the accumulators preset in st:
// it derives the rank's schedule and runs its leading sends.
func (r *Rank) icoll(kind collKind, root int, st collState) (*CollRequest, error) {
	q := &CollRequest{r: r, st: st}
	q.st.kind = kind
	q.st.parent, q.st.children = collFamily(kind, r.rank, len(r.job.ranks), &r.job.opts, root)
	if err := q.advance(false); err != nil {
		return nil, err
	}
	return q, nil
}

// advance executes the schedule from the cursor: sends go out (their
// payloads computed now, from whatever earlier receives combined) and
// receives block in schedule order — or, with block false (the start
// half), stop the walk at the first one.
func (q *CollRequest) advance(block bool) error {
	for {
		a, ok := q.st.at(q.st.next)
		if !ok {
			return nil
		}
		if a.send {
			send := q.r.sendEdge
			if collKinds[q.st.kind].direct {
				send = q.r.send
			}
			if err := send(a.peer, a.tag, q.st.payload(a)); err != nil {
				return err
			}
		} else {
			if !block {
				return nil
			}
			m := q.r.recv(a.peer, a.tag)
			kept, err := q.st.absorb(a, m.Data, len(q.r.job.ranks))
			if err != nil {
				return err
			}
			if !kept {
				m.Free()
			}
		}
		q.st.next++
	}
}

// Wait completes the collective: remaining receives block (in
// schedule order), dependent sends go out, and the result fields are
// filled. Waiting twice is a no-op.
func (q *CollRequest) Wait() error {
	if q.done {
		return nil
	}
	if err := q.advance(true); err != nil {
		return err
	}
	q.done = true
	switch root := q.st.parent < 0; q.st.kind {
	case collAllreduce:
		q.Value = q.st.val
	case collReduce:
		if root { // only the root's accumulator is the result
			q.Value = q.st.val
		}
	case collBcast, collScatter:
		q.Data = q.st.data
	case collGather:
		if root {
			q.Parts = q.st.parts(len(q.r.job.ranks))
		}
	case collAlltoall:
		q.Parts = q.st.chunks
	}
	return nil
}

// waited is a blocking collective: the request its start returned,
// after Wait.
func waited(q *CollRequest, err error) (*CollRequest, error) {
	if err == nil {
		err = q.Wait()
	}
	return q, err
}

// Done reports whether the collective has completed (Wait returned).
func (q *CollRequest) Done() bool { return q.done }

// Ibarrier starts a nonblocking barrier; Wait returns once every rank
// has entered it.
func (r *Rank) Ibarrier() (*CollRequest, error) {
	return r.icoll(collBarrier, 0, collState{})
}

// Iallreduce starts a nonblocking Allreduce of v under op ("sum",
// "max", "min"); Wait fills Value on every rank.
func (r *Rank) Iallreduce(op string, v float64) (*CollRequest, error) {
	combine, err := combiner(op)
	if err != nil {
		return nil, err
	}
	return r.icoll(collAllreduce, 0, collState{val: v, combine: combine})
}

// Ireduce starts a nonblocking Reduce at root; Wait fills Value on
// the root (0 elsewhere, like the blocking Reduce).
func (r *Rank) Ireduce(root int, op string, v float64) (*CollRequest, error) {
	combine, err := combiner(op)
	if err != nil {
		return nil, err
	}
	if root < 0 || root >= len(r.job.ranks) {
		return nil, fmt.Errorf("ampi: Reduce root %d of %d", root, len(r.job.ranks))
	}
	return r.icoll(collReduce, root, collState{val: v, combine: combine})
}

// Ibcast starts a nonblocking broadcast of root's data; Wait fills
// Data on every rank (root keeps its own copy).
func (r *Rank) Ibcast(root int, data []byte) (*CollRequest, error) {
	if root < 0 || root >= len(r.job.ranks) {
		return nil, fmt.Errorf("ampi: Bcast root %d of %d", root, len(r.job.ranks))
	}
	return r.icoll(collBcast, root, collState{data: data})
}

// Igather starts a nonblocking Gather at root; Wait fills Parts
// (indexed by rank) on the root only.
func (r *Rank) Igather(root int, data []byte) (*CollRequest, error) {
	if root < 0 || root >= len(r.job.ranks) {
		return nil, fmt.Errorf("ampi: Gather root %d of %d", root, len(r.job.ranks))
	}
	return r.icoll(collGather, root, collState{entries: []gatherEntry{{rank: r.rank, data: data}}})
}
