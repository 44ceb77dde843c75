package ampi

import "fmt"

// Additional internal collective tags (continuing the block in
// ampi.go; user tags are ≥ 0).
const (
	tagBcast = -200 - iota
	tagReduceRoot
	tagGather
	tagScatter
	tagAlltoall
)

// Bcast broadcasts root's data to every rank and returns the received
// copy (root returns its own data), over the job's collective
// topology.
func (r *Rank) Bcast(root int, data []byte) ([]byte, error) {
	q, err := waited(r.Ibcast(root, data))
	if err != nil {
		return nil, err
	}
	return q.Data, nil
}

// Reduce combines every rank's value at root with op ("sum", "max",
// "min"); only root receives the result (other ranks get 0).
func (r *Rank) Reduce(root int, op string, v float64) (float64, error) {
	q, err := waited(r.Ireduce(root, op, v))
	if err != nil {
		return 0, err
	}
	return q.Value, nil
}

// Gather collects every rank's data at root, indexed by rank; only
// root receives the slice (others get nil).
func (r *Rank) Gather(root int, data []byte) ([][]byte, error) {
	q, err := waited(r.Igather(root, data))
	if err != nil {
		return nil, err
	}
	return q.Parts, nil
}

// Scatter distributes chunks[i] from root to rank i and returns the
// caller's chunk. Root must pass len(chunks) == Size(); other ranks
// pass nil.
func (r *Rank) Scatter(root int, chunks [][]byte) ([]byte, error) {
	n := len(r.job.ranks)
	if root < 0 || root >= n {
		return nil, fmt.Errorf("ampi: Scatter root %d of %d", root, n)
	}
	var st collState
	if r.rank == root {
		if len(chunks) != n {
			return nil, fmt.Errorf("ampi: Scatter: %d chunks for %d ranks", len(chunks), n)
		}
		st.chunks, st.data = chunks, chunks[root]
	}
	q, err := waited(r.icoll(collScatter, root, st))
	if err != nil {
		return nil, err
	}
	return q.Data, nil
}

// Alltoall exchanges chunks[i] with every rank i and returns the
// received chunks indexed by sender. Every rank must pass Size()
// chunks. Receives match each peer by source, in rank order, so the
// exchange is deterministic and payloads travel unwrapped.
func (r *Rank) Alltoall(chunks [][]byte) ([][]byte, error) {
	if n := len(r.job.ranks); len(chunks) != n {
		return nil, fmt.Errorf("ampi: Alltoall: %d chunks for %d ranks", len(chunks), n)
	}
	q, err := waited(r.icoll(collAlltoall, r.rank, collState{chunks: append([][]byte(nil), chunks...)}))
	if err != nil {
		return nil, err
	}
	return q.Parts, nil
}

// Sendrecv performs a simultaneous send and receive — the halo-
// exchange primitive. It is deadlock-free for rings and pairs because
// sends are eager-buffered.
func (r *Rank) Sendrecv(dest, sendTag int, data []byte, src, recvTag int) ([]byte, int, error) {
	if err := r.Send(dest, sendTag, data); err != nil {
		return nil, 0, err
	}
	return r.Recv(src, recvTag)
}

func combiner(op string) (func(a, b float64) float64, error) {
	switch op {
	case "sum":
		return func(a, b float64) float64 { return a + b }, nil
	case "max":
		return func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		}, nil
	case "min":
		return func(a, b float64) float64 {
			if a < b {
				return a
			}
			return b
		}, nil
	}
	return nil, fmt.Errorf("ampi: unknown reduction op %q", op)
}
