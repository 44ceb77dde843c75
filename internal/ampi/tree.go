package ampi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Spanning-tree collectives (CollTree, the default). Every collective
// runs over a k-ary tree of ranks rooted at the operation's root:
// partial values combine up the tree and results broadcast down, so
// no rank ever serializes more than k messages per phase — the
// production Charm++/AMPI shape, versus the paper-era flat topology
// (CollFlat), a one-level star that funnels O(P) messages through one
// inbox.
//
// Every edge of every topology is a specific (parent, child) pair
// matched by source rank, and delivery is in order per (sender,
// destination) pair, so back-to-back collectives of the same kind
// cannot steal each other's contributions — under the star as under
// the trees.
//
// CollTopoTree replaces the rank-order shape with a topology-aware
// one (topoFamily): tree edges follow the torus/PE-group hierarchy,
// so when Options.Topo charges per-hop costs, the same reduction
// crosses fewer hops at identical combine order per node.

// treeFamily returns rank's parent (-1 for the root) and its children
// in the k-ary collective tree of n ranks rooted at root, appended to
// children. Ranks are renumbered relative to root, so any root yields
// the same shape. It is placement- and mode-independent.
func treeFamily(children []int, rank, n, k, root int) (parent int, _ []int) {
	rel := (rank - root + n) % n
	parent = -1
	if rel != 0 {
		parent = ((rel-1)/k + root) % n
	}
	if first := k*rel + 1; first < n {
		for i := range min(k, n-first) {
			children = append(children, (first+i+root)%n)
		}
	}
	return parent, children
}

// topoMap is the rank↔(node, index) arithmetic topoFamily runs on:
// ranks in [0, n) map onto eff logical nodes with the same placement
// function the job uses for PEs (contiguous blocks or round-robin),
// so co-resident ranks share a node.
type topoMap struct {
	n, eff, k int
	block     bool
}

// node returns the logical node holding rank x.
func (tm topoMap) node(x int) int { return placePE(x, tm.n, tm.eff, tm.block) }

// rankAt returns node m's i-th resident rank (i < count(m)).
func (tm topoMap) rankAt(m, i int) int {
	if tm.block {
		return (m*tm.n+tm.eff-1)/tm.eff + i
	}
	return m + i*tm.eff
}

// idx returns rank x's index within its node.
func (tm topoMap) idx(x int) int {
	if tm.block {
		return x - tm.rankAt(tm.node(x), 0)
	}
	return x / tm.eff
}

// count returns how many ranks live on node m (≥ 1 for eff ≤ n).
func (tm topoMap) count(m int) int {
	if tm.block {
		lo := (m*tm.n + tm.eff - 1) / tm.eff
		hi := ((m+1)*tm.n + tm.eff - 1) / tm.eff
		if hi > tm.n {
			hi = tm.n
		}
		return hi - lo
	}
	return 1 + (tm.n-1-m)/tm.eff
}

// topoFamily returns rank's parent and its children, appended to
// children, in the topology-aware spanning tree of n ranks rooted at
// root (CollTopoTree). The tree follows the torus/PE-group hierarchy of
// t instead of rank order:
//
//   - ranks on one logical node form a k-ary subtree under the node's
//     first resident (its leader), so those edges cross zero hops;
//   - node leaders within one GroupSize-node group form a k-ary
//     subtree under the group's lead node, so those edges stay short;
//   - group lead nodes form a k-ary tree across groups — only these
//     few edges cross long torus distances.
//
// Like treeFamily, ranks are renumbered relative to root and the
// result depends only on (rank, n, k, root, t, block) — never on
// current placement — so collectives built on it stay deterministic
// and migration-invariant.
func topoFamily(children []int, rank, n, k, root int, t Topology, block bool) (parent int, _ []int) {
	eff, gsize := t.Nodes, t.GroupSize
	if eff > n {
		eff = n
	}
	if eff <= 0 || gsize <= 0 {
		return treeFamily(children, rank, n, k, root)
	}
	tm := topoMap{n: n, eff: eff, k: k, block: block}
	abs := func(x int) int { return (x + root) % n }
	rel := (rank - root + n) % n

	m := tm.node(rel)
	i := tm.idx(rel)
	g := m / gsize
	lead := g * gsize // the group's lead node

	parent = -1
	switch {
	case i != 0: // within-node subtree
		parent = abs(tm.rankAt(m, (i-1)/k))
	case m != lead: // node leader under the group's lead node
		parent = abs(tm.rankAt(lead+(m-lead-1)/k, 0))
	case g != 0: // group leader under its parent group's lead node
		parent = abs(tm.rankAt(((g-1)/k)*gsize, 0))
	}

	for c := k*i + 1; c <= k*i+k; c++ {
		if c >= tm.count(m) {
			break
		}
		children = append(children, abs(tm.rankAt(m, c)))
	}
	if i == 0 {
		groupNodes := gsize
		if lead+groupNodes > eff {
			groupNodes = eff - lead
		}
		j := m - lead
		for c := k*j + 1; c <= k*j+k; c++ {
			if c >= groupNodes {
				break
			}
			children = append(children, abs(tm.rankAt(lead+c, 0)))
		}
		if m == lead {
			ngroups := (eff + gsize - 1) / gsize
			for c := k*g + 1; c <= k*g+k; c++ {
				if c >= ngroups {
					break
				}
				children = append(children, abs(tm.rankAt(c*gsize, 0)))
			}
		}
	}
	return parent, children
}

// starFamily returns rank's parent and its children, appended to
// children, in the one-level star of n ranks rooted at root: the root's
// children are every other rank in rank order, so it combines in a
// fixed order whatever the arrival order.
func starFamily(children []int, rank, n, root int) (parent int, _ []int) {
	if rank != root {
		return root, children
	}
	for i := 0; i < n; i++ {
		if i != root {
			children = append(children, i)
		}
	}
	return -1, children
}

// collFamily returns rank's parent and its children, appended to
// children, for collective kind rooted at root. A direct kind talks to
// its peers over the star whatever Options.Collectives says (an
// Alltoall's star is rooted at the rank itself); every other kind uses
// the job's topology: the rank-order k-ary tree (CollTree), the
// topology-aware tree (CollTopoTree) or the star (CollFlat).
func collFamily(children []int, kind collKind, rank, n int, opts *Options, root int) (parent int, _ []int) {
	switch {
	case kind == collAlltoall:
		return starFamily(children, rank, n, rank)
	case collKinds[kind].direct || opts.Collectives == CollFlat:
		return starFamily(children, rank, n, root)
	case opts.Collectives == CollTopoTree:
		return topoFamily(children, rank, n, opts.TreeArity, root, opts.Topo, opts.BlockPlacement)
	default:
		return treeFamily(children, rank, n, opts.TreeArity, root)
	}
}

// ---------------------------------------------------------------
// Collective schedules
//
// A collective, for one rank, is a fixed sequence of edge actions:
// sends to and receives from its family, in an order that encodes the
// up-combine/down-broadcast dance. Nothing is built per execution: the
// schedule is three values (kind, parent, children) and action i is
// derived from the cursor. One executor runs it, collRun.advance
// (program.go), for both program backends and for Rank.Allreduce, and a
// blocking collective IS its nonblocking start followed immediately by
// its wait — which is what makes the two forms bit-identical by
// construction. Scatter and Alltoall are the same machinery with
// per-peer payloads: two direct rows whose star carries each rank's
// chunk straight to it.

// Collective tags: negative, so they never meet an application tag
// (user tags are ≥ 0, and AnyTag matches those only).
const (
	tagBarrier = -100 - iota
	tagBarrierRelease
	tagReduce
	tagReduceResult
)

const (
	tagBcast = -200 - iota
	tagReduceRoot
	tagGather
	tagScatter
	tagAlltoall
)

// collKind names a collective's dance: which of the two phases it has,
// in which order, and the tag each runs under.
type collKind uint8

const (
	collBarrier   collKind = iota // arrivals combine up, the release broadcasts down
	collAllreduce                 // partial values combine up, the result broadcasts down
	collReduce                    // up only: the root's accumulator is the result
	collBcast                     // down only: the root's data is forwarded
	collGather                    // up only: packed (rank, data) subtrees merge
	collScatter                   // down only: the root sends each rank its own chunk
	collAlltoall                  // down then up: a chunk to every peer, then one from each
)

var collKinds = [...]struct {
	up, down       bool
	upTag, downTag int
	// downFirst runs the down phase before the up phase: a rank at the
	// root of its own star sends to every peer, then receives from each.
	downFirst bool
	// direct kinds send straight to their peers: over the star whatever
	// Options.Collectives says (collFamily), with no torus hops charged.
	direct bool
}{
	collBarrier:   {up: true, down: true, upTag: tagBarrier, downTag: tagBarrierRelease},
	collAllreduce: {up: true, down: true, upTag: tagReduce, downTag: tagReduceResult},
	collReduce:    {up: true, upTag: tagReduceRoot},
	collBcast:     {down: true, downTag: tagBcast},
	collGather:    {up: true, upTag: tagGather},
	collScatter:   {down: true, downTag: tagScatter, direct: true},
	collAlltoall:  {up: true, down: true, upTag: tagAlltoall, downTag: tagAlltoall, downFirst: true, direct: true},
}

// collSched is one rank's schedule for one collective. Depth is
// ceil(log_k P) under the trees, and every rank handles at most k+1
// messages per phase.
type collSched struct {
	kind     collKind
	parent   int // -1 at the root
	children []int
}

// collAct is one edge action of a schedule: a send to or a receive
// from peer, in the up or the down phase.
type collAct struct {
	send, down bool
	peer, tag  int
}

// at derives action i from the cursor: receive from each child and send
// to the parent (up), then receive from the parent and send to each
// child (down) — the two phases swapped for a downFirst kind. ok is
// false past the schedule's end.
func (s *collSched) at(i int) (a collAct, ok bool) {
	first := collKinds[s.kind].downFirst
	a, n, ok := s.phase(first, i)
	if !ok {
		a, _, ok = s.phase(!first, i-n)
	}
	return a, ok
}

// phase returns action i of the up or the down phase, or ok false and
// the phase's length n.
func (s *collSched) phase(down bool, i int) (a collAct, n int, ok bool) {
	k := &collKinds[s.kind]
	if down && !k.down || !down && !k.up {
		return collAct{}, 0, false
	}
	n = len(s.children)
	if s.parent >= 0 {
		n++
	}
	switch {
	case i >= n:
		return collAct{}, n, false
	case !down && i < len(s.children):
		return collAct{peer: s.children[i], tag: k.upTag}, n, true
	case !down:
		return collAct{send: true, peer: s.parent, tag: k.upTag}, n, true
	case s.parent < 0:
		return collAct{send: true, down: true, peer: s.children[i], tag: k.downTag}, n, true
	case i == 0:
		return collAct{down: true, peer: s.parent, tag: k.downTag}, n, true
	}
	return collAct{send: true, down: true, peer: s.children[i-1], tag: k.downTag}, n, true
}

// collState is one execution of a schedule by one rank: the cursor and,
// inline, whichever accumulator the kind uses — val (reductions; only
// the root's is meaningful after a Reduce), data (Bcast and Scatter;
// pre-set on the root), entries (Gather; starts with the rank's own
// contribution) or chunks (Scatter's root and Alltoall: one payload per
// rank, indexed by rank).
type collState struct {
	collSched
	next    int
	val     float64
	combine func(a, b float64) float64
	data    []byte
	entries []gatherEntry
	// chunks is an Alltoall's result too: each receive replaces the
	// sender's entry, whose own send has already gone out.
	chunks [][]byte
	// word holds a reduction send's value; the send copies it into the
	// message (comm.InlineBytes), so the next send may overwrite it.
	word [8]byte
}

// payload is what send a carries, computed when it goes out: an
// up-phase send depends on what earlier receives combined.
func (c *collState) payload(a collAct) []byte {
	switch c.kind {
	case collAllreduce, collReduce:
		binary.LittleEndian.PutUint64(c.word[:], math.Float64bits(c.val))
		return c.word[:]
	case collBcast:
		return c.data
	case collGather:
		// One packed message per edge, so the root receives exactly its
		// children's subtrees instead of P-1 messages.
		return packGather(c.entries)
	case collScatter, collAlltoall:
		return c.chunks[a.peer]
	}
	return nil
}

// absorb folds a received payload into the accumulator and reports
// whether the accumulator kept d (Bcast, Scatter, Alltoall and Gather
// hand it to the program): only a payload that was not kept lets its
// message go back to the pool.
func (c *collState) absorb(a collAct, d []byte, nranks int) (kept bool, err error) {
	switch c.kind {
	case collAllreduce, collReduce:
		if a.down {
			c.val = f64(d)
		} else {
			c.val = c.combine(c.val, f64(d))
		}
	case collBcast, collScatter:
		c.data = d
		return true, nil
	case collGather:
		sub, err := unpackGather(d, nranks)
		if err != nil {
			return false, err
		}
		c.entries = append(c.entries, sub...)
		return true, nil
	case collAlltoall:
		c.chunks[a.peer] = d
		return true, nil
	}
	return false, nil
}

// combiner returns the reduction op ("sum", "max", "min") every
// reduction entry point names.
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

func f64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// parts is a completed Gather's result at the root, indexed by rank.
func (c *collState) parts(nranks int) [][]byte {
	out := make([][]byte, nranks)
	for _, e := range c.entries {
		out[e.rank] = e.data
	}
	return out
}

// gatherEntry is one rank's contribution riding a packed subtree
// message.
type gatherEntry struct {
	rank int
	data []byte
}

// packGather serializes entries as repeated (rank u32, len u32,
// bytes) records.
func packGather(entries []gatherEntry) []byte {
	size := 0
	for _, e := range entries {
		size += 8 + len(e.data)
	}
	buf := make([]byte, 0, size)
	var hdr [8]byte
	for _, e := range entries {
		binary.LittleEndian.PutUint32(hdr[0:], uint32(e.rank))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(e.data)))
		buf = append(buf, hdr[:]...)
		buf = append(buf, e.data...)
	}
	return buf
}

// unpackGather parses a packed subtree, validating every rank and
// length against the message bounds.
func unpackGather(buf []byte, nranks int) ([]gatherEntry, error) {
	var out []gatherEntry
	for len(buf) > 0 {
		if len(buf) < 8 {
			return nil, fmt.Errorf("ampi: Gather: truncated subtree header")
		}
		rank := int(binary.LittleEndian.Uint32(buf[0:]))
		n := int(binary.LittleEndian.Uint32(buf[4:]))
		buf = buf[8:]
		if rank < 0 || rank >= nranks {
			return nil, fmt.Errorf("ampi: Gather: bad rank %d in subtree", rank)
		}
		if n < 0 || n > len(buf) {
			return nil, fmt.Errorf("ampi: Gather: entry length %d exceeds message", n)
		}
		var data []byte
		if n > 0 {
			data = buf[:n]
		}
		out = append(out, gatherEntry{rank: rank, data: data})
		buf = buf[n:]
	}
	return out, nil
}
