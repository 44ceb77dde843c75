package ampi

import (
	"encoding/binary"
	"fmt"
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

// treeFamily returns rank's parent (-1 for the root) and children in
// the k-ary collective tree of n ranks rooted at root. Ranks are
// renumbered relative to root, so any root yields the same shape. It
// is placement- and mode-independent — both the thread collectives
// below and the continuation-program collectives (program.go) build
// their trees here.
func treeFamily(rank, n, k, root int) (parent int, children []int) {
	rel := (rank - root + n) % n
	parent = -1
	if rel != 0 {
		parent = ((rel-1)/k + root) % n
	}
	for i := 1; i <= k; i++ {
		c := k*rel + i
		if c >= n {
			break
		}
		children = append(children, (c+root)%n)
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

// topoFamily returns rank's parent and children in the topology-aware
// spanning tree of n ranks rooted at root (CollTopoTree). The tree
// follows the torus/PE-group hierarchy of t instead of rank order:
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
func topoFamily(rank, n, k, root int, t Topology, block bool) (parent int, children []int) {
	eff, gsize := t.Nodes, t.GroupSize
	if eff > n {
		eff = n
	}
	if eff <= 0 || gsize <= 0 {
		return treeFamily(rank, n, k, root)
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

// collFamily returns rank's parent and children in the job's
// collective topology rooted at root: the rank-order k-ary tree
// (CollTree), the topology-aware tree (CollTopoTree), or the
// one-level star (CollFlat; children in rank order, so the root
// combines in a fixed order whatever the arrival order).
func collFamily(rank, n int, opts *Options, root int) (parent int, children []int) {
	switch opts.Collectives {
	case CollFlat:
		if rank == root {
			children = make([]int, 0, n-1)
			for i := 0; i < n; i++ {
				if i != root {
					children = append(children, i)
				}
			}
			return -1, children
		}
		return root, nil
	case CollTopoTree:
		return topoFamily(rank, n, opts.TreeArity, root, opts.Topo, opts.BlockPlacement)
	default:
		return treeFamily(rank, n, opts.TreeArity, root)
	}
}

func (r *Rank) family(root int) (parent int, children []int) {
	return collFamily(r.rank, len(r.job.ranks), &r.job.opts, root)
}

// ---------------------------------------------------------------
// Collective schedules
//
// A collective, for one rank, is a fixed sequence of edge actions:
// sends to and receives from its family, in an order that encodes the
// up-combine/down-broadcast dance. The builders below emit that
// sequence once; the thread requests (CollRequest, nonblocking.go) and
// both program backends (collWaitProc, program.go) execute the same
// schedule, and a blocking collective IS its nonblocking start
// followed immediately by its wait — which is what makes the two
// forms bit-identical by construction.

// collAct is one edge action of a collective schedule. Send payloads
// are computed at execution time (an up-phase send depends on data
// combined from earlier receives); receive handlers fold the payload
// into the rank's accumulator.
type collAct struct {
	send bool
	peer int
	tag  int
	data func() []byte      // send payload (nil = empty message)
	on   func([]byte) error // receive handler (nil = discard)
}

// barrierActs: arrivals combine up the tree, the release broadcasts
// down. Depth is ceil(log_k P), and every rank handles at most k+1
// messages.
func barrierActs(parent int, children []int) []collAct {
	var acts []collAct
	for _, c := range children {
		acts = append(acts, collAct{peer: c, tag: tagBarrier})
	}
	if parent >= 0 {
		acts = append(acts,
			collAct{send: true, peer: parent, tag: tagBarrier},
			collAct{peer: parent, tag: tagBarrierRelease})
	}
	for _, c := range children {
		acts = append(acts, collAct{send: true, peer: c, tag: tagBarrierRelease})
	}
	return acts
}

// allreduceActs combines partial values up the tree into *acc and
// broadcasts the result down the same edges.
func allreduceActs(parent int, children []int, acc *float64, combine func(a, b float64) float64) []collAct {
	var acts []collAct
	for _, c := range children {
		acts = append(acts, collAct{peer: c, tag: tagReduce, on: func(d []byte) error {
			*acc = combine(*acc, f64(d))
			return nil
		}})
	}
	if parent >= 0 {
		acts = append(acts,
			collAct{send: true, peer: parent, tag: tagReduce, data: func() []byte { return f64bytes(*acc) }},
			collAct{peer: parent, tag: tagReduceResult, on: func(d []byte) error {
				*acc = f64(d)
				return nil
			}})
	}
	for _, c := range children {
		acts = append(acts, collAct{send: true, peer: c, tag: tagReduceResult, data: func() []byte { return f64bytes(*acc) }})
	}
	return acts
}

// reduceActs combines partial values up the tree into *acc; only the
// root's *acc ends up meaningful.
func reduceActs(parent int, children []int, acc *float64, combine func(a, b float64) float64) []collAct {
	var acts []collAct
	for _, c := range children {
		acts = append(acts, collAct{peer: c, tag: tagReduceRoot, on: func(d []byte) error {
			*acc = combine(*acc, f64(d))
			return nil
		}})
	}
	if parent >= 0 {
		acts = append(acts, collAct{send: true, peer: parent, tag: tagReduceRoot, data: func() []byte { return f64bytes(*acc) }})
	}
	return acts
}

// bcastActs forwards *data (pre-set on the root) down the tree.
func bcastActs(parent int, children []int, data *[]byte) []collAct {
	var acts []collAct
	if parent >= 0 {
		acts = append(acts, collAct{peer: parent, tag: tagBcast, on: func(d []byte) error {
			*data = d
			return nil
		}})
	}
	for _, c := range children {
		acts = append(acts, collAct{send: true, peer: c, tag: tagBcast, data: func() []byte { return *data }})
	}
	return acts
}

// gatherActs merges (rank, data) entries up the tree: *entries starts
// with the rank's own contribution, children's packed subtrees append
// to it, and one packed message goes to the parent — so the root
// receives exactly its children's subtrees instead of P-1 messages.
func gatherActs(parent int, children []int, entries *[]gatherEntry, nranks int) []collAct {
	var acts []collAct
	for _, c := range children {
		acts = append(acts, collAct{peer: c, tag: tagGather, on: func(d []byte) error {
			sub, err := unpackGather(d, nranks)
			if err != nil {
				return err
			}
			*entries = append(*entries, sub...)
			return nil
		}})
	}
	if parent >= 0 {
		acts = append(acts, collAct{send: true, peer: parent, tag: tagGather, data: func() []byte { return packGather(*entries) }})
	}
	return acts
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
