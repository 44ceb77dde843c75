// Sharded BigSim: the simulating PEs split into contiguous slabs, one
// OS process each, so the Figure 11/12 prediction runs off a single Go
// runtime. The caller decides the split (package shard's Cut). Each
// worker builds the full (cheap, array-only) simulator state but
// drives only its own slab, with the in-process Simulator's step; per
// timestep the workers exchange one delta frame per peer carrying
// everything a step writes across the cut:
//
//   - ghost mail counts and target-network arrival maxima for the
//     peer's frontier cells,
//   - streaming-aggregation envelope pendings for the peer's PEs,
//   - the worker's simulating-clock advance and target-clock maxima
//     plus its message counters, so every worker reconstructs the
//     identical merged StepStats.
//
// Bitwise determinism is the contract (the 2-process prediction must
// equal the 1-process one), so the frame never ships a pre-summed
// receiver-side float: per-message handling costs are applied as N
// individual adds of the same constant — associative regardless of
// how the senders were grouped — while max-combined quantities
// (arrival times, clock maxima) ship as partial maxima, which are
// order-free by construction. Aggregation pendings have a single
// writer per (src,dst) slot, so those cross as exact values.
//
// Only ModeEvent shards: a ULT flow is a live goroutine whose stack
// cannot be rebuilt from a frame.
package bigsim

import (
	"errors"
	"fmt"
	"math"

	"migflow/internal/pup"
)

// errBadFrame is a peer's step frame this slab refuses: it does not
// decode, is for another step, or writes outside what the cut allows.
var errBadFrame = errors.New("bigsim: bad step frame")

// Shard is one worker's slab of the simulating machine and its peers.
type Shard struct {
	S *Simulator

	index int
	owner func(pe int) int

	// frontier[w] lists the cells owned by worker w that this slab's
	// posts can touch (torus neighbours of local cells), ascending.
	frontier [][]int32
}

// NewShard builds worker index's view of the simulation: it drives the
// simulating PEs [lo, hi), and owner maps every PE to one of the
// workers. The caller decides the split; owner must give exactly
// [lo, hi) to index.
func NewShard(cfg Config, index, workers, lo, hi int, owner func(pe int) int) (*Shard, error) {
	if cfg.Mode != ModeEvent {
		return nil, fmt.Errorf("bigsim: only %q flows shard across processes (a ULT flow is a live goroutine)", ModeEvent)
	}
	if workers < 2 || index < 0 || index >= workers || lo < 0 || lo >= hi || hi > cfg.SimPEs {
		return nil, fmt.Errorf("bigsim: worker %d of %d cannot drive PEs [%d, %d) of %d", index, workers, lo, hi, cfg.SimPEs)
	}
	for pe := 0; pe < cfg.SimPEs; pe++ {
		if w := owner(pe); w < 0 || w >= workers || (w == index) != (pe >= lo && pe < hi) {
			return nil, fmt.Errorf("bigsim: PE %d is owned by worker %d, against worker %d's slab [%d, %d)", pe, w, index, lo, hi)
		}
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	s.lo, s.hi = lo, hi
	sh := &Shard{S: s, index: index, owner: owner, frontier: make([][]int32, workers)}
	seen := make(map[int32]bool)
	for _, p := range s.store[s.first(lo):s.first(hi)] {
		for _, nb := range p.nbrs {
			w := owner(int(s.store[nb].simPE))
			if w != index && !seen[nb] {
				seen[nb] = true
				sh.frontier[w] = append(sh.frontier[w], nb)
			}
		}
	}
	return sh, nil
}

// inSlab reports whether simulating PE pe is one this slab drives.
func (s *Simulator) inSlab(pe int) bool { return pe >= s.lo && pe < s.hi }

// shardFrame is one worker's per-step delta for one peer.
type shardFrame struct {
	summary
	cells []cellDelta
	agg   []aggDelta
}

// cellDelta carries the ghosts a slab posted to one remote cell: the
// mail count (which is also the number of per-message handling costs
// the cell's PE owes) and the max target-network arrival.
type cellDelta struct {
	id   int32
	mail int64
	arr  float64
}

// aggDelta is one coalesced envelope's receiver pending.
type aggDelta struct {
	src, dst int32
	pend     float64
}

// Step advances the slab one timestep. exchange ships the outbound
// frames (indexed by worker, nil for self) and returns the inbound
// ones in the same shape; the returned stats are the full machine's,
// identical on every worker.
func (sh *Shard) Step(exchange func(out [][]byte) ([][]byte, error)) (StepStats, error) {
	sum, err := sh.S.local(false)
	if err != nil {
		return StepStats{}, err
	}
	out, err := sh.harvest(sum)
	if err != nil {
		return StepStats{}, err
	}
	in, err := exchange(out)
	if err != nil {
		return StepStats{}, err
	}
	for w, data := range in {
		if w == sh.index || data == nil {
			continue
		}
		peer, err := sh.apply(w, data)
		if err != nil {
			return StepStats{}, err
		}
		sum.merge(peer)
	}
	return sh.S.stats(sum), nil
}

// harvest drains everything the step wrote across the cut into one
// frame per peer, each headed by the slab's summary.
func (sh *Shard) harvest(sum summary) ([][]byte, error) {
	s := sh.S
	frames := make([]shardFrame, len(sh.frontier))
	for w := range frames {
		frames[w].summary = sum
		for _, id := range sh.frontier[w] {
			mail := s.mail[id].Swap(0)
			arr := math.Float64frombits(s.arrNext[id].Swap(0))
			if mail != 0 || arr != 0 {
				frames[w].cells = append(frames[w].cells, cellDelta{id: id, mail: mail, arr: arr})
			}
		}
	}
	if s.cfg.Aggregate {
		for src := s.lo; src < s.hi; src++ {
			for dst, pend := range s.aggPend[src] {
				if w := sh.owner(dst); w != sh.index && pend != 0 {
					frames[w].agg = append(frames[w].agg, aggDelta{src: int32(src), dst: int32(dst), pend: pend})
					s.aggPend[src][dst] = 0
				}
			}
		}
	}
	out := make([][]byte, len(frames))
	for w := range frames {
		if w == sh.index {
			continue
		}
		var err error
		if out[w], err = encodeFrame(&frames[w]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// apply writes worker w's frame into the slab and returns w's summary.
func (sh *Shard) apply(w int, data []byte) (summary, error) {
	s := sh.S
	f, err := decodeFrame(data)
	if err != nil {
		return summary{}, fmt.Errorf("%w: from worker %d: %w", errBadFrame, w, err)
	}
	if f.step != s.steps {
		return summary{}, fmt.Errorf("%w: worker %d is at step %d, this one at %d", errBadFrame, w, f.step, s.steps)
	}
	// Per-message receiver handling is N adds of the same constant, so
	// grouping by sender cannot change the accumulated bits.
	recvCost := s.lat.Cost(s.cfg.GhostBytes) * recvOverheadFrac
	for _, c := range f.cells {
		if c.id < 0 || int(c.id) >= len(s.store) || !s.inSlab(int(s.store[c.id].simPE)) {
			return summary{}, fmt.Errorf("%w: worker %d posted to cell %d, not in this slab", errBadFrame, w, c.id)
		}
		if c.mail < 0 || c.mail > ghostsPerCell-s.mail[c.id].Load() {
			return summary{}, fmt.Errorf("%w: worker %d posted %d ghosts to cell %d, which holds %d of %d", errBadFrame, w, c.mail, c.id, s.mail[c.id].Load(), ghostsPerCell)
		}
		s.mail[c.id].Add(c.mail)
		atomicMaxFloat(&s.arrNext[c.id], c.arr)
		if !s.cfg.Aggregate {
			pe := int(s.store[c.id].simPE)
			for k := int64(0); k < c.mail; k++ {
				atomicAddFloat(&s.recvPending[pe], recvCost)
			}
		}
	}
	for _, a := range f.agg {
		if !s.cfg.Aggregate || a.src < 0 || int(a.src) >= s.cfg.SimPEs || s.inSlab(int(a.src)) || !s.inSlab(int(a.dst)) {
			return summary{}, fmt.Errorf("%w: worker %d sent envelope %d→%d, not across this cut", errBadFrame, w, a.src, a.dst)
		}
		s.aggPend[a.src][a.dst] += a.pend
	}
	return f.summary, nil
}

// frameCellMin / frameAggMin are the minimum encoded entry sizes the
// decoder validates claimed counts against.
const (
	frameCellMin = 8 + 8 + 8
	frameAggMin  = 8 + 8 + 8
)

func encodeFrame(f *shardFrame) ([]byte, error) {
	p := pup.NewGrowPacker()
	if err := pupFrameHeader(p, f); err != nil {
		return nil, err
	}
	ncells, nagg := len(f.cells), len(f.agg)
	if err := p.Int(&ncells); err != nil {
		return nil, err
	}
	for i := range f.cells {
		if err := pupCellDelta(p, &f.cells[i]); err != nil {
			return nil, err
		}
	}
	if err := p.Int(&nagg); err != nil {
		return nil, err
	}
	for i := range f.agg {
		if err := pupAggDelta(p, &f.agg[i]); err != nil {
			return nil, err
		}
	}
	return p.PackedBytes(), nil
}

func decodeFrame(data []byte) (*shardFrame, error) {
	p := pup.NewUnpacker(data)
	f := &shardFrame{}
	if err := pupFrameHeader(p, f); err != nil {
		return nil, err
	}
	var ncells int
	if err := p.Int(&ncells); err != nil {
		return nil, err
	}
	// Division, not ncells*frameCellMin: a hostile count near MaxInt64
	// would overflow the product and slip past the bound.
	if ncells < 0 || ncells > p.Remaining()/frameCellMin {
		return nil, fmt.Errorf("frame claims %d cells with %d bytes remaining", ncells, p.Remaining())
	}
	f.cells = make([]cellDelta, ncells)
	for i := range f.cells {
		if err := pupCellDelta(p, &f.cells[i]); err != nil {
			return nil, err
		}
	}
	var nagg int
	if err := p.Int(&nagg); err != nil {
		return nil, err
	}
	if nagg < 0 || nagg > p.Remaining()/frameAggMin {
		return nil, fmt.Errorf("frame claims %d envelopes with %d bytes remaining", nagg, p.Remaining())
	}
	f.agg = make([]aggDelta, nagg)
	for i := range f.agg {
		if err := pupAggDelta(p, &f.agg[i]); err != nil {
			return nil, err
		}
	}
	if p.Remaining() != 0 {
		return nil, fmt.Errorf("frame carries %d trailing bytes", p.Remaining())
	}
	return f, nil
}

func pupFrameHeader(p *pup.PUPer, f *shardFrame) error {
	if err := p.Int(&f.step); err != nil {
		return err
	}
	if err := p.Int64(&f.cross); err != nil {
		return err
	}
	if err := p.Int64(&f.intra); err != nil {
		return err
	}
	if err := p.Int64(&f.env); err != nil {
		return err
	}
	if err := p.Int64(&f.coal); err != nil {
		return err
	}
	if err := p.Float64(&f.maxDelta); err != nil {
		return err
	}
	return p.Float64(&f.tAfter)
}

func pupCellDelta(p *pup.PUPer, c *cellDelta) error {
	id := int64(c.id)
	if err := p.Int64(&id); err != nil {
		return err
	}
	if err := p.Int64(&c.mail); err != nil {
		return err
	}
	if err := p.Float64(&c.arr); err != nil {
		return err
	}
	if p.IsUnpacking() {
		if id != int64(int32(id)) {
			return fmt.Errorf("cell id %d beyond int32", id)
		}
		c.id = int32(id)
	}
	return nil
}

func pupAggDelta(p *pup.PUPer, a *aggDelta) error {
	src, dst := int64(a.src), int64(a.dst)
	if err := p.Int64(&src); err != nil {
		return err
	}
	if err := p.Int64(&dst); err != nil {
		return err
	}
	if err := p.Float64(&a.pend); err != nil {
		return err
	}
	if p.IsUnpacking() {
		if src != int64(int32(src)) || dst != int64(int32(dst)) {
			return fmt.Errorf("envelope %d→%d beyond int32", src, dst)
		}
		a.src, a.dst = int32(src), int32(dst)
	}
	return nil
}
