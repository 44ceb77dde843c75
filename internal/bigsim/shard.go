// Sharded BigSim: the simulating PEs split into contiguous slabs, one
// OS process each, so the Figure 11/12 prediction runs off a single Go
// runtime. The caller decides the split (package shard's Cut). Each
// worker builds the full (cheap, array-only) simulator state but
// drives only its own slab, with the in-process Simulator's step; per
// timestep the workers exchange one frame per peer carrying what the
// peer reads of this slab:
//
//   - the end-of-step target clocks of this slab's cells that neighbour
//     the peer's cells, in ascending cell order — both sides derive
//     the list from the torus, so the frame carries no ids,
//   - streaming-aggregation envelope pendings for the peer's PEs,
//   - the worker's simulating-clock advance and target-clock maximum
//     plus its message counters, so every worker reconstructs the
//     identical merged StepStats.
//
// Bitwise determinism is the contract (the 2-process prediction must
// equal the 1-process one). Target clocks cross as the exact values
// the in-process step reads; per-message receiver handling is fixed by
// the torus and summed in New on every worker alike; clock maxima are
// order-free by construction. Aggregation pendings have a single
// writer per (src,dst) slot, so those cross as exact values.
//
// Only ModeEvent shards: a ULT flow is a live goroutine whose stack
// cannot be rebuilt from a frame.
package bigsim

import (
	"errors"
	"fmt"
	"slices"

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

	// imports[w] lists the cells owned by worker w that neighbour this
	// slab's cells, whose clocks w's frame carries; exports[w] the
	// cells of this slab that neighbour w's, whose clocks this slab's
	// frame to w carries. Both are ascending, so worker w's exports to
	// this slab are, in order, this slab's imports from w.
	imports, exports [][]int32
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
	sh := &Shard{S: s, index: index, owner: owner, imports: make([][]int32, workers), exports: make([][]int32, workers)}
	seen := make(map[int32]bool)
	for _, p := range s.store[s.first(lo):s.first(hi)] {
		for _, nb := range p.nbrs {
			w := owner(int(s.store[nb].simPE))
			if w == index {
				continue
			}
			if !seen[nb] {
				seen[nb] = true
				sh.imports[w] = append(sh.imports[w], nb)
			}
			if ex := sh.exports[w]; len(ex) == 0 || ex[len(ex)-1] != p.id {
				sh.exports[w] = append(ex, p.id)
			}
		}
	}
	for _, im := range sh.imports {
		slices.Sort(im)
	}
	return sh, nil
}

// inSlab reports whether simulating PE pe is one this slab drives.
func (s *Simulator) inSlab(pe int) bool { return pe >= s.lo && pe < s.hi }

// shardFrame is one worker's per-step frame for one peer.
type shardFrame struct {
	summary
	clocks []float64 // the target clocks of the sender's exports to the peer
	agg    []aggDelta
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
	sum := sh.S.local(false)
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

// harvest packs what each peer reads of the step into one frame per
// peer, each headed by the slab's summary.
func (sh *Shard) harvest(sum summary) ([][]byte, error) {
	s := sh.S
	frames := make([]shardFrame, len(sh.exports))
	for w := range frames {
		frames[w].summary = sum
		for _, id := range sh.exports[w] {
			frames[w].clocks = append(frames[w].clocks, s.tnext[id])
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
	im := sh.imports[w]
	if len(f.clocks) != len(im) {
		return summary{}, fmt.Errorf("%w: worker %d sent %d target clocks, want %d", errBadFrame, w, len(f.clocks), len(im))
	}
	for i, t := range f.clocks {
		if !(t >= 0) {
			return summary{}, fmt.Errorf("%w: worker %d sent target clock %v for cell %d", errBadFrame, w, t, im[i])
		}
	}
	for i, id := range im {
		s.tnext[id] = f.clocks[i]
	}
	for _, a := range f.agg {
		if !s.cfg.Aggregate || a.src < 0 || int(a.src) >= s.cfg.SimPEs || s.inSlab(int(a.src)) || !s.inSlab(int(a.dst)) {
			return summary{}, fmt.Errorf("%w: worker %d sent envelope %d→%d, not across this cut", errBadFrame, w, a.src, a.dst)
		}
		s.aggPend[a.src][a.dst] += a.pend
	}
	return f.summary, nil
}

// frameClockMin / frameAggMin are the minimum encoded entry sizes the
// decoder validates claimed counts against.
const (
	frameClockMin = 8
	frameAggMin   = 8 + 8 + 8
)

func encodeFrame(f *shardFrame) ([]byte, error) {
	p := pup.NewGrowPacker()
	if err := pupFrameHeader(p, f); err != nil {
		return nil, err
	}
	nclocks, nagg := len(f.clocks), len(f.agg)
	if err := p.Int(&nclocks); err != nil {
		return nil, err
	}
	for i := range f.clocks {
		if err := p.Float64(&f.clocks[i]); err != nil {
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
	var nclocks int
	if err := p.Int(&nclocks); err != nil {
		return nil, err
	}
	// Division, not nclocks*frameClockMin: a hostile count near
	// MaxInt64 would overflow the product and slip past the bound.
	if nclocks < 0 || nclocks > p.Remaining()/frameClockMin {
		return nil, fmt.Errorf("frame claims %d clocks with %d bytes remaining", nclocks, p.Remaining())
	}
	f.clocks = make([]float64, nclocks)
	for i := range f.clocks {
		if err := p.Float64(&f.clocks[i]); err != nil {
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
