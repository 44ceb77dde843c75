// Sharded BigSim: the simulating PEs split into contiguous slabs,
// one OS process each, so the Figure 11/12 prediction runs off a
// single Go runtime. Each worker builds the full (cheap, array-only)
// simulator state but drives only its own slab's flows; per timestep
// the workers exchange one delta frame per peer carrying everything a
// step writes across the cut:
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
	"fmt"
	"math"

	"migflow/internal/pup"
)

// Shard drives one worker's slab of the simulating machine.
type Shard struct {
	S       *Simulator
	Index   int
	Workers int

	peLo, peHi int

	// frontier[w] lists the cells owned by worker w that this slab's
	// posts can touch (torus neighbours of local cells), ascending.
	frontier [][]int32

	// step state between prologue and finish.
	step       int
	prevTAfter float64
}

// cutPE is the slab boundary: worker i owns PEs [cutPE(i), cutPE(i+1)).
func cutPE(numPEs, workers, i int) int { return i * numPEs / workers }

// peOwner returns the worker owning simulating PE pe.
func peOwner(numPEs, workers, pe int) int {
	for w := 0; w < workers; w++ {
		if pe < cutPE(numPEs, workers, w+1) {
			return w
		}
	}
	return workers - 1
}

// NewShard builds worker index's view of the simulation.
func NewShard(cfg Config, index, workers int) (*Shard, error) {
	if workers < 2 {
		return nil, fmt.Errorf("bigsim: shard wants ≥ 2 workers, got %d", workers)
	}
	if index < 0 || index >= workers {
		return nil, fmt.Errorf("bigsim: shard index %d of %d", index, workers)
	}
	if cfg.Mode != ModeEvent {
		return nil, fmt.Errorf("bigsim: only %q flows shard across processes (a ULT flow is a live goroutine)", ModeEvent)
	}
	if cfg.SimPEs < workers {
		return nil, fmt.Errorf("bigsim: %d simulating PEs across %d workers", cfg.SimPEs, workers)
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	sh := &Shard{
		S: s, Index: index, Workers: workers,
		peLo:     cutPE(cfg.SimPEs, workers, index),
		peHi:     cutPE(cfg.SimPEs, workers, index+1),
		frontier: make([][]int32, workers),
	}
	seen := make(map[int32]bool)
	for pe := sh.peLo; pe < sh.peHi; pe++ {
		for _, p := range s.byPE[pe] {
			for _, nb := range p.nbrs {
				w := peOwner(cfg.SimPEs, workers, int(s.store[nb].simPE))
				if w != index && !seen[nb] {
					seen[nb] = true
					sh.frontier[w] = append(sh.frontier[w], nb)
				}
			}
		}
	}
	return sh, nil
}

// localPE reports whether pe belongs to this slab.
func (sh *Shard) localPE(pe int) bool { return pe >= sh.peLo && pe < sh.peHi }

// shardFrame is one worker's per-step delta for one peer.
type shardFrame struct {
	step                    int
	cross, intra, env, coal int64
	maxDelta, tAfter        float64
	cells                   []cellDelta
	agg                     []aggDelta
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
	before := sh.prologue()
	for pe := sh.peLo; pe < sh.peHi; pe++ {
		sh.S.runPE(pe)
	}
	local, out, err := sh.harvest(before)
	if err != nil {
		return StepStats{}, err
	}
	in, err := exchange(out)
	if err != nil {
		return StepStats{}, err
	}
	return sh.finish(local, in)
}

// prologue mirrors stepPrologue for the local slab: remote cells'
// mail/arrival slots and remote PEs' pendings were harvested to zero
// last step, so the global loops only move local state.
func (sh *Shard) prologue() (before []float64) {
	s := sh.S
	s.stepCross.Store(0)
	s.stepIntra.Store(0)
	s.stepEnvelopes.Store(0)
	s.stepCoalesced.Store(0)
	before = make([]float64, sh.peHi-sh.peLo)
	for pe := sh.peLo; pe < sh.peHi; pe++ {
		before[pe-sh.peLo] = s.clocks[pe].Now()
	}
	if s.byPE[sh.peLo][0].steps > 0 {
		for pe := sh.peLo; pe < sh.peHi; pe++ {
			for _, p := range s.byPE[pe] {
				if n := s.mail[p.id].Load(); n != 6 {
					panic(fmt.Sprintf("bigsim: cell %d has %d ghosts, want 6", p.id, n))
				}
				s.mail[p.id].Store(0)
			}
		}
	}
	s.arrNow, s.arrNext = s.arrNext, s.arrNow
	for i := range s.arrNext {
		s.arrNext[i].Store(0)
	}
	for pe := sh.peLo; pe < sh.peHi; pe++ {
		s.clocks[pe].Advance(math.Float64frombits(s.recvPending[pe].Swap(0)))
	}
	for src := range s.aggPend {
		for dst, pend := range s.aggPend[src] {
			if pend != 0 {
				s.clocks[dst].Advance(pend)
				s.aggPend[src][dst] = 0
			}
		}
	}
	return before
}

// harvest drains everything the step wrote across the cut into one
// frame per peer and computes the slab's own step summary.
func (sh *Shard) harvest(before []float64) (local shardFrame, out [][]byte, err error) {
	s := sh.S
	local.step = sh.step
	local.cross = s.stepCross.Load()
	local.intra = s.stepIntra.Load()
	local.env = s.stepEnvelopes.Load()
	local.coal = s.stepCoalesced.Load()
	for pe := sh.peLo; pe < sh.peHi; pe++ {
		if d := s.clocks[pe].Now() - before[pe-sh.peLo]; d > local.maxDelta {
			local.maxDelta = d
		}
		for _, p := range s.byPE[pe] {
			if p.tclock > local.tAfter {
				local.tAfter = p.tclock
			}
		}
	}
	out = make([][]byte, sh.Workers)
	for w := 0; w < sh.Workers; w++ {
		if w == sh.Index {
			continue
		}
		f := shardFrame{
			step: sh.step, cross: local.cross, intra: local.intra,
			env: local.env, coal: local.coal,
			maxDelta: local.maxDelta, tAfter: local.tAfter,
		}
		for _, id := range sh.frontier[w] {
			mail := s.mail[id].Swap(0)
			arr := math.Float64frombits(s.arrNext[id].Swap(0))
			if mail != 0 || arr != 0 {
				f.cells = append(f.cells, cellDelta{id: id, mail: mail, arr: arr})
			}
		}
		if s.cfg.Aggregate {
			lo, hi := cutPE(s.cfg.SimPEs, sh.Workers, w), cutPE(s.cfg.SimPEs, sh.Workers, w+1)
			for src := sh.peLo; src < sh.peHi; src++ {
				for dst := lo; dst < hi; dst++ {
					if pend := s.aggPend[src][dst]; pend != 0 {
						f.agg = append(f.agg, aggDelta{src: int32(src), dst: int32(dst), pend: pend})
						s.aggPend[src][dst] = 0
					}
				}
			}
		}
		if out[w], err = encodeFrame(&f); err != nil {
			return local, nil, err
		}
	}
	return local, out, nil
}

// finish applies every peer's frame and combines the step summaries
// into the machine-wide StepStats.
func (sh *Shard) finish(local shardFrame, in [][]byte) (StepStats, error) {
	s := sh.S
	cross, intra := local.cross, local.intra
	env, coal := local.env, local.coal
	maxDelta, tAfter := local.maxDelta, local.tAfter
	// Per-message receiver handling is N adds of the same constant, so
	// grouping by sender cannot change the accumulated bits.
	recvCost := s.lat.Cost(s.cfg.GhostBytes) * recvOverheadFrac
	for w, data := range in {
		if w == sh.Index || data == nil {
			continue
		}
		f, err := decodeFrame(data)
		if err != nil {
			return StepStats{}, fmt.Errorf("bigsim: frame from worker %d: %w", w, err)
		}
		if f.step != sh.step {
			return StepStats{}, fmt.Errorf("bigsim: worker %d is at step %d, this one at %d", w, f.step, sh.step)
		}
		for _, c := range f.cells {
			if int(c.id) >= len(s.store) || !sh.localPE(int(s.store[c.id].simPE)) {
				return StepStats{}, fmt.Errorf("bigsim: worker %d posted to cell %d, not in this slab", w, c.id)
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
			if int(a.src) >= s.cfg.SimPEs || sh.localPE(int(a.src)) || !sh.localPE(int(a.dst)) {
				return StepStats{}, fmt.Errorf("bigsim: worker %d sent envelope %d→%d, not across this cut", w, a.src, a.dst)
			}
			s.aggPend[a.src][a.dst] += a.pend
		}
		cross += f.cross
		intra += f.intra
		env += f.env
		coal += f.coal
		if f.maxDelta > maxDelta {
			maxDelta = f.maxDelta
		}
		if f.tAfter > tAfter {
			tAfter = f.tAfter
		}
	}
	sh.step++
	st := StepStats{
		Step:              s.byPE[sh.peLo][0].steps,
		TimeNs:            maxDelta,
		PredictedTargetNs: tAfter - sh.prevTAfter,
		CrossPEMessages:   int(cross),
		IntraPEMessages:   int(intra),
		Envelopes:         int(env),
		CoalescedGhosts:   int(coal),
	}
	sh.prevTAfter = tAfter
	return st, nil
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
		a.src, a.dst = int32(src), int32(dst)
	}
	return nil
}
