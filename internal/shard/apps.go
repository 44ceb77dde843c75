package shard

// The sharded applications: Jacobi and program-mode BT-MZ, each as a
// worker-side runner (one process's share) plus an in-process
// reference runner producing the same report shape. Reports carry
// float64 values as raw IEEE-754 bits so the equivalence suite can
// demand bitwise equality across process counts without any epsilon.

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"migflow/internal/ampi"
	"migflow/internal/comm"
	"migflow/internal/core"
	"migflow/internal/npb"
)

// RankVT is one rank's final virtual time as raw float64 bits.
type RankVT struct {
	Rank int
	Bits uint64
}

// RankCell is a Jacobi rank's final numeric state, bit-exact.
type RankCell struct {
	Rank             int
	X, Resid, Global uint64
}

// Report is what one worker (or the whole in-process reference run)
// returns: the final VT of every rank it owned at completion, app
// state, traffic counters, and socket-level stats.
type Report struct {
	Worker int
	Ranks  []RankVT
	Cells  []RankCell `json:",omitempty"`
	Moved  int64
	Net    comm.StatsSnapshot
	Sock   comm.SocketStats
}

// JacobiSpec parameterizes a sharded Jacobi run. Migrate > 0 asks
// worker 0 to extract that many parked ranks mid-run and ship them to
// worker 1 over the record protocol.
type JacobiSpec struct {
	Cfg     ampi.JacobiConfig
	Migrate int
}

// BTMZSpec parameterizes a sharded program-mode BT-MZ run.
type BTMZSpec struct {
	Params  npb.Params
	Migrate int
}

// cellSink is the concurrent Observe collector (PE goroutines call it).
type cellSink struct {
	mu    sync.Mutex
	cells []RankCell
}

func (s *cellSink) observe(rank int, c ampi.JacobiCell) {
	s.mu.Lock()
	s.cells = append(s.cells, RankCell{
		Rank: rank,
		X:    math.Float64bits(c.X), Resid: math.Float64bits(c.Resid), Global: math.Float64bits(c.Global),
	})
	s.mu.Unlock()
}

// report snapshots a worker after its run: owned ranks, counters.
func (w *Worker) report(cells []RankCell) *Report {
	w.mu.Lock()
	rep := &Report{Worker: w.Index, Cells: cells, Moved: int64(w.proto.acked)}
	w.mu.Unlock()
	for r := 0; r < w.Job.Size(); r++ {
		if w.Job.ShardOwns(r) {
			rep.Ranks = append(rep.Ranks, RankVT{Rank: r, Bits: math.Float64bits(w.Job.VT(r))})
		}
	}
	rep.Net = w.M.Network().Snapshot()
	rep.Sock = w.T.SocketStats()
	return rep
}

// runWorker drives one worker to global termination, racing the
// optional migration driver, then closes the links and reports.
func runWorker(w *Worker, migrate int, sink *cellSink) (*Report, error) {
	var wg sync.WaitGroup
	if migrate > 0 && w.Index == 0 && w.Workers > 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.MigrateRanks(migrate, 1)
		}()
	}
	w.Run() // its error is Close's too
	wg.Wait()
	var cells []RankCell
	if sink != nil {
		sink.mu.Lock()
		cells = append(cells, sink.cells...)
		sink.mu.Unlock()
	}
	rep := w.report(cells)
	if err := w.Close(); err != nil {
		return nil, err
	}
	return rep, nil
}

// RunJacobiWorker runs worker index's share of a sharded Jacobi job.
func RunJacobiWorker(index, workers int, fab Fabric, spec JacobiSpec) (*Report, error) {
	cfg := spec.Cfg
	sink := &cellSink{}
	cfg.Observe = sink.observe
	w, err := NewWorker(index, workers, cfg.PEs, fab, func(m *core.Machine) (*ampi.Job, error) {
		return ampi.NewJacobiOn(m, cfg)
	})
	if err != nil {
		return nil, err
	}
	return runWorker(w, spec.Migrate, sink)
}

// RunBTMZWorker runs worker index's share of a sharded program-mode
// BT-MZ job. Params.LB must be nil (the LB gate is a whole-machine
// barrier; sharded runs move ranks with the record protocol instead).
func RunBTMZWorker(index, workers int, fab Fabric, spec BTMZSpec) (*Report, error) {
	p := spec.Params
	if p.LB != nil {
		return nil, fmt.Errorf("shard: BT-MZ LB gate unsupported in sharded runs")
	}
	w, err := NewWorker(index, workers, p.NPEs, fab, func(m *core.Machine) (*ampi.Job, error) {
		return npb.ProgramJob(m, p)
	})
	if err != nil {
		return nil, err
	}
	return runWorker(w, spec.Migrate, nil)
}

// RunJacobiReference runs the identical Jacobi config in-process on
// the default ring-buffer transport and reports it in the same shape
// — the baseline the cross-process equivalence suite compares against.
func RunJacobiReference(cfg ampi.JacobiConfig) (*Report, error) {
	sink := &cellSink{}
	cfg.Observe = sink.observe
	m, job, err := ampi.NewJacobi(cfg)
	if err != nil {
		return nil, err
	}
	job.Run()
	if !job.Done() {
		return nil, fmt.Errorf("shard: reference Jacobi did not complete")
	}
	return referenceReport(m, job, sink.cells), nil
}

// RunBTMZReference is the in-process baseline for a sharded BT-MZ run.
func RunBTMZReference(p npb.Params) (*Report, error) {
	m, err := core.NewMachine(core.Config{NumPEs: p.NPEs})
	if err != nil {
		return nil, err
	}
	job, err := npb.ProgramJob(m, p)
	if err != nil {
		return nil, err
	}
	job.Run()
	if !job.Done() {
		return nil, fmt.Errorf("shard: reference BT-MZ did not complete")
	}
	return referenceReport(m, job, nil), nil
}

func referenceReport(m *core.Machine, job *ampi.Job, cells []RankCell) *Report {
	rep := &Report{Worker: -1, Cells: cells}
	for r := 0; r < job.Size(); r++ {
		rep.Ranks = append(rep.Ranks, RankVT{Rank: r, Bits: math.Float64bits(job.VT(r))})
	}
	rep.Net = m.Network().Snapshot()
	return rep
}

// Merged is the parent-side fusion of all workers' reports.
type Merged struct {
	VTBits      map[int]uint64
	Cells       map[int]RankCell
	Sent        uint64
	Forwards    uint64
	RemoteEnv   uint64
	RemoteBytes uint64
	Moved       int64
	PredictedNs float64 // max rank VT across the whole job
}

// MergeReports fuses per-worker reports, checking that completed-rank
// ownership exactly partitions [0, size): every rank reported once.
func MergeReports(reps []*Report, size int) (*Merged, error) {
	mg := &Merged{VTBits: make(map[int]uint64, size), Cells: make(map[int]RankCell)}
	for _, rep := range reps {
		for _, rv := range rep.Ranks {
			if _, dup := mg.VTBits[rv.Rank]; dup {
				return nil, fmt.Errorf("shard: rank %d reported by two workers", rv.Rank)
			}
			mg.VTBits[rv.Rank] = rv.Bits
			if vt := math.Float64frombits(rv.Bits); vt > mg.PredictedNs {
				mg.PredictedNs = vt
			}
		}
		for _, c := range rep.Cells {
			if _, dup := mg.Cells[c.Rank]; dup {
				return nil, fmt.Errorf("shard: rank %d cell reported twice", c.Rank)
			}
			mg.Cells[c.Rank] = c
		}
		mg.Sent += rep.Net.Sent
		mg.Forwards += rep.Net.Forwards
		mg.RemoteEnv += rep.Net.RemoteEnvelopes
		mg.RemoteBytes += rep.Net.RemoteBytes
		mg.Moved += rep.Moved
	}
	if len(mg.VTBits) != size {
		return nil, fmt.Errorf("shard: %d of %d ranks reported", len(mg.VTBits), size)
	}
	return mg, nil
}

// DecodeReports unmarshals the raw per-worker RESULT payloads a
// subprocess run returns.
func DecodeReports(raws []json.RawMessage) ([]*Report, error) {
	reps := make([]*Report, len(raws))
	for i, raw := range raws {
		reps[i] = &Report{}
		if err := json.Unmarshal(raw, reps[i]); err != nil {
			return nil, fmt.Errorf("shard: decoding worker %d report: %w", i, err)
		}
	}
	return reps, nil
}

func init() {
	RegisterApp("jacobi", func(index, workers int, fab Fabric, payload []byte) (any, error) {
		var spec JacobiSpec
		if err := json.Unmarshal(payload, &spec); err != nil {
			return nil, err
		}
		return RunJacobiWorker(index, workers, fab, spec)
	})
	RegisterApp("btmz", func(index, workers int, fab Fabric, payload []byte) (any, error) {
		var spec BTMZSpec
		if err := json.Unmarshal(payload, &spec); err != nil {
			return nil, err
		}
		return RunBTMZWorker(index, workers, fab, spec)
	})
}
