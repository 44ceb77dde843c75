package shard

// BigSim across processes: each worker drives a slab of the
// simulating PEs (bigsim.Shard) and the per-step delta frames cross
// the worker mesh as ctrlBlob control frames through a control-only
// transport (no comm.Network attached) — BigSim has its own clocks and
// mailboxes, so it needs the wire, not a comm.Network. The path is
// the same on every fabric. Every worker reconstructs the identical
// merged StepStats stream, and that stream must match the 1-process
// simulator bit for bit.

import (
	"encoding/json"
	"fmt"
	"math"

	"migflow/internal/bigsim"
	"migflow/internal/comm"
)

// BigSimSpec parameterizes a sharded BigSim run.
type BigSimSpec struct {
	Cfg   bigsim.Config
	Steps int
}

// StepWire is one StepStats with its float64s as bits, so reports
// compare bitwise through JSON.
type StepWire struct {
	Step      int
	TimeBits  uint64
	PredBits  uint64
	Cross     int
	Intra     int
	Envelopes int
	Coalesced int
}

func stepWire(st bigsim.StepStats) StepWire {
	return StepWire{
		Step:      st.Step,
		TimeBits:  math.Float64bits(st.TimeNs),
		PredBits:  math.Float64bits(st.PredictedTargetNs),
		Cross:     st.CrossPEMessages,
		Intra:     st.IntraPEMessages,
		Envelopes: st.Envelopes,
		Coalesced: st.CoalescedGhosts,
	}
}

// BigSimReport is one worker's (machine-wide, identical on every
// worker) view of the run.
type BigSimReport struct {
	Worker int
	Steps  []StepWire
}

// ctrlExchange builds the all-to-all step-frame exchange over a
// control-only transport. The handler runs on the per-link reader
// goroutines with a borrowed payload, so it copies before queueing.
// The step barrier keeps any peer at most one frame ahead, so a fifth
// queued frame, a frame of another kind or a link fault is the peer's
// failure: its first error is handed over as a nil frame, in the slot
// kept for it, and the reader never blocks. Sends never wait on the
// receive side (socket links queue, ring links are drained by the
// readers), so every worker sending before receiving cannot deadlock.
func ctrlExchange(index, workers int, t *comm.LinkTransport) func(out [][]byte) ([][]byte, error) {
	in := make([]chan []byte, workers)
	errs := make([]error, workers)
	for p := range in {
		in[p] = make(chan []byte, 5)
	}
	// fail and both handlers run on peer p's reader goroutine only.
	fail := func(p int, kind error, format string, a ...any) {
		if errs[p] == nil {
			errs[p] = fmt.Errorf("%w: bigsim worker %d: %s", kind, index, fmt.Sprintf(format, a...))
			in[p] <- nil
		}
	}
	t.SetControlHandler(func(from int, kind uint32, payload []byte) {
		switch {
		case errs[from] != nil:
		case kind != ctrlBlob:
			fail(from, errProtocol, "control kind %d from worker %d", kind, from)
		case len(in[from]) == cap(in[from])-1:
			fail(from, errProtocol, "worker %d is %d frames ahead", from, cap(in[from]))
		default:
			in[from] <- append([]byte{}, payload...)
		}
	})
	t.SetFaultHandler(func(peer int, err error) { fail(peer, errPeerLost, "link to worker %d: %v", peer, err) })
	return func(out [][]byte) ([][]byte, error) {
		for p := 0; p < workers; p++ {
			if p == index {
				continue
			}
			if err := t.SendControl(p, ctrlBlob, out[p]); err != nil {
				return nil, fmt.Errorf("shard: frame to worker %d: %w", p, err)
			}
		}
		got := make([][]byte, workers)
		for p := 0; p < workers; p++ {
			if p == index {
				continue
			}
			if got[p] = <-in[p]; got[p] == nil {
				return nil, errs[p]
			}
		}
		return got, nil
	}
}

// RunBigSimWorker runs one slab of a sharded BigSim simulation over
// the worker fabric.
func RunBigSimWorker(index, workers int, fab Fabric, spec BigSimSpec) (rep *BigSimReport, err error) {
	if spec.Steps < 1 {
		return nil, fmt.Errorf("shard: bigsim wants ≥ 1 step, got %d", spec.Steps)
	}
	pes := spec.Cfg.SimPEs
	sh, err := bigsim.NewShard(spec.Cfg, index, workers, Cut(pes, workers, index), Cut(pes, workers, index+1),
		func(pe int) int { return OwnerOf(pes, workers, pe) })
	if err != nil {
		return nil, err
	}
	t, err := fabricTransport(index, workers, nil, fab)
	if err != nil {
		return nil, err
	}
	defer func() { err = hangUp(t, err) }()
	exchange := ctrlExchange(index, workers, t)
	if err := t.Start(); err != nil {
		return nil, err
	}
	rep = &BigSimReport{Worker: index}
	for s := 0; s < spec.Steps; s++ {
		st, err := sh.Step(exchange)
		if err != nil {
			return nil, err
		}
		rep.Steps = append(rep.Steps, stepWire(st))
	}
	// A peer that has its last step frame may close while this worker
	// still waits on a third: its links end with BYE, so that is no
	// fault.
	return rep, nil
}

// RunBigSimReference runs the same simulation in one process.
func RunBigSimReference(spec BigSimSpec) (*BigSimReport, error) {
	sim, err := bigsim.New(spec.Cfg)
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	rep := &BigSimReport{Worker: -1}
	for _, st := range sim.Run(spec.Steps) {
		rep.Steps = append(rep.Steps, stepWire(st))
	}
	return rep, nil
}

// DecodeBigSimReports parses the subprocess outputs in worker order.
func DecodeBigSimReports(raws []json.RawMessage) ([]*BigSimReport, error) {
	reps := make([]*BigSimReport, len(raws))
	for i, raw := range raws {
		r := &BigSimReport{}
		if err := json.Unmarshal(raw, r); err != nil {
			return nil, fmt.Errorf("shard: bigsim report %d: %w", i, err)
		}
		reps[i] = r
	}
	return reps, nil
}

func init() {
	RegisterApp("bigsim", func(index, workers int, fab Fabric, payload []byte) (any, error) {
		var spec BigSimSpec
		if err := json.Unmarshal(payload, &spec); err != nil {
			return nil, fmt.Errorf("shard: bigsim spec: %w", err)
		}
		return RunBigSimWorker(index, workers, fab, spec)
	})
}
