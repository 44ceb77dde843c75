// Package shard runs one Machine as a group of OS processes: each
// worker owns a contiguous PE range of the SAME machine configuration
// and bridges the rest through one comm.LinkTransport whose links are
// unix-domain or TCP sockets or, for co-located workers,
// shared-memory rings. Every worker builds the identical job —
// directories, entity IDs, and the program tree are deterministic
// functions of the config — so the only cross-process state is
// message envelopes, migration records, and the control frames of the
// termination protocol. Virtual-time predictions are placement- and
// mode-invariant by construction (ampi/program.go), which is what
// makes a 2-process run's per-rank VT bitwise equal to the in-process
// run the equivalence suite compares against.
//
// Termination is a counting barrier adapted to migration, run by
// worker 0. Its state is one protocol value (protocol.go); Worker
// feeds it each event under one mutex and sends the frames it returns:
//
//	event                        job call       protocol               frames out
//	extract begun                ShardExtract   outstanding++          —
//	  the rank resumed first     —              outstanding--          —
//	  extracted                  —              —                      MOVED to third workers, RECORD
//	RECORD arrived               ShardInstall   installs++             ACK
//	MOVED arrived                ShardNoteMove  —                      —
//	ACK arrived                  —              outstanding--, acked++ —
//	job done, outstanding 0      —              last = report          DONE to worker 0 if report changed
//	                                                                   (worker 0 tallies its own)
//	DONE arrived (worker 0)      —              peers[from] = report   STOP if all done, Σinstalls = Σacked
//	STOP arrived from worker 0   —              stopped                —
//	violation, link/send fault   —              err, the first only    —
//
// A rank in flight, extracted but not installed or installed but still
// running, leaves the sums unequal or some worker not done, so the
// barrier cannot trip while a rank is alive. The run ends once, at STOP
// or at the first error, which Run and Close return. A failed run
// closes without BYE, so a worker that dies or fails mid-run fails
// every peer with errPeerLost. There is no restart.
package shard

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"migflow/internal/ampi"
	"migflow/internal/comm"
	"migflow/internal/core"
)

// Control-frame kinds on the shard wire.
const (
	ctrlDoneReport uint32 = 1 // worker → coordinator: u64 installs, u64 acked extracts
	ctrlRecord     uint32 = 2 // migration record → destination worker
	ctrlMoved      uint32 = 3 // u32 rank, u32 toPE → workers not party to a move
	ctrlAck        uint32 = 4 // destination → source: record installed
	ctrlStop       uint32 = 5 // coordinator → all: global termination
	ctrlBlob       uint32 = 6 // bigsim step frame
)

// Cut returns the first PE of worker i under the standard contiguous
// split of numPEs across workers (worker i owns [Cut(i), Cut(i+1))).
func Cut(numPEs, workers, i int) int { return i * numPEs / workers }

// OwnerOf maps a global PE to the worker owning it under Cut.
func OwnerOf(numPEs, workers, pe int) int {
	for w := 0; w < workers; w++ {
		if pe < Cut(numPEs, workers, w+1) {
			return w
		}
	}
	return workers - 1
}

// Worker is one process's share of a sharded job: its machine (local
// PE range), the job built on it, the fabric transport (sockets or
// shared-memory rings) and the termination protocol.
type Worker struct {
	Index   int
	Workers int
	NumPEs  int
	M       *core.Machine
	Job     *ampi.Job
	T       *comm.LinkTransport

	mu    sync.Mutex
	proto protocol
	ended atomic.Bool // proto.ended(), for the lock-free idle path
}

// fabricTransport builds the transport over the links the fabric
// selects: shared-memory rings when fab.Net is "shm", the sockets in
// fab.Conns otherwise. A nil owner makes it control-only.
func fabricTransport(index, workers int, owner func(pe int) int, fab Fabric) (*comm.LinkTransport, error) {
	if fab.Net == "shm" {
		return comm.NewShmTransport(index, workers, owner, fab.Dir)
	}
	t := comm.NewSocketTransport(index, workers, owner)
	for p, c := range fab.Conns {
		if err := t.AddPeer(p, c); err != nil {
			t.Close()
			return nil, err
		}
	}
	return t, nil
}

// NewWorker builds worker index's shard: a machine owning PEs
// [Cut(index), Cut(index+1)) of numPEs, the transport over the
// rendezvous fabric, and the job produced by build on that machine.
// The transport is started; the job is not.
func NewWorker(index, workers, numPEs int, fab Fabric, build func(*core.Machine) (*ampi.Job, error)) (*Worker, error) {
	lo, hi := Cut(numPEs, workers, index), Cut(numPEs, workers, index+1)
	if hi <= lo {
		return nil, fmt.Errorf("shard: worker %d of %d owns no PEs (%d total)", index, workers, numPEs)
	}
	m, err := core.NewMachine(core.Config{NumPEs: numPEs, LocalPELo: lo, LocalPEHi: hi})
	if err != nil {
		return nil, err
	}
	t, err := fabricTransport(index, workers, func(pe int) int { return OwnerOf(numPEs, workers, pe) }, fab)
	if err != nil {
		return nil, err
	}
	if err := t.Attach(m.Network(), lo, hi); err != nil {
		t.Close()
		return nil, err
	}
	job, err := build(m)
	if err != nil {
		t.Close()
		return nil, err
	}
	w := &Worker{Index: index, Workers: workers, NumPEs: numPEs, M: m, Job: job, T: t, proto: newProtocol(index, workers)}
	t.SetControlHandler(w.control)
	t.SetFaultHandler(func(peer int, err error) {
		w.step(func(p *protocol) []ctrlFrame { p.linkFault(peer, err); return nil })
	})
	if err := t.Start(); err != nil {
		t.Close()
		return nil, err
	}
	return w, nil
}

// step runs one protocol event and sends the frames it returns, both
// under the lock, so frames leave in the order they were decided: two
// reports sent out of order would leave worker 0 holding the older.
func (w *Worker) step(event func(p *protocol) []ctrlFrame) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, f := range event(&w.proto) {
		if err := w.T.SendControl(f.to, f.kind, f.payload); err != nil {
			w.proto.linkFault(f.to, err)
		}
	}
	if w.proto.ended() && !w.ended.Swap(true) {
		w.M.Wake()
	}
}

// control is a control frame's event; it runs on transport reader
// goroutines. A RECORD or MOVED the job refuses ends the run.
func (w *Worker) control(from int, kind uint32, payload []byte) {
	var err error
	switch {
	case kind == ctrlRecord:
		_, err = w.Job.ShardInstall(payload)
	case kind == ctrlMoved && len(payload) == 8:
		err = w.Job.ShardNoteMove(int(binary.LittleEndian.Uint32(payload)), int(binary.LittleEndian.Uint32(payload[4:])))
	}
	w.step(func(p *protocol) []ctrlFrame {
		if err != nil {
			p.fail(errProtocol, "control kind %d from worker %d: %v", kind, from, err)
		}
		frames, _ := p.arrived(from, kind, payload)
		return frames
	})
	w.M.Wake()
}

// doneCheck is the RunParallel completion callback. While the job runs
// it takes no lock.
func (w *Worker) doneCheck() bool {
	if w.Job.Done() && !w.ended.Load() {
		w.step(func(p *protocol) []ctrlFrame { return p.localDone() })
	}
	return w.ended.Load()
}

// Run starts the job and drives this worker's PEs until the run ends:
// nil at the termination barrier, else the first protocol violation,
// link fault or send error.
func (w *Worker) Run() error {
	w.Job.Start()
	w.M.RunParallel(func(bool) bool { return w.doneCheck() })
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.proto.err
}

// Close tears the links down, after Run on every worker, and returns
// the run's error if it failed.
func (w *Worker) Close() error {
	w.mu.Lock()
	err := w.proto.err
	w.mu.Unlock()
	return hangUp(w.T, err)
}

// hangUp closes t after a run that ended with err: with BYE after a
// clean run, else without, so every peer fails too instead of waiting
// on this worker.
func hangUp(t *comm.LinkTransport, err error) error {
	if err != nil {
		t.Abort()
		return err
	}
	return t.Close()
}

// Backoff rungs for MigrateRanks' unproductive scans (comm.Backoff):
// a few scheduler yields, then OS yields, then millisecond naps once
// the job has been quiet for a while.
const (
	migSpinYields = 16
	migYieldSpins = 256
)

// MigrateRanks extracts up to n local ranks (whichever are parked at
// a plain Recv when scanned) and ships them to toWorker's first PE,
// mid-run, concurrently with the job. Returns the count actually
// moved; it stops early if the run ends or the job completes first.
// Safe to call from a goroutine racing Run — that is the point.
func (w *Worker) MigrateRanks(n, toWorker int) int {
	if toWorker == w.Index || toWorker < 0 || toWorker >= w.Workers {
		return 0
	}
	moved := 0
	idle := comm.NewBackoff(migSpinYields, migYieldSpins)
	for moved < n && !w.ended.Load() && !w.Job.Done() {
		progressed := false
		for r := 0; r < w.Job.Size() && moved < n; r++ {
			if w.Job.ShardMigratable(r) && w.move(r, toWorker, nil) {
				moved++
				progressed = true
			}
		}
		if progressed {
			idle.Reset()
		} else {
			idle.Wait()
		}
	}
	return moved
}

// move ships rank r to toWorker's first PE; hold, if not nil, runs
// between the MOVED notices and the RECORD. It reports whether the
// rank left: not if it resumed first or the run ended.
func (w *Worker) move(r, toWorker int, hold func()) bool {
	toPE := Cut(w.NumPEs, w.Workers, toWorker)
	w.step(func(p *protocol) []ctrlFrame { p.extractBegun(); return nil })
	data, err := w.Job.ShardExtract(r, toPE)
	if err != nil {
		w.step(func(p *protocol) []ctrlFrame { p.extractAborted(); return nil })
		return false
	}
	var record []ctrlFrame
	w.step(func(p *protocol) (notices []ctrlFrame) {
		notices, record = p.extractShipped(toWorker, r, toPE, data)
		return notices
	})
	if hold != nil {
		hold()
	}
	w.step(func(*protocol) []ctrlFrame { return record })
	return record != nil
}
