package shard

// protocol is one worker's side of the termination barrier: one
// method per event of the package comment's table, no goroutine, lock
// or I/O. The run ends once, at STOP or at the first error; later
// events are ignored.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

var (
	errProtocol = errors.New("shard: protocol violation") // a frame the protocol forbids
	errPeerLost = errors.New("shard: peer lost")          // a link failed before the run ended
)

// ctrlFrame is a control frame to send.
type ctrlFrame struct {
	to      int
	kind    uint32
	payload []byte
}

// report is a DONE report; done is false until a worker makes one.
type report struct {
	done            bool
	installs, acked uint64
}

type protocol struct {
	self, workers int
	installs      uint64   // records installed here
	acked         uint64   // extracts from here acknowledged
	outstanding   int      // extracts begun whose ACK has not come
	last          report   // this worker's latest report
	peers         []report // worker 0: every worker's latest report
	stopped       bool
	err           error
}

func newProtocol(self, workers int) protocol {
	p := protocol{self: self, workers: workers}
	if self == 0 {
		p.peers = make([]report, workers)
	}
	return p
}

func (p *protocol) ended() bool { return p.stopped || p.err != nil }

// fail ends the run with a named error, unless it has ended.
func (p *protocol) fail(kind error, format string, a ...any) error {
	if !p.ended() {
		p.err = fmt.Errorf("%w: worker %d: %s", kind, p.self, fmt.Sprintf(format, a...))
	}
	return p.err
}

// arrived is a control frame from worker from; a RECORD has been
// installed into the job, a MOVED noted in its directory.
func (p *protocol) arrived(from int, kind uint32, payload []byte) ([]ctrlFrame, error) {
	switch {
	case p.ended():
		return nil, nil
	case kind == ctrlRecord:
		p.installs++
		return []ctrlFrame{{to: from, kind: ctrlAck}}, nil
	case kind == ctrlMoved && len(payload) == 8:
		return nil, nil
	case kind == ctrlAck && p.outstanding > 0:
		p.outstanding--
		p.acked++
		return nil, nil
	case kind == ctrlDoneReport && p.self == 0 && len(payload) == 16:
		return p.tally(from, report{true, binary.LittleEndian.Uint64(payload), binary.LittleEndian.Uint64(payload[8:])}), nil
	case kind == ctrlStop && from == 0:
		p.stopped = true
		return nil, nil
	}
	return nil, p.fail(errProtocol, "control kind %d (%d bytes) from worker %d", kind, len(payload), from)
}

// extractBegun comes before the extract: the extract drops the job's
// remaining count, and a DONE report between that drop and this count
// would let the barrier trip with the record unsent.
func (p *protocol) extractBegun() { p.outstanding++ }

// extractAborted undoes extractBegun: the rank resumed first.
func (p *protocol) extractAborted() { p.outstanding-- }

// extractShipped is rank extracted for worker to's first PE toPE: the
// MOVED notices for every third worker, and the RECORD to send after.
func (p *protocol) extractShipped(to, rank, toPE int, record []byte) (notices, rec []ctrlFrame) {
	if p.ended() {
		return nil, nil
	}
	mv := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, uint32(rank)), uint32(toPE))
	for w := 0; w < p.workers; w++ {
		if w != p.self && w != to {
			notices = append(notices, ctrlFrame{to: w, kind: ctrlMoved, payload: mv})
		}
	}
	return notices, []ctrlFrame{{to: to, kind: ctrlRecord, payload: record}}
}

// localDone is the job seen done.
func (p *protocol) localDone() []ctrlFrame {
	rep := report{true, p.installs, p.acked}
	if p.ended() || p.outstanding != 0 || rep == p.last {
		return nil
	}
	p.last = rep
	if p.self == 0 {
		return p.tally(0, rep)
	}
	payload := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, rep.installs), rep.acked)
	return []ctrlFrame{{to: 0, kind: ctrlDoneReport, payload: payload}}
}

// tally is worker 0's barrier over from's new report.
func (p *protocol) tally(from int, rep report) []ctrlFrame {
	p.peers[from] = rep
	var installs, acked uint64
	for _, r := range p.peers {
		if !r.done {
			return nil
		}
		installs, acked = installs+r.installs, acked+r.acked
	}
	if installs != acked {
		return nil
	}
	p.stopped = true
	var frames []ctrlFrame
	for w := 1; w < p.workers; w++ {
		frames = append(frames, ctrlFrame{to: w, kind: ctrlStop})
	}
	return frames
}

// linkFault is the link to peer failed before this worker closed it.
func (p *protocol) linkFault(peer int, err error) error {
	return p.fail(errPeerLost, "link to worker %d: %v", peer, err)
}
