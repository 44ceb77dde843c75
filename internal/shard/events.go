package shard

// The worker's event log: one fixed-size record per protocol event,
// written by Worker.step — the one place the adapter feeds the protocol
// — into a fixed ring the Worker owns, outside the pure protocol type.
// A failed run's error carries the records the ring still holds.

import (
	"fmt"
	"strings"
)

// evKind names a protocol event (the package comment's table).
type evKind uint8

const (
	evExtractBegun evKind = iota + 1
	evExtractAborted
	evExtractShipped
	evArrived
	evLocalDone
	evLinkFault
	evEnded
)

var evNames = [...]string{
	evExtractBegun:   "extract begun",
	evExtractAborted: "extract aborted",
	evExtractShipped: "extract shipped",
	evArrived:        "arrived",
	evLocalDone:      "job seen done",
	evLinkFault:      "link fault",
	evEnded:          "run ended",
}

// evRecord is one record: the virtual clock of PE pe and the wall time
// since the worker was built, both in ns, stamped when the event was
// fed to the protocol; the rank it moves (-1 for none); and one
// kind-specific word: the destination worker of an extract, from<<32 |
// control kind of an arrived frame, the peer of a link fault.
type evRecord struct {
	vt   float64
	wall int64
	pe   int32
	rank int32
	kind evKind
	arg  uint64
}

func (e evRecord) String() string {
	what := evNames[e.kind]
	switch e.kind {
	case evExtractBegun, evExtractAborted, evExtractShipped:
		what += fmt.Sprintf(" to worker %d", e.arg)
	case evArrived:
		what += fmt.Sprintf(" kind %d from worker %d", uint32(e.arg), e.arg>>32)
	case evLinkFault:
		what += fmt.Sprintf(" with worker %d", e.arg)
	}
	if e.rank >= 0 {
		what += fmt.Sprintf(", rank %d", e.rank)
	}
	return fmt.Sprintf("[wall %d ns, PE %d at VT %g ns] %s", e.wall, e.pe, e.vt, what)
}

// ringEvents is how many records the ring holds: the last of a run's
// events, which its error carries.
const ringEvents = 16

// eventRing holds the last ringEvents records.
type eventRing struct {
	buf [ringEvents]evRecord
	n   uint64 // records written
}

func (r *eventRing) add(e evRecord) {
	r.buf[r.n%ringEvents] = e
	r.n++
}

// String lists the records the ring holds, oldest first.
func (r *eventRing) String() string {
	var b strings.Builder
	first := max(r.n, ringEvents) - ringEvents
	fmt.Fprintf(&b, "events %d to %d of the run:", first+1, r.n)
	for i := first; i < r.n; i++ {
		fmt.Fprintf(&b, "\n\t%v", r.buf[i%ringEvents])
	}
	return b.String()
}
