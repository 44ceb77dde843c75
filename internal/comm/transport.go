// Transport pluggability: the Network's delivery fabric is an
// interface so the Machine can shard its PEs across OS processes. The
// default backend is the in-process ring-buffer inbox path — zero
// copies, no serialization, bit-for-bit the pre-transport behaviour —
// selected by the nil Transport. A non-nil Transport makes the
// Network *sharded*: endpoints in [peLo, peHi) are local (messages
// still take the ring-buffer path untouched), and a message bound for
// any other PE is handed to the Transport as an envelope of payloads,
// to reappear on the owning process via DeliverLocal.
//
// Contract for Transport implementations:
//
//   - Deliver(pe, msgs) ships the payloads to the process owning PE
//     pe; on that process they MUST be handed to
//     Network.DeliverLocal(pe, msgs) in the order sent, per
//     (sending process, destination PE) pair — the in-order delivery
//     guarantee of the local path extends across the wire;
//   - messages cross by value: timestamps (SendTime, Arrival, VTime)
//     and Hops are carried exactly (float64 bit patterns preserved),
//     which is what keeps cross-process virtual-time predictions
//     bitwise-identical to in-process runs;
//   - a Deliver error is fatal: the Network panics. A worker process
//     dying mid-run is a hard error for now (no restart protocol).
//
// Every process in a sharded run constructs the same global directory
// (same registrations, same range tables), so Locate answers are
// authoritative everywhere and the epoch-gated owner checks +
// Endpoint.Forward chase migrated entities across process boundaries
// exactly like they chase them across local PEs.
package comm

import "fmt"

// Transport ships message envelopes to PEs owned by other processes.
// See the package comment above for the full contract.
type Transport interface {
	// Deliver ships msgs to remote PE pe (one envelope). The
	// implementation owns the slice and the messages after the call
	// returns: it may Free them once they are encoded, or keep them.
	Deliver(pe int, msgs []*Message) error
	// Close tears the transport down.
	Close() error
}

// ShardTransport is the full surface a multi-process worker needs
// from its fabric: envelope delivery (Transport) plus the control
// plane and lifecycle. LinkTransport (link.go) is the implementation,
// over socket or shared-memory links; shard.Worker holds one of
// these, so a run picks its fabric at rendezvous time.
type ShardTransport interface {
	Transport
	Attach(n *Network, peLo, peHi int) error
	SetControlHandler(h ControlHandler)
	Start() error
	SendControl(w int, kind uint32, payload []byte) error
	Broadcast(kind uint32, payload []byte) error
	// Retire does nothing (see LinkTransport.Retire).
	Retire()
	SocketStats() SocketStats
}

// SetTransport makes the network sharded: endpoints in [peLo, peHi)
// are local to this process, every other PE is reached through t.
// Must be called before any traffic flows (the fields are read
// without synchronization on the send fast path). When sharded, the
// per-endpoint location caches are bypassed — every Send routes on
// the authoritative directory answer — so a stale cache can never
// bounce a message to a process that no longer owns the entity.
func (n *Network) SetTransport(t Transport, peLo, peHi int) error {
	if t == nil {
		return fmt.Errorf("comm: SetTransport(nil)")
	}
	if peLo < 0 || peHi > len(n.endpoints) || peLo >= peHi {
		return fmt.Errorf("comm: SetTransport: local PE range [%d,%d) invalid for %d PEs", peLo, peHi, len(n.endpoints))
	}
	n.xport, n.peLo, n.peHi = t, peLo, peHi
	return nil
}

// LocalPE reports whether pe is owned by this process (always true on
// the in-process backend).
func (n *Network) LocalPE(pe int) bool {
	return n.xport == nil || (pe >= n.peLo && pe < n.peHi)
}

// DeliverLocal injects an envelope of payloads arriving from another
// process into local PE pe's inbox — the receive half of a Transport.
// The messages' timestamps and hop counts were set by the sending
// network before the wire crossing and are used as-is.
func (n *Network) DeliverLocal(pe int, msgs []*Message) error {
	if !n.LocalPE(pe) {
		return fmt.Errorf("comm: DeliverLocal(%d): PE not local to [%d,%d)", pe, n.peLo, n.peHi)
	}
	n.endpoints[pe].deliverBatch(msgs)
	return nil
}

// deliverTo routes one message to PE pe: the local ring-buffer inbox
// when pe is ours, otherwise a one-payload envelope over the
// transport. The nil check is the entire cost on the default path.
func (n *Network) deliverTo(pe int, msg *Message) {
	if n.xport == nil || (pe >= n.peLo && pe < n.peHi) {
		n.endpoints[pe].deliver(msg)
		return
	}
	n.remoteSend(pe, []*Message{msg})
}

// deliverBatchTo routes a flushed envelope to PE pe — one inbox lock
// locally, one wire envelope remotely (the TRAM coalescing carries
// straight through to the socket).
func (n *Network) deliverBatchTo(pe int, msgs []*Message) {
	if len(msgs) == 0 {
		return
	}
	if n.xport == nil || (pe >= n.peLo && pe < n.peHi) {
		n.endpoints[pe].deliverBatch(msgs)
		return
	}
	n.remoteSend(pe, msgs)
}

// forwardTo re-sends a misdelivered message from PE of origin toward
// its authoritative location, charging one hop.
func (n *Network) forwardTo(msg *Message, to int) error {
	msg.Hops++
	msg.Arrival = msg.SendTime + n.lat.Cost(len(msg.Data))
	n.deliverTo(to, msg)
	return nil
}

// remoteSend ships one envelope over the transport. A transport
// failure is fatal by contract: a worker process that died mid-run
// cannot be papered over without corrupting the virtual-time model.
func (n *Network) remoteSend(pe int, msgs []*Message) {
	n.remoteEnvelopes.Add(1)
	n.remotePayloads.Add(uint64(len(msgs)))
	var b uint64
	for _, m := range msgs {
		b += uint64(len(m.Data))
	}
	n.remoteBytes.Add(b)
	if err := n.xport.Deliver(pe, msgs); err != nil {
		panic(fmt.Sprintf("comm: transport delivery to PE %d failed: %v", pe, err))
	}
}

// StatsSnapshot is every network counter in one struct, so tables and
// harnesses take one consistent-enough snapshot instead of reaching
// into separate getters. Counters are read individually (each is an
// atomic); quiesce the machine first for exact numbers.
type StatsSnapshot struct {
	// Sent counts Send/SendStream calls; Forwards counts forwarding
	// hops (stale cache or post-migration chase); Bytes is payload
	// bytes, counted once per send.
	Sent, Forwards, Bytes uint64
	// Envelopes/AggPayloads are the streaming-aggregation counters:
	// envelopes flushed and the payloads they carried.
	Envelopes, AggPayloads uint64
	// TopoHops is the logical hops charged by topology-aware
	// collective trees.
	TopoHops uint64
	// RemoteEnvelopes/RemotePayloads/RemoteBytes split out traffic
	// that left the process over the transport (all zero on the
	// in-process backend).
	RemoteEnvelopes, RemotePayloads, RemoteBytes uint64
}

// Snapshot returns the current value of every network counter.
func (n *Network) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Sent:            n.sent.Load(),
		Forwards:        n.forwards.Load(),
		Bytes:           n.bytes.Load(),
		Envelopes:       n.envelopes.Load(),
		AggPayloads:     n.aggPayloads.Load(),
		TopoHops:        n.topoHops.Load(),
		RemoteEnvelopes: n.remoteEnvelopes.Load(),
		RemotePayloads:  n.remotePayloads.Load(),
		RemoteBytes:     n.remoteBytes.Load(),
	}
}
