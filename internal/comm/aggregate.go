// Streaming message aggregation (TRAM-style): fine-grained messages
// bound for the same destination PE coalesce in a per-endpoint buffer
// and cross the network as one envelope, paying the postal model's
// per-message Alpha once per envelope instead of once per payload.
// This is the Charm++ production answer to workloads like BigSim's
// ghost exchange (§4.4) and BT-MZ's boundary exchange (§4.5), whose
// messages are small enough that Alpha dominates.
//
// Accounting rules (the contract tests and workloads rely on):
//
//   - an envelope of payloads p1..pn costs one hop of
//     Alpha + Beta·Σ len(pi.Data) virtual nanoseconds;
//   - the envelope leaves at the latest payload SendTime and every
//     payload shares the envelope's arrival time;
//   - per (sender endpoint, destination entity) delivery order is
//     exactly the SendStream call order — coalescing changes envelope
//     counts and modeled latency, never ordering;
//   - sent/bytes stats count payloads (as in Send); envelopes are
//     tallied separately in AggStats;
//   - a payload whose entity migrated between buffering and flush is
//     forwarded from the envelope's destination PE with one extra
//     per-message hop, like any stale-cache delivery.
//
// Ordering between SendStream and direct Send traffic from the same
// endpoint is NOT defined: direct sends bypass the buffers. Layers
// that mix both (AMPI keeps collectives on the direct path) must not
// rely on cross-path ordering.
package comm

import "fmt"

// AggPolicy sets an endpoint's coalescing flush thresholds. The zero
// value of a field selects its default; an explicit Flush is always
// available regardless of policy.
type AggPolicy struct {
	// MaxPayloads flushes a destination buffer when it holds this
	// many messages (default 16).
	MaxPayloads int
	// MaxBytes flushes a destination buffer when its payload bytes
	// reach this (default 8192).
	MaxBytes int
}

// Defaults for AggPolicy zero fields.
const (
	DefaultAggMaxPayloads = 16
	DefaultAggMaxBytes    = 8192
)

func (p AggPolicy) normalized() AggPolicy {
	if p.MaxPayloads <= 0 {
		p.MaxPayloads = DefaultAggMaxPayloads
	}
	if p.MaxBytes <= 0 {
		p.MaxBytes = DefaultAggMaxBytes
	}
	return p
}

// aggBucket accumulates payloads bound for one destination PE.
type aggBucket struct {
	msgs     []*Message
	bytes    int
	sendTime float64 // latest payload SendTime — the envelope departure
}

// aggregator is an endpoint's streaming state: one bucket per
// destination PE. Guarded by Endpoint.aggMu; flushes complete while
// the lock is held so envelopes from one sender leave in order.
type aggregator struct {
	policy  AggPolicy
	buckets []aggBucket
}

// EnableAggregation turns on streaming aggregation for SendStream
// calls on this endpoint (zero-value policy fields select defaults).
// Calling it again replaces the policy; already-buffered messages
// stay buffered under the new thresholds until the next SendStream or
// Flush.
func (e *Endpoint) EnableAggregation(p AggPolicy) {
	e.aggMu.Lock()
	defer e.aggMu.Unlock()
	if e.agg == nil {
		e.agg = &aggregator{buckets: make([]aggBucket, len(e.net.endpoints))}
	}
	e.agg.policy = p.normalized()
}

// EnableAggregation enables streaming aggregation on every endpoint.
func (n *Network) EnableAggregation(p AggPolicy) {
	for _, e := range n.endpoints {
		e.EnableAggregation(p)
	}
}

// SendStream routes msg like Send but through the streaming
// aggregation path: the message is buffered by destination PE and
// crosses the network inside the next envelope for that PE (when a
// policy threshold trips, or at an explicit Flush). Falls back to
// Send when aggregation is not enabled.
func (e *Endpoint) SendStream(msg *Message) error {
	if msg == nil {
		return fmt.Errorf("comm: SendStream(nil)")
	}
	e.aggMu.Lock()
	if e.agg == nil {
		e.aggMu.Unlock()
		return e.Send(msg)
	}
	dest, err := e.net.Locate(msg.To)
	if err != nil {
		e.aggMu.Unlock()
		return err
	}
	// Payload stats at entry, exactly like Send.
	e.net.sent.Add(1)
	e.net.bytes.Add(uint64(len(msg.Data)))
	b := &e.agg.buckets[dest]
	b.msgs = append(b.msgs, msg)
	b.bytes += len(msg.Data)
	if msg.SendTime > b.sendTime {
		b.sendTime = msg.SendTime
	}
	var ferr error
	if len(b.msgs) >= e.agg.policy.MaxPayloads || b.bytes >= e.agg.policy.MaxBytes {
		ferr = e.flushBucketLocked(dest)
	}
	e.aggMu.Unlock()
	return ferr
}

// Flush sends every buffered payload on its way immediately,
// regardless of the thresholds — the explicit-flush policy. Blocking
// layers call it before parking so coalesced messages cannot deadlock
// a quiescing machine. No-op when aggregation is off or the buffers
// are empty.
func (e *Endpoint) Flush() error {
	e.aggMu.Lock()
	defer e.aggMu.Unlock()
	if e.agg == nil {
		return nil
	}
	var first error
	for pe := range e.agg.buckets {
		if err := e.flushBucketLocked(pe); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// BufferedPayloads reports how many messages wait in this endpoint's
// coalescing buffers (diagnostics and tests).
func (e *Endpoint) BufferedPayloads() int {
	e.aggMu.Lock()
	defer e.aggMu.Unlock()
	if e.agg == nil {
		return 0
	}
	n := 0
	for i := range e.agg.buckets {
		n += len(e.agg.buckets[i].msgs)
	}
	return n
}

// flushBucketLocked ships the bucket for destination PE pe as one
// envelope: one Alpha plus the summed Beta·bytes, every payload
// stamped with the envelope's arrival. Caller holds e.aggMu — the
// envelope is fanned out before the lock is released, which is what
// keeps one sender's envelopes (and therefore its payloads per
// destination entity) in order.
func (e *Endpoint) flushBucketLocked(pe int) error {
	b := &e.agg.buckets[pe]
	if len(b.msgs) == 0 {
		return nil
	}
	msgs, bytes, departs := b.msgs, b.bytes, b.sendTime
	b.msgs, b.bytes, b.sendTime = nil, 0, 0
	arrival := departs + e.net.lat.Cost(bytes)
	e.net.envelopes.Add(1)
	e.net.aggPayloads.Add(uint64(len(msgs)))
	var first error
	// Fan-out: payloads whose entity is still on pe deliver in one
	// batch; any that migrated since buffering forward individually.
	deliverable := msgs[:0]
	for _, m := range msgs {
		m.Hops++
		m.Arrival = arrival
		actual, err := e.net.Locate(m.To)
		if err != nil {
			// The entity vanished between buffering and flush
			// (deregistered). Surface it; remaining payloads still go.
			if first == nil {
				first = fmt.Errorf("comm: flush to PE %d: %w", pe, err)
			}
			continue
		}
		if actual != pe {
			e.net.forwards.Add(1)
			e.cachedOrNote(m.To, actual)
			m.SendTime = arrival // forwarding leaves on arrival
			if err := e.net.forwardTo(m, actual); err != nil && first == nil {
				first = err
			}
			continue
		}
		deliverable = append(deliverable, m)
	}
	e.net.deliverBatchTo(pe, deliverable)
	return first
}
