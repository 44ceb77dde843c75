package comm

import (
	"math"
	"sync"
)

// Message recycling. A message is runtime-owned from Send until its
// consumer is done with it, and then goes back to one process-wide
// pool, so a steady-state send allocates nothing. One pool, not one
// free list per PE: a message is made on the sender's PE and consumed
// on the receiver's, and a sharded run decodes on a link-reader
// goroutine that is no PE at all.
//
// A pool miss does not allocate one message: it carves the next one
// out of a slab of msgSlab messages, so a first pass that needs a
// message per rank costs one allocation per slab, not one per message.
// The slab is one object to the collector, which frees it only when no
// message in it is referenced: a consumer that keeps an inline payload
// pins its whole slab (6.5 KiB), not only its message. That is the
// trade that bounds the slab.
//
// Who frees a message:
//
//   - the consumer that is done with it: a receive statement after its
//     callback returns, a collective schedule after folding the payload
//     into its accumulator, a rank move once the record holds a copy of
//     the rank's buffered messages;
//   - LinkTransport.Deliver, once the message is encoded into a frame;
//   - nobody, for a consumer that keeps the payload (ampi's Rank.Recv,
//     a request's Data, a Bcast/Gather/Scatter/Alltoall result):
//     the collector reclaims such a message with its slab.
//
// A payload of at most InlineBytes rides inside the message (SetData
// copies it), so a kept payload pins its message and a freed message
// takes its payload with it. A longer payload is lent by reference.
//
// Built with the msgpoison tag, Free scribbles over the message and
// drops it instead of recycling it, so any read after Free shows up as
// garbage in the equivalence suites and goldens.

// InlineBytes is the largest payload a Message carries inside itself.
const InlineBytes = 16

// msgSlab is how many messages one pool miss allocates together: 64
// of 104 bytes, 6.5 KiB, under the 8 KiB a kept inline payload may pin.
const msgSlab = 64

var (
	msgPool = sync.Pool{New: carveMessage}

	// slabMu guards slabRest, the uncarved tail of the newest slab. Only
	// a pool miss takes it.
	slabMu   sync.Mutex
	slabRest []Message
)

// carveMessage is the pool's New: the next zeroed message of the
// current slab, cutting a fresh slab when it is used up.
func carveMessage() any {
	slabMu.Lock()
	defer slabMu.Unlock()
	if len(slabRest) == 0 {
		slabRest = make([]Message, msgSlab)
	}
	m := &slabRest[0]
	slabRest = slabRest[1:]
	return m
}

// NewMessage returns a zeroed message from the pool.
func NewMessage() *Message { return msgPool.Get().(*Message) }

// SetData sets the message's payload. One of at most InlineBytes is
// copied into the message, so the caller's buffer is free again once
// SetData returns; a longer one is lent by reference and must not be
// modified while the message is in flight.
func (m *Message) SetData(b []byte) {
	if len(b) > InlineBytes {
		m.Data = b
		return
	}
	n := copy(m.inline[:], b)
	m.Data = m.inline[:n:n]
}

// Free hands the message back to the pool. The caller must hold no
// reference to it, nor to an inline payload (one SetData copied), from
// here on; a lent payload is untouched.
func (m *Message) Free() {
	if msgPoison {
		m.To, m.From, m.Seq = ^EntityID(0), ^EntityID(0), ^uint64(0)
		m.Tag, m.Hops = math.MinInt32, math.MinInt32
		m.SendTime, m.Arrival, m.VTime = math.NaN(), math.NaN(), math.NaN()
		for i := range m.inline {
			m.inline[i] = 0xdb
		}
		m.Data = m.inline[:]
		return
	}
	*m = Message{}
	msgPool.Put(m)
}
