// Package charm is a Charm++-like parallel-object layer: arrays of
// location-independent, message-driven objects (chares) with entry
// methods, broadcasts, reductions, and the easy migration of §3.2 —
// "the entire execution state normally consists of a few application
// data structures and the name of the next event to run, so to
// migrate to a new processor we need only copy these data structures
// to a new processor and begin executing the next event."
//
// Elements serialize through PUP; migration moves an element's bytes
// between PEs between entry-method executions, and the communication
// directory forwards in-flight messages.
package charm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"migflow/internal/comm"
	"migflow/internal/core"
	"migflow/internal/pup"
)

// entityBase keeps chare entity ids out of the thread-id space.
var nextEntity atomic.Uint64

func newEntityID() comm.EntityID {
	return comm.EntityID(1<<32 + nextEntity.Add(1))
}

// Element is one chare: user state plus an entry-method dispatcher.
// Recv must not block — event-driven objects suspend by returning
// (§2.4); multi-step coordination belongs in a coro state machine
// inside the element, or in an ampi Proc program on event ranks.
type Element interface {
	pup.Pupable
	Recv(ctx *Ctx, entry int, data []byte)
}

// Factory creates an empty element for index i (initial placement and
// migration unpacking).
type Factory func(i int) Element

// Array is a distributed chare array of n elements, placed
// round-robin over the machine's PEs at creation.
type Array struct {
	m       *core.Machine
	n       int
	factory Factory

	mu       sync.Mutex
	entities []comm.EntityID
	elements []Element // index → live element (nil while migrating)
	pe       []int     // index → current PE
	loadNs   []float64 // index → measured work since last rebalance
	delivers uint64

	reductions map[int]*reduction
}

type reduction struct {
	op       string
	value    float64
	count    int
	callback func(float64)
}

// NewArray creates and places n elements.
func NewArray(m *core.Machine, n int, factory Factory) (*Array, error) {
	if n < 1 {
		return nil, fmt.Errorf("charm: array size %d must be ≥ 1", n)
	}
	a := &Array{
		m: m, n: n, factory: factory,
		entities:   make([]comm.EntityID, n),
		elements:   make([]Element, n),
		pe:         make([]int, n),
		loadNs:     make([]float64, n),
		reductions: make(map[int]*reduction),
	}
	for i := 0; i < n; i++ {
		a.entities[i] = newEntityID()
		a.elements[i] = factory(i)
		a.pe[i] = i % m.NumPEs()
		i := i
		if err := m.RegisterEntity(a.entities[i], a.pe[i], func(pe int, msg *comm.Message) {
			a.dispatch(i, pe, msg)
		}); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Len returns the element count.
func (a *Array) Len() int { return a.n }

// PEOf returns the PE currently hosting element i.
func (a *Array) PEOf(i int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pe[i]
}

// Delivers returns how many entry methods have executed.
func (a *Array) Delivers() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.delivers
}

// dispatch runs one entry method (event-driven: a plain call).
func (a *Array) dispatch(i, pe int, msg *comm.Message) {
	a.mu.Lock()
	el := a.elements[i]
	a.delivers++
	a.mu.Unlock()
	if el == nil {
		panic(fmt.Sprintf("charm: element %d received a message while migrating", i))
	}
	// A chare's execution is driven by the message: the entry method
	// cannot begin before the message arrives.
	a.m.PE(pe).Clock.AdvanceTo(msg.Arrival)
	el.Recv(&Ctx{array: a, index: i, pe: pe}, msg.Tag, msg.Data)
}

// Send invokes entry method entry on element to, from PE fromPE.
func (a *Array) Send(fromPE, to, entry int, data []byte) error {
	if to < 0 || to >= a.n {
		return fmt.Errorf("charm: send to element %d of %d", to, a.n)
	}
	msg := &comm.Message{
		To:       a.entities[to],
		Tag:      entry,
		Data:     data,
		SendTime: a.m.PE(fromPE).Clock.Now(),
	}
	return a.m.Network().Endpoint(fromPE).Send(msg)
}

// Broadcast invokes entry on every element.
func (a *Array) Broadcast(fromPE, entry int, data []byte) error {
	for i := 0; i < a.n; i++ {
		if err := a.Send(fromPE, i, entry, data); err != nil {
			return err
		}
	}
	return nil
}

// MigrateElement moves element i to PE dest between entry-method
// executions: PUP out, PUP into a factory-fresh element, update the
// directory so in-flight messages forward.
func (a *Array) MigrateElement(i, dest int) error {
	if i < 0 || i >= a.n {
		return fmt.Errorf("charm: migrate of element %d of %d", i, a.n)
	}
	if dest < 0 || dest >= a.m.NumPEs() {
		return fmt.Errorf("charm: migrate to PE %d of %d", dest, a.m.NumPEs())
	}
	a.mu.Lock()
	el := a.elements[i]
	a.elements[i] = nil // in flight
	a.mu.Unlock()
	data, err := pup.Pack(el)
	if err != nil {
		return fmt.Errorf("charm: packing element %d: %w", i, err)
	}
	fresh := a.factory(i)
	if err := pup.Unpack(data, fresh); err != nil {
		return fmt.Errorf("charm: unpacking element %d: %w", i, err)
	}
	if err := a.m.Network().MigrateEntity(a.entities[i], dest); err != nil {
		return err
	}
	a.mu.Lock()
	a.elements[i] = fresh
	from := a.pe[i]
	a.pe[i] = dest
	a.mu.Unlock()
	// The element's bytes crossed the network.
	cost := a.m.Network().Latency().Cost(len(data))
	a.m.PE(dest).Clock.AdvanceTo(a.m.PE(from).Clock.Now() + cost)
	return nil
}

// Contribute adds a value to reduction id with the given op ("sum",
// "max"); when all elements have contributed, callback runs once with
// the result (the first contributor's callback wins, mirroring a
// reduction client on the root).
func (a *Array) Contribute(id int, op string, v float64, callback func(float64)) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	red, ok := a.reductions[id]
	if !ok {
		red = &reduction{op: op, value: v, callback: callback}
		a.reductions[id] = red
		red.count = 1
	} else {
		if red.op != op {
			return fmt.Errorf("charm: reduction %d op mismatch: %s vs %s", id, red.op, op)
		}
		switch op {
		case "sum":
			red.value += v
		case "max":
			if v > red.value {
				red.value = v
			}
		default:
			return fmt.Errorf("charm: unknown reduction op %q", op)
		}
		red.count++
	}
	if red.count == a.n {
		delete(a.reductions, id)
		cb := red.callback
		val := red.value
		a.mu.Unlock()
		cb(val)
		a.mu.Lock()
	}
	return nil
}

// Ctx is the context an entry method receives.
type Ctx struct {
	array *Array
	index int
	pe    int
}

// Index returns the element's array index.
func (c *Ctx) Index() int { return c.index }

// Len returns the array's element count.
func (c *Ctx) Len() int { return c.array.n }

// PE returns the processor executing this entry method.
func (c *Ctx) PE() int { return c.pe }

// Send invokes an entry method on a peer element.
func (c *Ctx) Send(to, entry int, data []byte) error {
	return c.array.Send(c.pe, to, entry, data)
}

// Contribute joins a reduction.
func (c *Ctx) Contribute(id int, op string, v float64, callback func(float64)) error {
	return c.array.Contribute(id, op, v, callback)
}

// Work charges ns of modeled computation to the executing PE and to
// this element's measured load (the object-level load database).
func (c *Ctx) Work(ns float64) {
	c.array.m.PE(c.pe).Clock.Advance(ns)
	c.array.mu.Lock()
	c.array.loadNs[c.index] += ns
	c.array.mu.Unlock()
}
