package comm

import (
	"sync"
	"testing"
)

const rangeTestBase = PinnedEntity | 5000

func newRangeNet(t *testing.T, numPEs int, pes []int) *Network {
	t.Helper()
	n := NewNetwork(numPEs, LatencyModel{Alpha: 100, BetaPerByte: 1})
	if err := n.RegisterRange(rangeTestBase, pes); err != nil {
		t.Fatalf("RegisterRange: %v", err)
	}
	return n
}

func TestRangeRegisterLocate(t *testing.T) {
	n := newRangeNet(t, 4, []int{0, 1, 2, 3, 0, 1})
	for i := 0; i < 6; i++ {
		pe, err := n.Locate(rangeTestBase + EntityID(i))
		if err != nil {
			t.Fatalf("Locate(%d): %v", i, err)
		}
		if pe != i%4 {
			t.Fatalf("Locate(%d) = %d, want %d", i, pe, i%4)
		}
	}
	if got := n.NumEntities(); got != 6 {
		t.Fatalf("NumEntities = %d, want 6", got)
	}
	if _, err := n.Locate(rangeTestBase + 6); err == nil {
		t.Fatal("Locate past the range end should fail")
	}
	if _, err := n.Locate(rangeTestBase - 1); err == nil {
		t.Fatal("Locate before the range base should fail")
	}
}

func TestRangeRegisterValidation(t *testing.T) {
	n := NewNetwork(2, DefaultLatency)
	if err := n.RegisterRange(rangeTestBase, nil); err == nil {
		t.Fatal("empty range should fail")
	}
	if err := n.RegisterRange(rangeTestBase, []int{0, 7}); err == nil {
		t.Fatal("out-of-range PE should fail")
	}
	if err := n.RegisterRange(rangeTestBase, []int{0, 1, 0}); err != nil {
		t.Fatalf("RegisterRange: %v", err)
	}
	if err := n.RegisterRange(rangeTestBase+2, []int{0}); err == nil {
		t.Fatal("overlapping range should fail")
	}
	if err := n.RegisterRange(rangeTestBase+3, []int{1}); err != nil {
		t.Fatalf("adjacent range should register: %v", err)
	}
}

func TestRangeMoveBatch(t *testing.T) {
	n := newRangeNet(t, 4, []int{0, 0, 0, 0})
	err := n.MoveRangeBatch(rangeTestBase, []RangeMove{{Index: 1, To: 2}, {Index: 3, To: 1}})
	if err != nil {
		t.Fatalf("MoveRangeBatch: %v", err)
	}
	want := []int{0, 2, 0, 1}
	for i, w := range want {
		if pe, _ := n.Locate(rangeTestBase + EntityID(i)); pe != w {
			t.Fatalf("after move, Locate(%d) = %d, want %d", i, pe, w)
		}
	}
	// Invalid batches fail whole and leave the table untouched.
	if err := n.MoveRangeBatch(rangeTestBase, []RangeMove{{Index: 0, To: 3}, {Index: 9, To: 0}}); err == nil {
		t.Fatal("out-of-range index should fail")
	}
	if err := n.MoveRangeBatch(rangeTestBase, []RangeMove{{Index: 0, To: 99}}); err == nil {
		t.Fatal("out-of-range PE should fail")
	}
	if pe, _ := n.Locate(rangeTestBase); pe != 0 {
		t.Fatalf("failed batch moved an entity: PE %d", pe)
	}
	if err := n.MoveRangeBatch(rangeTestBase+100, nil); err == nil {
		t.Fatal("unknown base should fail")
	}
}

func TestRangeDeregisterBatchTombstones(t *testing.T) {
	n := newRangeNet(t, 2, []int{0, 1, 0, 1})
	// Mix a shard-map entity into the same batch.
	if err := n.Register(42, 1); err != nil {
		t.Fatal(err)
	}
	n.DeregisterBatch([]EntityID{rangeTestBase + 1, rangeTestBase + 2, 42})
	if got := n.NumEntities(); got != 2 {
		t.Fatalf("NumEntities = %d, want 2", got)
	}
	for _, i := range []int{1, 2} {
		if _, err := n.Locate(rangeTestBase + EntityID(i)); err == nil {
			t.Fatalf("tombstoned entity %d still locatable", i)
		}
	}
	if _, err := n.Locate(42); err == nil {
		t.Fatal("shard entity still locatable")
	}
	if pe, err := n.Locate(rangeTestBase); err != nil || pe != 0 {
		t.Fatalf("surviving entity: (%d, %v)", pe, err)
	}
	// Double deregistration must not double-decrement.
	n.DeregisterBatch([]EntityID{rangeTestBase + 1})
	if got := n.NumEntities(); got != 2 {
		t.Fatalf("NumEntities after re-dereg = %d, want 2", got)
	}
	// A tombstoned entity cannot be moved.
	if err := n.MoveRangeBatch(rangeTestBase, []RangeMove{{Index: 1, To: 0}}); err == nil {
		t.Fatal("moving a tombstoned entity should fail")
	}
	n.DeregisterRange(rangeTestBase)
	if _, err := n.Locate(rangeTestBase); err == nil {
		t.Fatal("entity locatable after DeregisterRange")
	}
	if got := n.NumEntities(); got != 0 {
		t.Fatalf("NumEntities after DeregisterRange = %d, want 0", got)
	}
}

func TestRangeSendAndForwardChase(t *testing.T) {
	n := newRangeNet(t, 3, []int{0, 1})
	id := rangeTestBase + 1
	msg := &Message{To: id, From: rangeTestBase, Data: make([]byte, 8), SendTime: 5}
	if err := n.Endpoint(0).Send(msg); err != nil {
		t.Fatalf("Send: %v", err)
	}
	// Delivered to PE 1, where the entity lives.
	got := n.Endpoint(1).Poll()
	if got == nil {
		t.Fatal("message not delivered to owner PE")
	}
	s0 := n.Snapshot()
	sent0, fwd0 := s0.Sent, s0.Forwards
	if sent0 != 1 || fwd0 != 0 {
		t.Fatalf("stats after direct send = (%d, %d), want (1, 0)", sent0, fwd0)
	}
	// The entity migrates while the receiver still holds the message:
	// the receive side chases with Forward.
	if err := n.MoveRangeBatch(rangeTestBase, []RangeMove{{Index: 1, To: 2}}); err != nil {
		t.Fatal(err)
	}
	arrivalBefore := got.Arrival
	if err := n.Endpoint(1).Forward(got); err != nil {
		t.Fatalf("Forward: %v", err)
	}
	chased := n.Endpoint(2).Poll()
	if chased == nil {
		t.Fatal("forwarded message did not reach the new owner")
	}
	if chased.Hops != 2 {
		t.Fatalf("Hops = %d, want 2", chased.Hops)
	}
	if chased.Arrival <= arrivalBefore {
		t.Fatal("forwarding hop did not delay arrival")
	}
	s1 := n.Snapshot()
	sent1, fwd1 := s1.Sent, s1.Forwards
	if sent1 != 1 {
		t.Fatalf("Forward counted as a send: sent = %d, want 1", sent1)
	}
	if fwd1 != 1 {
		t.Fatalf("forwards = %d, want 1", fwd1)
	}
	// Forwarding to a deregistered entity reports the lookup error.
	n.DeregisterBatch([]EntityID{rangeTestBase + 1})
	if err := n.Endpoint(2).Forward(chased); err == nil {
		t.Fatal("Forward to a deregistered entity should fail")
	}
}

// TestRangeConcurrentMoveAndLocate exercises the batched-update
// protocol under the race detector: senders route while an LB step
// rewrites the table.
func TestRangeConcurrentMoveAndLocate(t *testing.T) {
	const entities = 512
	pes := make([]int, entities)
	for i := range pes {
		pes[i] = i % 4
	}
	n := newRangeNet(t, 4, pes)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i = (i + 1) % entities {
				select {
				case <-stop:
					return
				default:
				}
				msg := &Message{To: rangeTestBase + EntityID(i), Data: nil}
				if err := n.Endpoint(g).Send(msg); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(g)
	}
	for batch := 0; batch < 50; batch++ {
		moves := make([]RangeMove, 0, entities/4)
		for i := batch % 4; i < entities; i += 4 {
			moves = append(moves, RangeMove{Index: i, To: (pes[i] + batch) % 4})
		}
		if err := n.MoveRangeBatch(rangeTestBase, moves); err != nil {
			t.Fatalf("MoveRangeBatch: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}
