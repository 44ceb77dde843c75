package comm

import (
	"sync"
	"testing"
)

func TestLatencyModel(t *testing.T) {
	m := LatencyModel{Alpha: 100, BetaPerByte: 2}
	if got := m.Cost(10); got != 120 {
		t.Errorf("Cost(10) = %g, want 120", got)
	}
}

func TestRegisterLocateDeregister(t *testing.T) {
	n := NewNetwork(4, DefaultLatency)
	if err := n.Register(7, 2); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(7, 3); err == nil {
		t.Error("double Register accepted")
	}
	if err := n.Register(8, 9); err == nil {
		t.Error("out-of-range PE accepted")
	}
	pe, err := n.Locate(7)
	if err != nil || pe != 2 {
		t.Errorf("Locate = %d/%v", pe, err)
	}
	n.Deregister(7)
	if _, err := n.Locate(7); err == nil {
		t.Error("Locate after Deregister should error")
	}
}

func TestSendDeliver(t *testing.T) {
	n := NewNetwork(2, LatencyModel{Alpha: 1000, BetaPerByte: 1})
	if err := n.Register(1, 1); err != nil {
		t.Fatal(err)
	}
	msg := &Message{To: 1, From: 99, Tag: 5, Data: []byte("abc"), SendTime: 500}
	if err := n.Endpoint(0).Send(msg); err != nil {
		t.Fatal(err)
	}
	got := n.Endpoint(1).Poll()
	if got == nil {
		t.Fatal("no message delivered")
	}
	if got.Tag != 5 || string(got.Data) != "abc" {
		t.Errorf("message mangled: %+v", got)
	}
	if got.Hops != 1 {
		t.Errorf("Hops = %d, want 1", got.Hops)
	}
	if want := 500 + 1000 + 3.0; got.Arrival != want {
		t.Errorf("Arrival = %g, want %g", got.Arrival, want)
	}
	if n.Endpoint(1).Poll() != nil {
		t.Error("phantom second message")
	}
}

func TestSendToUnknownEntity(t *testing.T) {
	n := NewNetwork(2, DefaultLatency)
	if err := n.Endpoint(0).Send(&Message{To: 42}); err == nil {
		t.Error("send to unregistered entity should error")
	}
	if err := n.Endpoint(0).Send(nil); err == nil {
		t.Error("nil message accepted")
	}
}

func TestMigrationForwarding(t *testing.T) {
	n := NewNetwork(3, LatencyModel{Alpha: 100})
	if err := n.Register(1, 1); err != nil {
		t.Fatal(err)
	}
	// Prime PE 0's cache with a first send.
	if err := n.Endpoint(0).Send(&Message{To: 1}); err != nil {
		t.Fatal(err)
	}
	if m := n.Endpoint(1).Poll(); m == nil || m.Hops != 1 {
		t.Fatalf("priming message: %+v", m)
	}
	// Entity migrates 1 → 2.
	if err := n.MigrateEntity(1, 2); err != nil {
		t.Fatal(err)
	}
	// Stale cache at PE 0: the next message takes 2 hops via PE 1.
	m2 := &Message{To: 1, SendTime: 0}
	if err := n.Endpoint(0).Send(m2); err != nil {
		t.Fatal(err)
	}
	got := n.Endpoint(2).Poll()
	if got.Hops != 2 {
		t.Errorf("post-migration Hops = %d, want 2 (forwarded)", got.Hops)
	}
	if got.Arrival != 200 {
		t.Errorf("forwarded Arrival = %g, want 200 (two hops)", got.Arrival)
	}
	if n.Endpoint(1).Pending() != 0 {
		t.Error("forwarding left a copy at the old PE")
	}
	// Cache corrected: third message goes direct.
	m3 := &Message{To: 1}
	if err := n.Endpoint(0).Send(m3); err != nil {
		t.Fatal(err)
	}
	if got := n.Endpoint(2).Poll(); got.Hops != 1 {
		t.Errorf("cache not corrected: Hops = %d, want 1", got.Hops)
	}
	s := n.Snapshot()
	sent, forwards := s.Sent, s.Forwards
	if sent != 3 || forwards != 1 {
		t.Errorf("stats = %d sent, %d forwards; want 3, 1", sent, forwards)
	}
}

func TestMigrateEntityErrors(t *testing.T) {
	n := NewNetwork(2, DefaultLatency)
	if err := n.MigrateEntity(5, 1); err == nil {
		t.Error("migrating unregistered entity accepted")
	}
	if err := n.Register(5, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.MigrateEntity(5, 7); err == nil {
		t.Error("migrating to bad PE accepted")
	}
}

func TestWakeHook(t *testing.T) {
	n := NewNetwork(2, DefaultLatency)
	if err := n.Register(1, 1); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := 0
	n.Endpoint(1).SetWakeHook(func() {
		mu.Lock()
		calls++
		mu.Unlock()
	})
	for i := 0; i < 3; i++ {
		if err := n.Endpoint(0).Send(&Message{To: 1}); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 3 {
		t.Errorf("hook calls = %d, want 3", calls)
	}
}

func TestStatsBytes(t *testing.T) {
	n := NewNetwork(2, DefaultLatency)
	if err := n.Register(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.Endpoint(0).Send(&Message{To: 1, Data: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	bytes := n.Snapshot().Bytes
	if bytes != 100 {
		t.Errorf("bytes = %d, want 100", bytes)
	}
}

// TestForwardingChainBounded: however many times an entity migrated
// while a sender's cache was stale, delivery takes at most two hops
// (wrong PE → authoritative location), and the cache self-corrects.
func TestForwardingChainBounded(t *testing.T) {
	n := NewNetwork(5, LatencyModel{Alpha: 10})
	if err := n.Register(1, 0); err != nil {
		t.Fatal(err)
	}
	// Prime PE 4's cache.
	if err := n.Endpoint(4).Send(&Message{To: 1}); err != nil {
		t.Fatal(err)
	}
	n.Endpoint(0).Poll()
	// The entity hops 0→1→2→3 with no traffic in between.
	for _, pe := range []int{1, 2, 3} {
		if err := n.MigrateEntity(1, pe); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Endpoint(4).Send(&Message{To: 1}); err != nil {
		t.Fatal(err)
	}
	m := n.Endpoint(3).Poll()
	if m.Hops != 2 {
		t.Errorf("delivery after 3 silent migrations took %d hops, want 2", m.Hops)
	}
	if err := n.Endpoint(4).Send(&Message{To: 1}); err != nil {
		t.Fatal(err)
	}
	if m := n.Endpoint(3).Poll(); m.Hops != 1 {
		t.Errorf("cache not corrected: %d hops", m.Hops)
	}
	s := n.Snapshot()
	sent, forwards := s.Sent, s.Forwards
	if sent != 3 || forwards != 1 {
		t.Errorf("stats = %d sent, %d forwards; want 3, 1", sent, forwards)
	}
}

// TestStatsCountResends: re-sending a message object that already
// carries hops (a retry) is one more send of its payload. The old
// implementation gated sent/bytes on msg.Hops == 1 — computed after
// incrementing Hops — so every retry silently vanished from the
// counters.
func TestStatsCountResends(t *testing.T) {
	n := NewNetwork(2, LatencyModel{})
	if err := n.Register(1, 1); err != nil {
		t.Fatal(err)
	}
	msg := &Message{To: 1, Data: make([]byte, 10)}
	for i := 0; i < 3; i++ {
		if err := n.Endpoint(0).Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	snap := n.Snapshot()
	sent, bytes := snap.Sent, snap.Bytes
	if sent != 3 || bytes != 30 {
		t.Errorf("stats = %d sent, %d bytes; want 3 sent, 30 bytes", sent, bytes)
	}
}

// TestInOrderPerSenderPair: messages from one sender to one entity
// arrive in send order, even across a migration mid-stream.
func TestInOrderPerSenderPair(t *testing.T) {
	n := NewNetwork(3, LatencyModel{})
	if err := n.Register(1, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := n.Endpoint(0).Send(&Message{To: 1, Tag: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if m := n.Endpoint(1).Poll(); m.Tag != i {
			t.Fatalf("out of order: got %d at position %d", m.Tag, i)
		}
	}
}

func TestConcurrentSenders(t *testing.T) {
	n := NewNetwork(4, DefaultLatency)
	if err := n.Register(1, 3); err != nil {
		t.Fatal(err)
	}
	const per = 50
	var wg sync.WaitGroup
	for pe := 0; pe < 3; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := n.Endpoint(pe).Send(&Message{To: 1, Tag: pe}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(pe)
	}
	wg.Wait()
	if got := n.Endpoint(3).Pending(); got != 3*per {
		t.Errorf("delivered %d, want %d", got, 3*per)
	}
}

func TestEndpointPE(t *testing.T) {
	n := NewNetwork(3, DefaultLatency)
	for pe := 0; pe < 3; pe++ {
		if n.Endpoint(pe).PE() != pe {
			t.Errorf("endpoint %d reports PE %d", pe, n.Endpoint(pe).PE())
		}
	}
}
