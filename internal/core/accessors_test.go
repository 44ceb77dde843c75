package core

import (
	"testing"

	"migflow/internal/comm"
)

// TestDeregisterEntity: an entity that leaves the directory
// (Network.Deregister) takes no more sends and can register again.
func TestDeregisterEntity(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	handled := 0
	if err := m.RegisterEntity(42, 1, func(int, *comm.Message) { handled++ }); err != nil {
		t.Fatal(err)
	}
	if err := m.Network().Endpoint(0).Send(&comm.Message{To: 42}); err != nil {
		t.Fatal(err)
	}
	m.Pump(1)
	if handled != 1 {
		t.Fatalf("handled = %d", handled)
	}
	m.Network().Deregister(42)
	if err := m.Network().Endpoint(0).Send(&comm.Message{To: 42}); err == nil {
		t.Error("send to deregistered entity accepted")
	}
	if _, err := m.Network().Locate(42); err == nil {
		t.Error("entity still in the directory")
	}
	// Double-register after deregister works.
	if err := m.RegisterEntity(42, 0, func(int, *comm.Message) {}); err != nil {
		t.Errorf("re-register: %v", err)
	}
}

// TestPumpHandlerResolution pins the order Pump resolves a handler in:
// a pinned id inside a range goes to the range handler, a pinned id
// outside every range still reaches the handler RegisterEntity gave
// it, an unpinned id's own handler beats a range covering it, and
// anything else is dropped.
func TestPumpHandlerResolution(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	handler := func(name string) func(int, *comm.Message) {
		return func(int, *comm.Message) { got = append(got, name) }
	}
	net := m.Network()

	base := net.AllocFlowIDs(4)
	if err := net.RegisterRange(base, []int{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterEntityRange(base, base+3, handler("pinned-range")); err != nil {
		t.Fatal(err)
	}
	lone := net.AllocFlowIDs(1)
	if err := m.RegisterEntity(lone, 1, handler("pinned-own")); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterEntityRange(100, 199, handler("plain-range")); err != nil {
		t.Fatal(err)
	}
	if err := net.Register(150, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterEntity(151, 1, handler("plain-own")); err != nil {
		t.Fatal(err)
	}
	if err := net.Register(7, 1); err != nil {
		t.Fatal(err)
	}
	for _, id := range []comm.EntityID{base + 2, lone, 150, 151, 7} {
		if err := net.Endpoint(0).Send(&comm.Message{To: id}); err != nil {
			t.Fatal(err)
		}
	}
	m.Pump(1)
	want := []string{"pinned-range", "pinned-own", "plain-range", "plain-own"}
	if len(got) != len(want) {
		t.Fatalf("handlers ran: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("handlers ran: %v, want %v", got, want)
		}
	}
}
