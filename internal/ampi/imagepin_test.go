package ampi

import (
	"fmt"
	"hash/fnv"
	"testing"

	"migflow/internal/pup"
)

// digest is the FNV-1a 64-bit hash of b, as 16 hex digits.
func digest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestImageDigests pins the record format: the checkpoint images of the
// event Jacobi ring at every gate, blocking and overlapped (an
// overlapped gate after a reducing iteration holds the pipelined
// Iallreduce active), and of all 60 specMix gate programs, hash to the
// constants below, and so does the record of a rank parked inside a
// Waitall, its requests in a specMix Local, an Iallreduce outstanding
// and a message buffered. Refactoring how a rank holds its resume point
// must leave these bytes as they are; a deliberate format change
// updates the constants in the same edit and says so.
func TestImageDigests(t *testing.T) {
	want := map[string]string{
		"jacobi/overlap=false/gate1": "5009de9ad818026f",
		"jacobi/overlap=false/gate2": "f75a38cb8b13a4eb",
		"jacobi/overlap=false/gate3": "6882ea38b8ee486f",
		"jacobi/overlap=false/gate4": "2ef45f9686b91bd9",
		"jacobi/overlap=false/gate5": "2543b36c4ce9ae12",
		"jacobi/overlap=false/gate6": "74e30c9a34b1392c",
		"jacobi/overlap=true/gate1":  "29a7b440508bbcd0",
		"jacobi/overlap=true/gate2":  "417d23ea69d5b90b",
		"jacobi/overlap=true/gate3":  "9cf65e9160347d8c",
		"jacobi/overlap=true/gate4":  "119842effb9bd306",
		"jacobi/overlap=true/gate5":  "e77c1947fc168109",
		"jacobi/overlap=true/gate6":  "3201faae6dfbc8c0",
		"mix/all":                    "fb46b364b0dc92e2",
		"waitall record":             "f27b76694aeb7a61",
	}
	got := map[string]string{}
	var mix []byte
	for _, c := range ckptCases() {
		image, _, _ := ckptRun(t, c, 2)
		if _, ok := want[c.name]; ok {
			got[c.name] = digest(image)
		} else {
			mix = append(mix, image...)
		}
	}
	got["mix/all"] = digest(mix)
	got["waitall record"] = digest(waitallRecord(t))
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: image digest %s, want %s", name, got[name], w)
		}
	}
}

// waitallRecord runs two event ranks until rank 0 is parked inside a
// Waitall at its second request, with an Iallreduce started and a
// message buffered beside the one it waits for, and returns rank 0's
// record as a move would pack it.
func waitallRecord(t *testing.T) []byte {
	t.Helper()
	reqs := func(pc *PC) []*Req { return pc.Local.(*mixState).reqs }
	start, wait := Iallreduce("sum", func(pc *PC) float64 { return pc.Local.(*mixState).x }, nil)
	prog := Seq(
		Do(func(pc *PC) {
			st := &mixState{x: float64(pc.Rank()) + 0.5}
			pc.Local = st
			if pc.Rank() == 0 {
				st.reqs = []*Req{pc.Irecv(1, 3), nil, pc.Isend(1, 2, []byte("out")), pc.Irecv(1, 4)}
				return
			}
			pc.Work(250)
			pc.Send(0, 3, []byte("three"))
			pc.Send(0, 5, []byte("five, buffered"))
		}),
		start,
		Waitall(reqs),
		wait,
	)
	j, err := NewProgram(newMachine(t, 2, nil), 2, Options{Mode: ModeEvent, MsgOverheadNs: 175, LocalPUP: mixLocalPUP}, prog)
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
	if j.Done() {
		t.Fatal("the Waitall program finished; rank 0 should be parked at its second receive")
	}
	s := &j.store()[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pc.parkedIn().(waitallProc); !ok {
		t.Fatalf("rank 0 is parked in %T, not a Waitall", s.pc.parkedIn())
	}
	p := pup.NewGrowPacker()
	if _, err := j.ev.packLocked(p, s, 0, 0); err != nil {
		t.Fatal(err)
	}
	return p.PackedBytes()
}
