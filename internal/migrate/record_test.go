package migrate

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"migflow/internal/converse"
	"migflow/internal/pup"
	"migflow/internal/vmem"
)

// fakeRecord is a minimal Record: a few scalar fields plus a byte
// payload, the same shape as an event-mode continuation record.
type fakeRecord struct {
	mu      sync.Mutex
	id      uint64
	vt      float64
	hops    int
	payload []byte

	extracts int
	installs int
	failOn   string // "extract" or "install" forces an error
}

func (r *fakeRecord) ID() uint64 { return r.id }

func (r *fakeRecord) Extract(p *pup.PUPer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failOn == "extract" {
		return errors.New("forced extract failure")
	}
	r.extracts++
	if err := p.Uint64(&r.id); err != nil {
		return err
	}
	if err := p.Float64(&r.vt); err != nil {
		return err
	}
	if err := p.Int(&r.hops); err != nil {
		return err
	}
	return p.Bytes(&r.payload)
}

func (r *fakeRecord) Install(data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failOn == "install" {
		return errors.New("forced install failure")
	}
	r.installs++
	// Scramble first so the test proves the bytes round-trip.
	r.vt, r.hops, r.payload = -1, -1, nil
	u := pup.NewUnpacker(data)
	if err := u.Uint64(&r.id); err != nil {
		return err
	}
	if err := u.Float64(&r.vt); err != nil {
		return err
	}
	if err := u.Int(&r.hops); err != nil {
		return err
	}
	return u.Bytes(&r.payload)
}

// TestBulkMigrateRecords sends a mixed batch — threads interleaved
// with records — through BulkMigrate and checks that record ops skip
// eviction/adoption entirely while still reporting wire bytes, and
// that a record's state survives the Extract → Install round trip.
func TestBulkMigrateRecords(t *testing.T) {
	const nr = 8
	m := newMachine(t, 4, nil)
	// One real thread to interleave with the records.
	var fail string
	th, err := m.pes[0].Sched.CthCreate(converse.ThreadOptions{
		Strategy:  Isomalloc{},
		StackSize: 4 * vmem.PageSize,
	}, func(c *converse.Ctx) {
		c.Suspend()
	})
	if err != nil {
		t.Fatal(err)
	}
	m.pes[0].Sched.Start(th)
	m.runAll()

	recs := make([]*fakeRecord, nr)
	ops := make([]Op, 0, nr+1)
	for i := range recs {
		recs[i] = &fakeRecord{
			id:      uint64(1000 + i),
			vt:      float64(i) * 1.5,
			hops:    i,
			payload: []byte(fmt.Sprintf("continuation-%d", i)),
		}
		ops = append(ops, Op{R: recs[i], Src: m.pes[i%2], Dst: m.pes[2+i%2]})
	}
	ops = append(ops, Op{T: th, Src: m.pes[0], Dst: m.pes[3]})

	results := BulkMigrate(ops, nil, 3)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("op %d: %v", i, res.Err)
		}
		if res.Bytes <= 0 {
			t.Errorf("op %d reports %d bytes", i, res.Bytes)
		}
	}
	for i, r := range recs {
		if r.extracts != 1 || r.installs != 1 {
			t.Errorf("record %d: %d extracts, %d installs", i, r.extracts, r.installs)
		}
		if r.id != uint64(1000+i) || r.vt != float64(i)*1.5 || r.hops != i {
			t.Errorf("record %d scalars did not round-trip: id=%d vt=%g hops=%d", i, r.id, r.vt, r.hops)
		}
		if string(r.payload) != fmt.Sprintf("continuation-%d", i) {
			t.Errorf("record %d payload = %q", i, r.payload)
		}
		// A continuation record is a few hundred bytes, not a stack image.
		if results[i].Bytes > 512 {
			t.Errorf("record %d image is %d bytes — record path should not carry pages", i, results[i].Bytes)
		}
		if results[i].Suspended {
			t.Errorf("record %d reported suspended", i)
		}
	}
	if th.Scheduler() != m.pes[3].Sched {
		t.Error("interleaved thread did not move")
	}
	th.Awaken()
	m.runAll()
	if fail != "" {
		t.Error(fail)
	}
}

// TestBulkMigrateRecordErrors checks failure isolation: a record that
// fails to extract or install gets its own Result.Err and does not
// disturb the rest of the batch.
func TestBulkMigrateRecordErrors(t *testing.T) {
	m := newMachine(t, 2, nil)
	good := &fakeRecord{id: 1, payload: []byte("ok")}
	badX := &fakeRecord{id: 2, failOn: "extract"}
	badI := &fakeRecord{id: 3, failOn: "install"}
	ops := []Op{
		{R: badX, Src: m.pes[0], Dst: m.pes[1]},
		{R: good, Src: m.pes[0], Dst: m.pes[1]},
		{R: badI, Src: m.pes[0], Dst: m.pes[1]},
	}
	results := BulkMigrate(ops, nil, 1)
	if results[0].Err == nil {
		t.Error("extract failure not reported")
	}
	if results[1].Err != nil {
		t.Errorf("good record failed: %v", results[1].Err)
	}
	if results[2].Err == nil {
		t.Error("install failure not reported")
	}
	if good.extracts != 1 || good.installs != 1 {
		t.Errorf("good record: %d extracts, %d installs", good.extracts, good.installs)
	}
}
