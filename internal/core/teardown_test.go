package core_test

import (
	"testing"

	"migflow/internal/ampi"
	"migflow/internal/core"
)

// TestULTJobsLeaveNoEntities: a finished ULT job removes every rank's
// directory entry and deliver handler, so two jobs run one after the
// other on one machine leave the directory and the handler map as they
// found them.
func TestULTJobsLeaveNoEntities(t *testing.T) {
	m, err := core.NewMachine(core.Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	entities, handlers := m.Network().NumEntities(), m.NumHandlers()
	for i, run := range []func(*ampi.Job){(*ampi.Job).Run, (*ampi.Job).RunParallel} {
		const ranks = 8
		ring := ampi.Seq(
			ampi.Do(func(pc *ampi.PC) { pc.Send((pc.Rank()+1)%ranks, 0, []byte{1}) }),
			ampi.Recv(ampi.AnySource, 0, func(*ampi.PC, []byte, int) {}),
			ampi.Barrier(),
		)
		job, err := ampi.NewProgram(m, ranks, ampi.Options{Mode: ampi.ModeULT}, ring)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.NumHandlers(); got != handlers+ranks {
			t.Fatalf("job %d: %d handlers while running, want %d", i, got, handlers+ranks)
		}
		run(job)
		if !job.Done() || job.Err() != nil {
			t.Fatalf("job %d: done %v, err %v", i, job.Done(), job.Err())
		}
		if got := m.Network().NumEntities(); got != entities {
			t.Errorf("job %d: the directory holds %d entities after the job, want %d", i, got, entities)
		}
		if got := m.NumHandlers(); got != handlers {
			t.Errorf("job %d: %d handlers after the job, want %d", i, got, handlers)
		}
	}
}
