package core

// detector is RunParallel's quiescence detector: one method per event,
// no channel, goroutine or lock. Machine is its adapter: it calls each
// method under detMu and owns the channel each local PE parks on. A PE
// arms its gate before it looks for work and parks when it finds none;
// it counts as parked until the wake that releases it.
type detector struct {
	armed, parked []bool // per local PE; a parked PE is armed
	nparked       int
	wakes         uint64 // parked PEs released so far
	batches       int    // MigrateMany batches in flight
	ended         bool   // the run's end callback answered true
	parks         uint64 // parks so far, which Machine.IdlePolls reads
}

// start begins a run; the last one released every gate as it ended.
func (d *detector) start() { d.ended = false }

// arm is PE i about to look for work; false once the run has ended.
func (d *detector) arm(i int) bool {
	d.armed[i] = !d.ended
	return !d.ended
}

// park is PE i finding no work: whether it is the last PE to park, and
// the ticket its scan presents. A PE released since it armed does not
// park.
func (d *detector) park(i int) (last bool, ticket uint64) {
	if !d.armed[i] {
		return false, 0
	}
	d.parked[i] = true
	d.nparked++
	d.parks++
	return d.nparked == len(d.parked), d.wakes
}

// wake is work that may have reached PE i: true if its gate was armed,
// and the adapter must release the PE's channel.
func (d *detector) wake(i int) bool {
	if !d.armed[i] {
		return false
	}
	d.armed[i] = false
	if d.parked[i] {
		d.parked[i] = false
		d.nparked--
		d.wakes++
	}
	return true
}

func (d *detector) batchBegin() { d.batches++ }
func (d *detector) batchEnd()   { d.batches-- }

// scan is the verdict on the last parked PE's reading of every local
// inbox and ready queue, taken after park gave it ticket: quiet if the
// reading was idle, no PE was released since (so all stayed parked
// while it was read) and no batch, whose flows sit in no queue, runs.
func (d *detector) scan(ticket uint64, idle bool) bool {
	return idle && d.wakes == ticket && d.batches == 0
}

func (d *detector) end() { d.ended = true }
