package core

// IdlePolls returns how many times a PE in RunParallel found no work
// and parked on its wake gate since the machine booted. A machine
// parked with nothing to do accumulates at most a few per wake event;
// a busy-spinning implementation accumulates millions.
func (m *Machine) IdlePolls() (n uint64) {
	m.detect(func(d *detector) { n = d.parks })
	return n
}

// NumHandlers returns how many per-entity handlers RegisterEntity has
// installed and DeregisterEntity not yet removed.
func (m *Machine) NumHandlers() int {
	n := 0
	m.handlers.Range(func(any, any) bool { n++; return true })
	return n
}
