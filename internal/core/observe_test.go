package core

// IdlePolls returns how many times a PE in RunParallel found no work
// and parked on its wake gate since the machine booted. A machine
// parked with nothing to do accumulates at most a few per wake event;
// a busy-spinning implementation accumulates millions.
func (m *Machine) IdlePolls() uint64 { return m.idlePolls.Load() }
