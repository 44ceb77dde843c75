package simclock

// Reset rewinds the clock to zero (between benchmark configurations).
func (c *Clock) Reset() { c.bits.Store(0) }

// Restart moves the start mark to now.
func (s *Stopwatch) Restart() { s.start = s.c.Now() }
