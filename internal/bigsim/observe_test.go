package bigsim

// Mode returns the resolved execution backend ("ult" or "event").
func (s *Simulator) Mode() string { return s.cfg.Mode }
