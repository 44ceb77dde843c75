package comm

// BufferedPayloads reports how many messages wait in this endpoint's
// coalescing buffers (diagnostics and tests).
func (e *Endpoint) BufferedPayloads() int {
	e.aggMu.Lock()
	defer e.aggMu.Unlock()
	if e.agg == nil {
		return 0
	}
	n := 0
	for i := range e.agg.buckets {
		n += len(e.agg.buckets[i].msgs)
	}
	return n
}

// PE returns the endpoint's processor index.
func (e *Endpoint) PE() int { return e.pe }
