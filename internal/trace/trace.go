// Package trace is a Projections-style event log for the simulated
// machine: context switches, thread lifecycle and migrations are
// recorded with virtual timestamps, and analysis helpers derive
// per-PE utilization and event counts — the instrumentation a
// measurement-based load balancer (§4.5) and a performance analyst
// both read.
package trace

import (
	"fmt"
	"sort"
	"sync"
)

// Kind tags an event.
type Kind int

// Event kinds.
const (
	EvCreate Kind = iota
	EvSwitchIn
	EvSwitchOut
	EvExit
	EvMigrateOut
	EvMigrateIn
)

func (k Kind) String() string {
	switch k {
	case EvCreate:
		return "create"
	case EvSwitchIn:
		return "switch-in"
	case EvSwitchOut:
		return "switch-out"
	case EvExit:
		return "exit"
	case EvMigrateOut:
		return "migrate-out"
	case EvMigrateIn:
		return "migrate-in"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one timeline entry.
type Event struct {
	TimeNs float64
	PE     int
	Kind   Kind
	Thread uint64
	Arg    uint64 // kind-specific: destination PE, bytes, ...
}

// Log collects events from all PEs of one machine. The zero value is
// a disabled log; New returns an enabled one.
type Log struct {
	mu      sync.Mutex
	events  []Event
	enabled bool
}

// New returns an enabled log.
func New() *Log { return &Log{enabled: true} }

// Record appends an event (no-op on a nil or disabled log).
func (l *Log) Record(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.enabled {
		l.events = append(l.events, e)
	}
	l.mu.Unlock()
}

// Events returns a snapshot sorted by (PE, time, insertion order).
func (l *Log) Events() []Event {
	l.mu.Lock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	l.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].PE != out[j].PE {
			return out[i].PE < out[j].PE
		}
		return out[i].TimeNs < out[j].TimeNs
	})
	return out
}

// Counts tallies events by kind.
func (l *Log) Counts() map[Kind]int {
	out := make(map[Kind]int)
	l.mu.Lock()
	for _, e := range l.events {
		out[e.Kind]++
	}
	l.mu.Unlock()
	return out
}

// PEStats summarizes one PE's timeline.
type PEStats struct {
	PE       int
	BusyNs   float64 // time with a thread switched in
	SpanNs   float64 // last event time minus first
	Switches int
}

// Utilization returns BusyNs/SpanNs per PE (1.0 = always running a
// thread). PEs without events report zero-valued stats.
func Utilization(l *Log, numPEs int) []PEStats {
	stats := make([]PEStats, numPEs)
	for pe := range stats {
		stats[pe].PE = pe
	}
	var inAt = make(map[int]float64) // pe -> switch-in time
	var first = make(map[int]float64)
	var last = make(map[int]float64)
	for _, e := range l.Events() {
		if e.PE < 0 || e.PE >= numPEs {
			continue
		}
		if _, ok := first[e.PE]; !ok {
			first[e.PE] = e.TimeNs
		}
		last[e.PE] = e.TimeNs
		switch e.Kind {
		case EvSwitchIn:
			inAt[e.PE] = e.TimeNs
			stats[e.PE].Switches++
		case EvSwitchOut:
			if t, ok := inAt[e.PE]; ok {
				stats[e.PE].BusyNs += e.TimeNs - t
				delete(inAt, e.PE)
			}
		}
	}
	for pe := range stats {
		stats[pe].SpanNs = last[pe] - first[pe]
	}
	return stats
}

// Fraction returns busy/span, or 0 for an empty span.
func (s PEStats) Fraction() float64 {
	if s.SpanNs <= 0 {
		return 0
	}
	return s.BusyNs / s.SpanNs
}
