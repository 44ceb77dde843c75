package main

// Child-side measurement: one repetition (or one reference run) of one
// workload happens in a fresh process, and this file is what that
// process records about itself.

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// repResult is what a child process reports on its RESULT line.
type repResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`

	Flows int `json:"flows"` // ranks, zone-ranks or BigSim targets
	Steps int `json:"steps"` // iterations / timesteps
	// FlowSteps is the work the run body completed (Flows x Steps
	// unless the workload counts it itself).
	FlowSteps float64 `json:"flow_steps"`

	SetupS       float64 `json:"setup_s"`
	WallS        float64 `json:"wall_s"`
	PeakRSSMB    float64 `json:"peak_rss_mb"`
	BytesPerFlow float64 `json:"bytes_per_flow"`
	Mallocs      uint64  `json:"mallocs"` // MemStats.Mallocs delta over the run body

	// VTms is the modeled time of the run (max-rank virtual time,
	// modeled makespan or summed prediction); VTBits are its exact bits.
	VTms   float64 `json:"vt_predicted_ms"`
	VTBits uint64  `json:"vt_bits"`

	// Key is the run's equivalence key: a digest of every output the
	// reference path must reproduce bit for bit.
	Key string `json:"key"`

	// Layer holds per-run layer counts and span durations by metric
	// name (exact counts always; span times in traced runs).
	Layer map[string]float64 `json:"layer,omitempty"`
	Spans []span             `json:"spans,omitempty"`

	// Failed lists every check this repetition failed; empty = correct.
	Failed []string `json:"failed,omitempty"`
}

// span is one benchmark-side trace span. Times are nanoseconds since
// the repetition began; Parent is the index of the enclosing span in
// the same repetition (-1 for the root).
type span struct {
	Rep    string `json:"rep"` // one id per repetition (and per shard worker)
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// rec is the measurement context handed to a workload body.
type rec struct {
	res   repResult
	seed  int64
	toy   bool
	trace bool
	// sabotage is the tests' hook: "flipbit" flips one bit of the
	// reported virtual time (a broken equivalence must surface as a
	// failure), "hang" never finishes (the deadline must kill it).
	sabotage string

	t0      time.Time
	open    []int // stack of open span indices
	phase0  time.Time
	paused  time.Duration // benchmark-side work inside the current phase, not charged to it
	m0      runtime.MemStats
	mallocs uint64
	gc0     gcSnapshot
}

func newRec(workload string, seed int64, toy, trace bool) *rec {
	r := &rec{seed: seed, toy: toy, trace: trace, t0: time.Now()}
	r.res.Workload, r.res.Seed = workload, seed
	r.res.Layer = map[string]float64{}
	return r
}

// span runs fn inside a named span (recorded only in traced runs, so
// untraced timings carry no bookkeeping).
func (r *rec) span(name string, fn func() error) error {
	if !r.trace {
		return fn()
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	idx := len(r.res.Spans)
	r.res.Spans = append(r.res.Spans, span{
		Rep:  fmt.Sprintf("%s/%d/%d", r.res.Workload, r.seed, os.Getpid()),
		Name: name, Start: time.Since(r.t0).Nanoseconds(), Parent: parent,
	})
	r.open = append(r.open, idx)
	err := fn()
	r.open = r.open[:len(r.open)-1]
	r.res.Spans[idx].End = time.Since(r.t0).Nanoseconds()
	return err
}

// beginSetup starts the construction phase on a collected heap.
func (r *rec) beginSetup() {
	runtime.GC()
	runtime.ReadMemStats(&r.m0)
	r.phase0, r.paused = time.Now(), 0
}

// endSetup closes the construction phase: set-up time, then (outside
// any timed window) a collection so bytes_per_flow counts live memory
// only — the paper's Table 2 question, how many flows fit. It returns
// the growth in bytes.
func (r *rec) endSetup() float64 {
	r.res.SetupS = (time.Since(r.phase0) - r.paused).Seconds()
	var m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m1)
	growth := liveGrowth(&r.m0, &m1)
	if r.res.Flows > 0 && r.res.BytesPerFlow == 0 { // repro_full has set its own
		r.res.BytesPerFlow = growth / float64(r.res.Flows)
	}
	return growth
}

// liveGrowth is the heap + goroutine-stack growth between two
// post-collection snapshots.
func liveGrowth(a, b *runtime.MemStats) float64 {
	return float64(b.HeapAlloc+b.StackInuse) - float64(a.HeapAlloc+a.StackInuse)
}

// beginRun starts the timed run body.
func (r *rec) beginRun() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.mallocs = m.Mallocs
	r.gc0 = snapshotGC(&m)
	r.phase0, r.paused = time.Now(), 0
}

// pause runs benchmark-side work (a forced collection between two
// sections) without charging its time to the phase being timed.
func (r *rec) pause(fn func()) {
	t0 := time.Now()
	fn()
	r.paused += time.Since(t0)
}

// endRun stops the run clock and records the allocator's and the
// collector's share of it, then the process's high-water mark.
func (r *rec) endRun() {
	r.res.WallS = (time.Since(r.phase0) - r.paused).Seconds()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.res.Mallocs = m.Mallocs - r.mallocs
	r.gc0.delta(&m, r.res.WallS, r.res.Layer)
	r.res.Layer["runtime.mallocs"] = float64(r.res.Mallocs)
	r.res.PeakRSSMB = peakRSSMB()
	r.res.FlowSteps = float64(r.res.Flows) * float64(r.res.Steps)
}

// gcSnapshot holds the collector counters a run is charged against.
type gcSnapshot struct {
	totalAlloc uint64
	pauseNs    uint64
	gcCPU      float64 // seconds of GC CPU so far (GCCPUFraction x elapsed x procs)
}

var processStart = time.Now()

func snapshotGC(m *runtime.MemStats) gcSnapshot {
	el := time.Since(processStart).Seconds()
	return gcSnapshot{
		totalAlloc: m.TotalAlloc, pauseNs: m.PauseTotalNs,
		gcCPU: m.GCCPUFraction * el * float64(runtime.GOMAXPROCS(0)),
	}
}

func (g gcSnapshot) delta(m *runtime.MemStats, wallS float64, out map[string]float64) {
	now := snapshotGC(m)
	out["runtime.alloc_mb"] = float64(now.totalAlloc-g.totalAlloc) / (1 << 20)
	out["runtime.gc_pause_ms"] = float64(now.pauseNs-g.pauseNs) / 1e6
	share := 0.0
	if wallS > 0 {
		share = (now.gcCPU - g.gcCPU) / (wallS * float64(runtime.GOMAXPROCS(0)))
	}
	out["runtime.gc_cpu_share"] = math.Max(share, 0)
}

// setVT records the run's modeled time (nanoseconds in, ms reported).
func (r *rec) setVT(ns float64) {
	if r.sabotage == "flipbit" {
		ns = math.Float64frombits(math.Float64bits(ns) ^ 1)
	}
	r.res.VTms = ns / 1e6
	r.res.VTBits = math.Float64bits(ns)
}

func (r *rec) fail(format string, a ...any) {
	r.res.Failed = append(r.res.Failed, fmt.Sprintf(format, a...))
}

// digest accumulates an order-sensitive FNV-1a hash of exact values.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h = (d.h ^ (v >> (8 * i) & 0xff)) * 1099511628211
	}
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) String() string { return strconv.FormatUint(d.h, 16) }

// peakRSSMB reads this process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
