package main

// Result files, the report table, and the comparison of two results.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// resultFile is the one JSON result a set of runs writes.
type resultFile struct {
	Meta      meta             `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
	Spans     []span           `json:"spans,omitempty"`
}

type meta struct {
	Commit     string `json:"commit"`
	Host       string `json:"host"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of every child process
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Reps       int    `json:"repetitions"`
	Scale      string `json:"scale"`
	Started    string `json:"started"`
}

func newMeta(opt options, reps int) meta {
	host, _ := os.Hostname()
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	scale := "full"
	if opt.toy {
		scale = "toy"
	}
	return meta{
		Commit: commit, Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: childProcs(),
		GoVersion: runtime.Version(), Seed: opt.seed, Reps: reps, Scale: scale,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// metricResult is one (workload, metric) row.
type metricResult struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// Floor is an absolute tolerance in the metric's unit (0 = none).
	Floor float64 `json:"floor,omitempty"`
	Exact bool    `json:"exact,omitempty"`
	summary
}

type workloadResult struct {
	Name      string                  `json:"name"`
	Why       string                  `json:"why"`
	Flows     int                     `json:"flows"`
	Steps     int                     `json:"steps"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Failures  []string                `json:"failures,omitempty"`
	EndToEnd  map[string]metricResult `json:"end_to_end"`
	Layer     map[string]float64      `json:"per_layer,omitempty"`
	Budget    []budgetTerm            `json:"budget,omitempty"`
}

// result folds a workload's samples into its report row.
func (run *wlRun) result() workloadResult {
	wr := workloadResult{
		Name: run.w.name, Why: run.w.why,
		Attempted: run.attempted, Failed: len(run.failures), Failures: run.failures,
		EndToEnd: map[string]metricResult{},
	}
	samples := run.endToEndSamples()
	for _, d := range endToEnd {
		wr.EndToEnd[d.name] = metricResult{Unit: d.unit, Better: d.better, Bound: d.bound, Floor: d.floor, summary: summarize(samples[d.name])}
	}
	var vts []float64
	for _, r := range run.reps {
		wr.Flows, wr.Steps = r.Flows, r.Steps
		vts = append(vts, r.VTms)
	}
	wr.EndToEnd[vtMetric.name] = metricResult{Unit: vtMetric.unit, Better: "equal", Exact: true, summary: summarize(vts)}
	share := 0.0
	if run.attempted > 0 {
		share = float64(len(run.failures)) / float64(run.attempted)
	}
	wr.EndToEnd[failedShare.name] = metricResult{Unit: failedShare.unit, Better: failedShare.better, Exact: true,
		summary: summarize([]float64{share})}
	return wr
}

// printTable prints every end-to-end metric of every workload by
// name, with unit, median, spread and n.
func printTable(w io.Writer, rf *resultFile) {
	m := rf.Meta
	fmt.Fprintf(w, "commit %s  host %s  nproc %d  GOMAXPROCS %d  %s  seed %d  repetitions %d  scale %s\n",
		m.Commit, m.Host, m.NProc, m.GOMAXPROCS, m.GoVersion, m.Seed, m.Reps, m.Scale)
	fmt.Fprintf(w, "(n = %d supports no percentile above the median: none is reported)\n\n", m.Reps)
	fmt.Fprintf(w, "%-20s %-22s %-6s %14s %14s %14s %8s %3s\n", "workload", "metric", "unit", "median", "min", "max", "iqr/med", "n")
	names := append(metricNames(endToEnd), vtMetric.name, failedShare.name)
	for _, wr := range rf.Workloads {
		for _, name := range names {
			r := wr.EndToEnd[name]
			fmt.Fprintf(w, "%-20s %-22s %-6s %14.6g %14.6g %14.6g %7.1f%% %3d\n",
				wr.Name, name, r.Unit, r.Median, r.Min, r.Max, 100*r.spread(), r.N)
		}
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "%-20s FAILED: %s\n", wr.Name, f)
		}
	}
}

func metricNames(list []metricDecl) []string {
	names := make([]string, len(list))
	for i, d := range list {
		names[i] = d.name
	}
	return names
}

// printLayers prints the per-layer metrics and the budget of a traced set.
func printLayers(w io.Writer, rf *resultFile) {
	for _, wr := range rf.Workloads {
		if wr.Layer == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s — per-layer metrics\n", wr.Name)
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.name, wr.Layer[d.name], d.unit)
		}
		fmt.Fprintf(w, "  budget (count x probed unit cost, as a share of the run span):\n")
		for _, t := range wr.Budget {
			fmt.Fprintf(w, "    %-34s %12.0f x %10.1f ns = %8.3f s  %5.1f%%\n", t.Name, t.Count, t.UnitNs, t.Seconds, 100*t.Share)
		}
		fmt.Fprintf(w, "    %-34s %51.1f%%\n", "unattributed", 100*(1-wr.Layer["budget.attributed_share"]))
	}
}

func writeResult(path string, rf *resultFile) error {
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// verdict compares one metric of a change (b) against its parent (a)
// by the metric's own bound.
func verdict(a, b metricResult) string {
	if a.N == 0 || b.N == 0 {
		return "unresolved"
	}
	if a.Exact {
		for _, v := range append(append([]float64(nil), a.Values...), b.Values...) {
			if math.Float64bits(v) != math.Float64bits(a.Values[0]) {
				return "regressed"
			}
		}
		return "ok"
	}
	// The tolerance is the bound as a share of the parent's median,
	// or the metric's absolute floor where that is larger.
	tol := math.Max(a.Bound*math.Abs(a.Median), a.Floor)
	worse := b.Median - a.Median
	if a.Better == "higher" {
		worse = -worse
	}
	if math.Max(a.IQR, b.IQR) > tol {
		// Too noisy to call — unless every run of the change reads
		// better than every run of the parent.
		if (a.Better == "higher" && b.Min > a.Max) || (a.Better != "higher" && b.Max < a.Min) {
			return "ok"
		}
		return "unresolved"
	}
	if worse > tol {
		return "regressed"
	}
	return "ok"
}

// diffResults prints one row per (workload, metric) and reports
// whether any pair regressed or stayed unresolved.
func diffResults(w io.Writer, a, b *resultFile) (regressed, unresolved int) {
	if a.Meta.Seed != b.Meta.Seed || a.Meta.Scale != b.Meta.Scale {
		fmt.Fprintf(w, "note: seeds/scales differ (%d/%s vs %d/%s): exact metrics are not comparable\n",
			a.Meta.Seed, a.Meta.Scale, b.Meta.Seed, b.Meta.Scale)
	}
	fmt.Fprintf(w, "%-20s %-22s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "A iqr", "B iqr", "bound", "verdict")
	bw := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		bw[wr.Name] = wr
	}
	for _, wa := range a.Workloads {
		wb, ok := bw[wa.Name]
		if !ok {
			continue
		}
		names := make([]string, 0, len(wa.EndToEnd))
		for n := range wa.EndToEnd {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			ma, mb := wa.EndToEnd[n], wb.EndToEnd[n]
			v := verdict(ma, mb)
			switch v {
			case "regressed":
				regressed++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-20s %-22s %14.6g %14.6g %7.1f%% %7.1f%% %6.1f%%  %s\n",
				wa.Name, n, ma.Median, mb.Median, 100*ma.spread(), 100*mb.spread(), 100*ma.Bound, v)
		}
	}
	return regressed, unresolved
}
