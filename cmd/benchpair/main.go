// Command benchpair gathers the evidence ROADMAP asks of every
// performance claim: alternating parent/change pairs of one
// BENCHMARK.json workload, or with -w all of every workload in turn —
// one table, so "no metric worse anywhere" is one command. The host
// clock drifts 20–30 % for minutes at a time, so only runs taken back
// to back, with the order alternating, compare fairly.
//
//	go run ./cmd/benchpair -w btmz_ult_lb -n 10 [-base HEAD]
//	go run ./cmd/benchpair -w all -n 10
//
// The change is the working tree; the parent is -base, exported with
// git archive into a temporary directory that is removed on exit. Both
// sides run `bash bench/run.sh --workload W --seed i --seconds 10
// --trace 0` (pair i uses seed i on both). For every end-to-end metric
// of BENCHMARK.json it prints each side's median and quartiles, the
// change of the median, and in how many pairs the change was better.
// Run it from the repository root.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// result is the last line bench/run.sh prints.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	workload := flag.String("w", "", "workload name from BENCHMARK.json, or all")
	pairs := flag.Int("n", 10, "parent/change pairs")
	base := flag.String("base", "HEAD", "parent revision")
	flag.Parse()
	if err := run(*workload, *pairs, *base); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(workload string, pairs int, base string) error {
	if workload == "" || pairs < 1 {
		return fmt.Errorf("usage: benchpair -w WORKLOAD [-n PAIRS] [-base REV]")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDecl `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	workloads := []string{workload}
	if workload == "all" {
		workloads = workloads[:0]
		for _, w := range decl.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	parentDir, err := os.MkdirTemp("", "benchpair-parent-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(parentDir)
	export := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", base, parentDir)
	export.Stderr = os.Stderr
	if err := export.Run(); err != nil {
		return fmt.Errorf("exporting %s: %w", base, err)
	}

	fmt.Printf("%d alternating pairs per workload, parent %s vs working tree\n", pairs, base)
	fmt.Printf("%-18s %-30s %12s %25s %12s %25s %8s %6s\n", "workload", "metric", "parent med", "[q1, q3]", "change med", "[q1, q3]", "delta", "wins")
	for _, w := range workloads {
		values, err := runPairs([2]string{parentDir, "."}, w, pairs)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		for _, d := range decl.EndToEnd {
			v := values[d.Name]
			if v == nil {
				continue
			}
			wins := 0
			for i := range v[0] {
				if (d.Better == "lower") == (v[1][i] < v[0][i]) && v[1][i] != v[0][i] {
					wins++
				}
			}
			pm, p1, p3 := summarize(v[0])
			cm, c1, c3 := summarize(v[1])
			fmt.Printf("%-18s %-30s %12s %25s %12s %25s %+7.1f%% %3d/%d\n", w, d.Name+" ("+d.Unit+")",
				num(pm), "["+num(p1)+", "+num(p3)+"]", num(cm), "["+num(c1)+", "+num(c3)+"]",
				100*(cm-pm)/pm, wins, pairs)
		}
	}
	return nil
}

// runPairs runs workload pairs times on each side (0 = parent, 1 =
// change), alternating which goes first, and returns every metric's
// values per side.
func runPairs(sides [2]string, workload string, pairs int) (map[string]*[2][]float64, error) {
	values := map[string]*[2][]float64{}
	for i := 1; i <= pairs; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2 // odd pairs run the change first, even pairs the parent
			res, err := runOnce(sides[side], workload, i)
			if err != nil {
				return nil, fmt.Errorf("pair %d, %s: %w", i, sideName(side), err)
			}
			for name, m := range res.Metrics {
				if values[name] == nil {
					values[name] = new([2][]float64)
				}
				values[name][side] = append(values[name][side], m.Value)
			}
			fmt.Fprintf(os.Stderr, "%s pair %d/%d %-6s wall_s=%.3f\n", workload, i, pairs, sideName(side), res.Metrics["wall_s"].Value)
		}
	}
	return values, nil
}

func sideName(side int) string { return [2]string{"parent", "change"}[side] }

// runOnce runs the contract command in dir and decodes its last line.
func runOnce(dir, workload string, seed int) (*result, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", "10", "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("run was not correct (correct=%v, failed=%d)", res.Correct, res.Failed)
	}
	return &res, nil
}

// summarize returns the median and the quartiles by the rule of
// Python's statistics.quantiles(n=4) (exclusive), which bench/ and the
// acceptance driver use.
func summarize(values []float64) (median, q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(math.Floor(pos)), 1), n-1)
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(2), at(1), at(3)
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }
