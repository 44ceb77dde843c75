package main

// The per-layer view of one workload: the traced repetition's exact
// counters and spans, the probes' unit costs, and the budget that
// multiplies one by the other.

import (
	"fmt"
	"os"
)

// budgetTerm is one line of a workload's budget: count operations of
// a probed unit cost, as a share of the run span.
type budgetTerm struct {
	Name    string  `json:"name"`
	Count   float64 `json:"count"`
	UnitNs  float64 `json:"unit_ns"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// runProbes runs the layer probes in a fresh child and returns their
// metrics by name.
func runProbes(opt options) map[string]float64 {
	args := []string{"-phase", "probe", "-workload", "probes"}
	if opt.toy {
		args = append(args, "-toy")
	}
	res, err := spawn(opt, args...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: layer probes failed: %v\n", err)
		return map[string]float64{}
	}
	for _, f := range res.Failed {
		fmt.Fprintf(os.Stderr, "bench: layer probe failed: %s\n", f)
	}
	return res.Layer
}

// layers assembles every per-layer metric for the workload: run
// metrics from the traced repetition (0 where the workload never
// touches the layer), probe metrics, the budget and the tracing
// overhead.
func (run *wlRun) layers(probes map[string]float64) (map[string]float64, []budgetTerm) {
	layer := make(map[string]float64, len(perLayer))
	for k, v := range probes {
		layer[k] = v
	}
	t := run.traced
	if t == nil {
		return layer, nil
	}
	for k, v := range t.Layer {
		layer[k] = v
	}
	layer[vtMetric.name] = t.VTms
	if len(run.reps) > 0 {
		untraced := summarize(run.endToEndSamples()["wall_s"]).Median
		layer["trace.overhead_share"] = t.WallS/untraced - 1
	}
	terms := budgetFor(run.w.name, t, layer)
	var attributed float64
	for i := range terms {
		terms[i].Seconds = terms[i].Count * terms[i].UnitNs / 1e9
		terms[i].Share = terms[i].Seconds / t.WallS
		attributed += terms[i].Share
	}
	layer["budget.attributed_share"] = attributed
	return layer, terms
}

// budgetFor lists the workload's budget terms: for each layer the run
// drove, how many operations (an exact count from the run) at what
// unit cost (from the probe of that layer at the workload's shape).
// Terms never overlap: where a probed cost contains a lower layer's
// (a Jacobi rank-step contains its two sends), the lower layer is
// subtracted and listed on its own line. What the terms do not reach
// — scale effects the probes' smaller jobs do not have, and every
// cost nobody has named yet — is the unattributed remainder.
func budgetFor(workload string, t *repResult, l map[string]float64) []budgetTerm {
	msgs := l["comm.msgs"]
	perMsg := l["comm.send_ns"] + l["core.pump_ns"]
	net := func(cost, msgsPerStep float64) float64 {
		if c := cost - msgsPerStep*perMsg; c > 0 {
			return c
		}
		return 0
	}
	comm := func(sendNs float64) []budgetTerm {
		return []budgetTerm{
			{Name: "comm send+poll", Count: msgs, UnitNs: sendNs},
			{Name: "core.Machine.Pump", Count: msgs, UnitNs: l["core.pump_ns"]},
		}
	}
	lb := []budgetTerm{{Name: "loadbalance.Plan (in situ)", Count: 1, UnitNs: l["loadbalance.plan_greedy_ms"] * 1e6}}
	switch workload {
	case "jacobi_event_128k":
		return append(comm(l["comm.send_ns"]),
			budgetTerm{Name: "ampi event interpreter (p2p step)", Count: t.FlowSteps, UnitNs: net(l["ampi.p2p_ns_per_rank_step"], 2)},
			budgetTerm{Name: "ampi Allreduce", Count: l["ampi.reduce_joins"], UnitNs: l["ampi.allreduce_ns_per_rank"]})
	case "jacobi_ult_8k":
		return append(comm(l["comm.send_ns"]),
			budgetTerm{Name: "converse thread start", Count: float64(t.Flows), UnitNs: l["converse.spawn_ns"]},
			budgetTerm{Name: "ampi ULT rank step (switches incl.)", Count: t.FlowSteps, UnitNs: net(l["ampi.ult_p2p_ns_per_rank_step"], 2)},
			budgetTerm{Name: "ampi Allreduce", Count: l["ampi.reduce_joins"], UnitNs: l["ampi.allreduce_ns_per_rank"]})
	case "btmz_event_lb":
		return append(append(comm(l["comm.send_4k_ns"]), lb...),
			budgetTerm{Name: "npb zone step (event, no LB)", Count: t.FlowSteps, UnitNs: net(l["npb.step_ns_per_zone"], msgs/t.FlowSteps)},
			budgetTerm{Name: "record migration (Rebalance)", Count: l["npb.moved_ranks"], UnitNs: l["ampi.rebalance_event_us_per_rank"] * 1e3})
	case "btmz_ult_lb":
		return append(append(comm(l["comm.send_4k_ns"]), lb...),
			budgetTerm{Name: "converse thread start", Count: float64(t.Flows), UnitNs: l["converse.spawn_ns"]},
			budgetTerm{Name: "converse switch (2 per message)", Count: 2 * msgs, UnitNs: l["converse.switch_ns"]},
			budgetTerm{Name: "thread migration (Rebalance)", Count: l["npb.moved_ranks"], UnitNs: l["ampi.rebalance_ult_us_per_rank"] * 1e3})
	case "bigsim_event_200k":
		return []budgetTerm{{Name: "bigsim target step", Count: t.FlowSteps, UnitNs: l["bigsim.step_ns_per_target"]}}
	case "shard_jacobi_shm", "shard_jacobi_unix":
		xsend := l["comm.xsend_shm_ns"]
		if workload == "shard_jacobi_unix" {
			xsend = l["comm.xsend_unix_ns"]
		}
		// Two workers run side by side: each carries half the counts.
		return []budgetTerm{
			{Name: "ampi event interpreter (p2p step)", Count: t.FlowSteps / 2, UnitNs: l["ampi.p2p_ns_per_rank_step"]},
			{Name: "ampi Allreduce", Count: l["ampi.reduce_joins"] / 2, UnitNs: l["ampi.allreduce_ns_per_rank"]},
			{Name: "cross-worker send (codec + fabric)", Count: l["comm.envelopes"] / 2, UnitNs: xsend},
		}
	case "repro_full":
		var terms []budgetTerm
		// Table 2 is the set-up window, not the run span.
		for _, s := range []string{"switch_curves", "fig9", "fig10", "fig11", "fig12"} {
			terms = append(terms, budgetTerm{Name: "harness " + s + " (span)", Count: 1, UnitNs: l["harness."+s+"_ms"] * 1e6})
		}
		return terms
	}
	return nil
}
