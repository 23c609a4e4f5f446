package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names and units; the self-test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	// moves names the end-to-end metric, and the workload, a change in this
	// layer metric should show up in. Written down before any measurement so
	// a later claim can be checked against it.
	moves string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", "figures-cold: the cold suite (figures_cold_s); scenarios-mc: both suites cold " +
		"(trials ÷ wall = scenarios_trials_per_s); fleet-extend: fleet_cold_s + fleet_extend_s; " +
		"service-warm: one closed-loop pass over every spec (sum of request latencies)"},
	{"setup_s", "s", "lower", "median time to stand the system up on fresh state (empty directories made " +
		"beforehand): open the session and resolve the jobs, or start and health-check the workers"},
	{"alloc_objects", "count", "lower", "heap objects the timed job allocates (median over repeats): the " +
		"allocation work the collector pays for. alloc_mb and peak_rss_mb are printed beside it; both swing " +
		"with the collector's timing (a cleared scratch-arena pool reallocates megabytes in a few objects)"},
}

// perLayer are reported by the traced run, one rung of the layer ladder at a
// time. moves is the prediction the issue fixed for each.
var perLayer = []metricDef{
	{"core.lss.solve_ms", "ms", "lower", "wall_s on figures-cold; flat elsewhere"},
	{"core.lss.iters", "count", "lower", "wall_s on figures-cold (exact count)"},
	{"core.lss.ns_per_iter", "ns", "lower", "wall_s on figures-cold; flat elsewhere"},
	{"core.lss.allocs", "count", "lower", "wall_s on figures-cold"},
	{"core.multilat.solve_us", "us", "lower", "wall_s on scenarios-mc and fleet-extend; flat on figures-cold"},
	{"core.multilat.allocs", "count", "lower", "wall_s on scenarios-mc and fleet-extend"},
	{"signal.detect_us", "us", "lower", "wall_s on scenarios-mc (ranging suite)"},
	{"signal.detect_allocs", "count", "lower", "wall_s on scenarios-mc (ranging suite)"},
	{"experiments.fig02_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.fig04_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.fig06_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.fig07_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.fig08_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.fig10_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.maxrange_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.fig11_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.fig12_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.fig14_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.fig16_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.fig18_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.fig19_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.fig20_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.fig21_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.fig22_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.fig23_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.fig24_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.fig25_s", "s", "lower", "wall_s on figures-cold"},
	{"experiments.digest_drift", "count", "lower", "none (figures whose full-precision digest differs across two cold passes; reported, not a failure)"},
	{"engine.run_s", "s", "lower", "wall_s on scenarios-mc"},
	{"engine.trials", "count", "lower", "none (exact work count of the engine rung)"},
	{"engine.shards", "count", "lower", "none (exact work count of the engine rung)"},
	{"engine.shard_busy_s", "s", "lower", "wall_s on scenarios-mc"},
	{"engine.budget_wait_s", "s", "lower", "wall_s on scenarios-mc"},
	{"engine.busy_frac", "frac", "higher", "wall_s on scenarios-mc"},
	{"engine.partial_run_s", "s", "lower", "wall_s on fleet-extend"},
	{"engine.merge_ms", "ms", "lower", "wall_s on fleet-extend"},
	{"run.cold_overhead_ms", "ms", "lower", "wall_s on scenarios-mc and fleet-extend"},
	{"run.warm_ms", "ms", "lower", "wall_s on service-warm"},
	{"run.extend_s", "s", "lower", "wall_s on fleet-extend"},
	{"run.reused_trials", "count", "higher", "wall_s on fleet-extend (exact count)"},
	{"cache.puts_per_cold_job", "count", "lower", "wall_s on fleet-extend (exact count)"},
	{"cache.entry_bytes", "bytes", "lower", "wall_s on fleet-extend and service-warm"},
	{"cache.put_ms", "ms", "lower", "wall_s on fleet-extend"},
	{"cache.read_ms", "ms", "lower", "wall_s on service-warm"},
	{"cache.get_ms", "ms", "lower", "wall_s on service-warm"},
	{"cache.hit_frac", "frac", "higher", "wall_s on service-warm"},
	{"locsrv.submit_ms", "ms", "lower", "wall_s on service-warm; flat on figures-cold"},
	{"locsrv.wait_ms", "ms", "lower", "wall_s on service-warm; flat on figures-cold"},
	{"locsrv.fetch_ms", "ms", "lower", "wall_s on service-warm; flat on figures-cold"},
	{"locsrv.result_bytes", "bytes", "lower", "wall_s on service-warm"},
	{"locsrv.job_overhead_ms", "ms", "lower", "wall_s on service-warm and fleet-extend"},
	{"locsrv.rejected", "count", "lower", "attempted/failed on service-warm (429 responses)"},
	{"coord.overhead_1w_ms", "ms", "lower", "wall_s on fleet-extend"},
	{"coord.overhead_2w_ms", "ms", "lower", "wall_s on fleet-extend"},
	{"coord.ranges", "count", "lower", "wall_s on fleet-extend (8 or 9: the dynamic scheduler's chunking follows timing)"},
	{"coord.steals", "count", "lower", "wall_s on fleet-extend"},
	{"coord.retries", "count", "lower", "wall_s on fleet-extend"},
	{"coord.dedup_losses", "count", "lower", "wall_s on fleet-extend"},
	{"coord.useful_frac", "frac", "higher", "wall_s on fleet-extend"},
	{"coord.reused_trials", "count", "higher", "wall_s on fleet-extend (exact count)"},
	{"obs.trace_overhead_frac", "frac", "lower", "none (traced job wall ÷ untraced job wall − 1)"},
	{"obs.trace_coverage", "frac", "higher", "none (share of the workload's root span covered by leaf spans)"},
}

// median returns the middle of xs (the mean of the two middles for even
// lengths); NaN for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; NaN for no
// samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// percentile is the nearest-rank percentile used for latencies: the
// smallest sample with at least p of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}
