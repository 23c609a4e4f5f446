package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/cache"
	"resilientloc/internal/engine/coord"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/obs"
)

// layers collects the per-layer metrics of a traced run: raw samples, whose
// median is reported, or values set once.
type layers struct {
	samples map[string][]float64
	values  map[string]float64
}

func newLayers() *layers {
	return &layers{samples: make(map[string][]float64), values: make(map[string]float64)}
}

func (l *layers) sample(name string, v float64) { l.samples[name] = append(l.samples[name], v) }
func (l *layers) set(name string, v float64)    { l.values[name] = v }

func (l *layers) value(name string) (float64, bool) {
	if v, ok := l.values[name]; ok {
		return v, true
	}
	if s := l.samples[name]; len(s) > 0 {
		return median(s), true
	}
	return 0, false
}

// checks counts a traced run's correctness checks.
type checks struct {
	attempted, failed int
	failures          []string
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checks) addRepeat(r repeat) {
	c.attempted += r.ops
	c.failed += r.failed
	c.failures = append(c.failures, r.failures...)
}

// ladderRounds is how many times each rung of the ladder repeats; medians
// are reported.
func ladderRounds(tiny bool) int {
	if tiny {
		return 1
	}
	return 2
}

// tracedRun is the per-layer run. It times the workload's job untraced and
// then traced (the difference is the tracing overhead), runs the figure
// suite twice when the workload did not already, and climbs the layer
// ladder: kernels; engine.Runner direct; run.Session cold, warm and
// planner-extended; locsrv over loopback HTTP; coord over one and then two
// workers; and warm service reads. The program's own spans and counters are
// read where it records them; the benchmark adds spans only around its calls.
func tracedRun(ctx context.Context, b *bench, w workload, rec *record, traceDir string) error {
	tr := obs.NewTracer()
	tctx := obs.WithTracer(ctx, tr)
	l := newLayers()
	var c checks
	rounds := ladderRounds(b.tiny)
	t0 := time.Now()

	inst, err := w.prepare(b)
	if err != nil {
		return err
	}
	untraced, _, err := timedRepeat(ctx, inst)
	if err != nil {
		return err
	}
	rootCtx, root := obs.Start(tctx, "bench.workload")
	root.SetAttr("workload", w.name)
	traced, _, err := timedRepeat(rootCtx, inst)
	root.End()
	if err != nil {
		return err
	}
	c.addRepeat(untraced)
	c.addRepeat(traced)
	l.set("obs.trace_overhead_frac", traced.samples["wall_s"][0]/untraced.samples["wall_s"][0]-1)
	l.set("obs.trace_coverage", leafCoverage(tr.Export(), "bench.workload"))

	figs := [2]repeat{untraced, traced}
	if w.name != "figures-cold" {
		if figs, err = figurePair(tctx, b); err != nil {
			return err
		}
		c.addRepeat(figs[0])
		c.addRepeat(figs[1])
	}
	drift := 0
	for id, d := range figs[0].digests {
		if figs[1].digests[id] != d {
			drift++
		}
	}
	l.set("experiments.digest_drift", float64(drift))
	if b.tiny {
		// The tiny self-test runs only the cheap figures; the rest read 0.
		for _, id := range figureIDs(false) {
			l.set("experiments."+id+"_s", 0)
		}
	}
	for name, v := range figs[1].samples {
		if id, ok := strings.CutPrefix(name, "fig:"); ok {
			l.set("experiments."+id+"_s", v[0])
		}
	}

	if err := kernelRung(tctx, l, rounds); err != nil {
		return err
	}
	if err := engineRung(tctx, b, l); err != nil {
		return err
	}
	if err := jobLadder(tctx, b, l, &c, rounds); err != nil {
		return err
	}
	if err := serviceRung(tctx, b, l, &c); err != nil {
		return err
	}

	if err := os.MkdirAll(traceDir, 0o755); err == nil {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d-%d.json", w.name, b.seed, time.Now().UnixNano()))
		if err := tr.WriteChromeTraceFile(path); err == nil {
			fmt.Fprintln(b.out, "chrome trace:", path)
		}
	}

	res := result{Metrics: make(map[string]metricValue), Attempted: c.attempted, Failed: c.failed}
	res.Correct = c.failed == 0 && c.attempted > 0
	rec.Layers = make(map[string]float64)
	rec.LayerSamples = l.samples
	rec.Failures = c.failures
	rec.ReferenceS = time.Since(t0).Seconds()
	fmt.Fprintf(b.out, "traced ladder in %.1f s; %d checks, %d failed\n", rec.ReferenceS, c.attempted, c.failed)
	fmt.Fprintf(b.out, "  %-28s %14s %-6s %s\n", "metric", "value", "unit", "should move")
	for _, m := range perLayer {
		v, ok := l.value(m.name)
		if !ok {
			return fmt.Errorf("traced run measured no %s", m.name)
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
		rec.Layers[m.name] = v
		fmt.Fprintf(b.out, "  %-28s %14.6g %-6s %s\n", m.name, v, m.unit, m.moves)
	}
	for _, f := range c.failures {
		fmt.Fprintln(b.out, "  FAILED:", f)
	}
	rec.Result = res
	return nil
}

// figurePair runs the cold figure suite twice; the second pass gives the
// per-figure times and both give the digests the drift count compares.
func figurePair(ctx context.Context, b *bench) ([2]repeat, error) {
	ctx, span := obs.Start(ctx, "bench.rung.figures")
	defer span.End()
	var out [2]repeat
	inst, err := prepareFigures(b)
	if err != nil {
		return out, err
	}
	for i := range out {
		if out[i], _, err = timedRepeat(ctx, inst); err != nil {
			return out, err
		}
	}
	return out, nil
}

// engineRung runs the scenarios-mc jobs on engine.Runner directly, with the
// shared budget the session would use, and reads the engine's own counters
// for the work done, the time shards were busy and the time they waited
// for a budget slot.
func engineRung(ctx context.Context, b *bench, l *layers) error {
	ctx, span := obs.Start(ctx, "bench.rung.engine")
	defer span.End()
	specs, err := scenarioSpecs(b.seed, b.tiny)
	if err != nil {
		return err
	}
	before := snapshotCounters()
	t := time.Now()
	for _, sp := range specs {
		job, err := spec.Resolve(sp)
		if err != nil {
			return err
		}
		runner, err := engine.NewRunner(engine.Config{Trials: sp.Trials, Seed: sp.Seed, Budget: engine.SharedBudget()})
		if err != nil {
			return err
		}
		if _, err := runner.RunContext(ctx, job.Campaign.Scenario); err != nil {
			return fmt.Errorf("engine rung %s: %w", sp.ID, err)
		}
	}
	wall := time.Since(t).Seconds()
	after := snapshotCounters()
	busy := after.sumDelta(before, "engine_shard_seconds")
	l.set("engine.run_s", wall)
	l.set("engine.trials", after.delta(before, "engine_trials_total"))
	l.set("engine.shards", after.delta(before, "engine_shards_total"))
	l.set("engine.shard_busy_s", busy)
	l.set("engine.budget_wait_s", after.sumDelta(before, "engine_budget_wait_seconds"))
	l.set("engine.busy_frac", busy/(wall*float64(runtime.GOMAXPROCS(0))))
	return nil
}

// jobLadder climbs the ladder with the fleet-extend job (multilat-town at N
// trials, extended to 4N): each rung runs the same spec and checks its
// result against a local reference.
func jobLadder(ctx context.Context, b *bench, l *layers, c *checks, rounds int) error {
	ctx, span := obs.Start(ctx, "bench.rung.ladder")
	defer span.End()
	n := fleetTrials(b.tiny)
	cold := spec.JobSpec{Kind: spec.KindScenario, ID: fleetScenario, Seed: b.seed, Trials: n}
	ext := cold
	ext.Trials = 4 * n
	ref, err := referenceRun(b, []spec.JobSpec{cold, ext})
	if err != nil {
		return err
	}
	job, err := spec.Resolve(cold)
	if err != nil {
		return err
	}
	same := func(v *spec.Value, sp spec.JobSpec) bool {
		got, err := canonical(v)
		return err == nil && bytes.Equal(got, ref[sp.Hash()])
	}
	for r := 0; r < rounds; r++ {
		// engine.Runner direct, whole and as two partials merged.
		runner, err := engine.NewRunner(engine.Config{Trials: n, Seed: b.seed, Budget: engine.SharedBudget()})
		if err != nil {
			return err
		}
		rctx, s := obs.Start(ctx, "bench.engine.run")
		rep, err := runner.RunContext(rctx, job.Campaign.Scenario)
		s.End()
		c.check(err == nil && same(&spec.Value{Report: rep}, cold), "engine rung: result differs from the session reference (%v)", err)
		rctx, s = obs.Start(ctx, "bench.engine.partial")
		t := time.Now()
		p1, err1 := runner.RunPartialContext(rctx, job.Campaign.Scenario, 0, n/2)
		p2, err2 := runner.RunPartialContext(rctx, job.Campaign.Scenario, n/2, n)
		l.sample("engine.partial_run_s", time.Since(t).Seconds())
		s.End()
		if err1 != nil || err2 != nil {
			return fmt.Errorf("partial rung: %v %v", err1, err2)
		}
		_, s = obs.Start(ctx, "bench.engine.merge")
		t = time.Now()
		merged, err := engine.MergePartials([]*engine.Partial{p1, p2})
		l.sample("engine.merge_ms", time.Since(t).Seconds()*1e3)
		s.End()
		c.check(err == nil && same(&spec.Value{Report: merged}, cold), "merged partials differ from the reference (%v)", err)

		// run.Session: cold, warm (a full-key hit), then extended to 4N by
		// the prefix-reuse planner.
		dir, err := b.freshDir("ladder-run-")
		if err != nil {
			return err
		}
		sess, err := run.NewSession(sessionOptions(dir))
		if err != nil {
			return err
		}
		before := snapshotCounters()
		rctx, s = obs.Start(ctx, "bench.run.cold")
		v, info, err := run.ExecuteSpecContext(rctx, sess, cold)
		s.End()
		after := snapshotCounters()
		c.check(err == nil && same(v, cold), "run cold: result differs from the reference (%v)", err)
		puts := after.delta(before, "cache_put_total")
		l.sample("cache.puts_per_cold_job", puts)
		if timed := after.countDelta(before, "cache_put_seconds"); timed > 0 {
			l.sample("cache.put_ms", after.sumDelta(before, "cache_put_seconds")/timed*1e3)
		}
		if entry, ok, err := sess.CacheEntry(info.CacheKey); err == nil && ok {
			l.sample("cache.entry_bytes", float64(len(entry)))
		} else {
			c.check(false, "run cold: no cache entry under %s (%v)", info.CacheKey, err)
		}
		rctx, s = obs.Start(ctx, "bench.run.warm")
		v, info, err = run.ExecuteSpecContext(rctx, sess, cold)
		s.End()
		l.sample("run.warm_ms", info.Elapsed.Seconds()*1e3)
		c.check(err == nil && info.Cached && same(v, cold), "run warm: not a cache hit or result differs (%v)", err)
		rctx, s = obs.Start(ctx, "bench.run.extend")
		v, info, err = run.ExecuteSpecContext(rctx, sess, ext)
		s.End()
		l.sample("run.extend_s", info.Elapsed.Seconds())
		l.sample("run.reused_trials", float64(info.ReusedTrials))
		c.check(err == nil && same(v, ext), "run extend: result differs from the cold 4N reference (%v)", err)
		_ = os.RemoveAll(dir)

		// locsrv: the same cold job over loopback HTTP.
		if err := locsrvCold(ctx, b, c, cold, same); err != nil {
			return err
		}

		// coord over one, then two workers; the two-worker fleet then
		// extends to 4N, reusing the cold run's ranges.
		for _, k := range []int{1, 2} {
			if err := coordCold(ctx, b, l, c, k, cold, ext, same); err != nil {
				return err
			}
		}
	}
	// Each overhead is measured inside one execution, from its spans: the
	// rung's wall time not covered by the layer below. Subtracting two
	// separately timed runs instead would leave the machine's run-to-run
	// noise, which is larger than these overheads.
	recs := obs.FromContext(ctx).Export()
	for _, o := range []struct{ metric, outer, inner string }{
		{"run.cold_overhead_ms", "bench.run.cold", "engine.run"},
		{"locsrv.job_overhead_ms", "bench.locsrv.cold", "run.job"},
		{"coord.overhead_1w_ms", "bench.coord.cold.1w", "run.job"},
		{"coord.overhead_2w_ms", "bench.coord.cold.2w", "run.job"},
	} {
		for _, v := range uncoveredMS(recs, o.outer, o.inner) {
			l.sample(o.metric, v)
		}
	}
	return nil
}

// locsrvCold runs one cold job on a fresh in-process worker through the
// client, grafting the worker's span subtree for the job under the
// client's span.
func locsrvCold(ctx context.Context, b *bench, c *checks, sp spec.JobSpec, same func(*spec.Value, spec.JobSpec) bool) error {
	dir, err := b.freshDir("ladder-locsrv-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := startWorker(dir)
	if err != nil {
		return err
	}
	defer w.stop()
	cl := newClient()
	defer cl.close()
	rctx, s := obs.Start(ctx, "bench.locsrv.cold")
	js, _, err := cl.do(rctx, w.url, sp)
	s.End()
	c.check(err == nil && same(js.Result, sp), "locsrv cold: result differs from the reference (%v)", err)
	if err == nil {
		obs.FromContext(ctx).Import(s, js.Trace)
	}
	return nil
}

// coordCold runs the cold job across k fresh workers; with two workers it
// also extends the job to 4N and records the coordinator's counters.
func coordCold(ctx context.Context, b *bench, l *layers, c *checks, k int, cold, ext spec.JobSpec,
	same func(*spec.Value, spec.JobSpec) bool) error {
	var urls []string
	for i := 0; i < k; i++ {
		dir, err := b.freshDir("ladder-coord-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		w, err := startWorker(dir)
		if err != nil {
			return err
		}
		defer w.stop()
		urls = append(urls, w.url)
	}
	opts := coord.Options{Workers: urls, Reuse: true, Warnings: io.Discard}
	before := snapshotCounters()
	rctx, s := obs.Start(ctx, fmt.Sprintf("bench.coord.cold.%dw", k))
	v, st, err := coord.Execute(rctx, cold, opts)
	s.End()
	after := snapshotCounters()
	c.check(err == nil && same(v, cold), "coord %d workers: result differs from the reference (%v)", k, err)
	if k != 2 {
		return nil
	}
	l.sample("coord.ranges", float64(st.Ranges))
	l.sample("coord.steals", float64(st.Steals))
	l.sample("coord.retries", float64(st.Retries))
	l.sample("coord.dedup_losses", float64(st.DedupLosses))
	if executed := after.delta(before, "engine_trials_total"); executed > 0 {
		l.sample("coord.useful_frac", float64(st.Trials)/executed)
	}
	rctx, s = obs.Start(ctx, "bench.coord.extend")
	v, st, err = coord.Execute(rctx, ext, opts)
	s.End()
	l.sample("coord.reused_trials", float64(st.ReusedTrials))
	c.check(err == nil && st.ReusedTrials == cold.Trials && same(v, ext),
		"coord extend: reused %d of %d trials or result differs (%v)", st.ReusedTrials, cold.Trials, err)
	return nil
}

// serviceRungSpecs is how many warm specs the service rung reads.
func serviceRungSpecs(tiny bool) int {
	if tiny {
		return 6
	}
	return 60
}

// serviceRung reads service-warm specs three ways: the raw cache entry
// (cache.EntryByHash), a decoded cache.Get, and a full request through a
// fresh locsrv server, whose submit, wait and fetch legs are timed apart.
func serviceRung(ctx context.Context, b *bench, l *layers, c *checks) error {
	ctx, span := obs.Start(ctx, "bench.rung.service")
	defer span.End()
	specs := warmSpecs(b.seed, b.tiny)
	wi, err := populateWarm(b, specs[:min(len(specs), serviceRungSpecs(b.tiny))])
	if err != nil {
		return err
	}
	defer os.RemoveAll(wi.dir)
	store, err := cache.Open(wi.dir)
	if err != nil {
		return err
	}
	sess, err := run.NewSession(sessionOptions(wi.dir))
	if err != nil {
		return err
	}
	if err := wi.setup(); err != nil {
		wi.teardown()
		return err
	}
	defer wi.teardown()
	before := snapshotCounters()
	var rejected float64
	for _, sp := range wi.specs {
		rctx, s := obs.Start(ctx, "bench.locsrv.warm")
		js, rt, err := wi.cl.do(rctx, wi.w.url, sp)
		s.End()
		if err == errRejected {
			rejected++
		}
		c.check(err == nil && js.Cached, "locsrv warm %s seed %d: %v", sp.ID, sp.Seed, err)
		if err != nil {
			continue
		}
		l.sample("locsrv.submit_ms", rt.submit.Seconds()*1e3)
		l.sample("locsrv.wait_ms", rt.wait.Seconds()*1e3)
		l.sample("locsrv.fetch_ms", rt.fetch.Seconds()*1e3)
		l.sample("locsrv.result_bytes", float64(rt.resultBytes))

		key, err := cacheKeyOf(sp)
		if err != nil {
			return err
		}
		c.check(key.Hash() == js.CacheKey, "%s seed %d: rebuilt cache key %s, service reports %s", sp.ID, sp.Seed, key.Hash(), js.CacheKey)
		_, s = obs.Start(ctx, "bench.cache.read")
		t := time.Now()
		_, ok, err := store.EntryByHash(js.CacheKey)
		l.sample("cache.read_ms", time.Since(t).Seconds()*1e3)
		s.End()
		c.check(err == nil && ok, "cache read %s: %v", js.CacheKey, err)
		_, s = obs.Start(ctx, "bench.cache.get")
		var v spec.Value
		t = time.Now()
		hit, err := store.Get(key, &v)
		l.sample("cache.get_ms", time.Since(t).Seconds()*1e3)
		s.End()
		got, cerr := canonical(&v)
		c.check(err == nil && hit && cerr == nil && bytes.Equal(got, wi.ref[sp.Hash()]), "cache get %s seed %d: hit %v err %v", sp.ID, sp.Seed, hit, err)

		_, info, err := run.ExecuteSpecContext(ctx, sess, sp)
		c.check(err == nil && info.Cached, "run warm %s seed %d: %v", sp.ID, sp.Seed, err)
	}
	after := snapshotCounters()
	if gets := after.delta(before, "cache_get_total"); gets > 0 {
		l.set("cache.hit_frac", after.delta(before, "cache_hit_total")/gets)
	}
	l.set("locsrv.rejected", rejected)
	return nil
}

// cacheKeyOf rebuilds the full-run cache key of a param-less spec the way
// the session derives it; the caller checks it against the key the service
// reports, so a drift in the derivation fails loudly instead of timing
// misses.
func cacheKeyOf(sp spec.JobSpec) (cache.Key, error) {
	job, err := spec.Resolve(sp)
	if err != nil {
		return cache.Key{}, err
	}
	runner, err := engine.NewRunner(engine.Config{Trials: sp.Trials, Seed: sp.Seed, ShardSize: sp.ShardSize})
	if err != nil {
		return cache.Key{}, err
	}
	trials, shard := engine.CampaignConfig(runner, job.Campaign)
	return cache.Key{
		Kind:        sp.Kind,
		Scenario:    job.Campaign.Scenario.Name,
		Seed:        sp.Seed,
		Trials:      trials,
		ShardSize:   shard,
		Fingerprint: cache.Fingerprint(),
	}, nil
}

// leafCoverage is the share of the named root span's duration covered by
// the union of its leaf descendants: how much of the job's wall time the
// trace accounts for at its finest level.
func leafCoverage(recs []obs.SpanRecord, rootName string) float64 {
	kids := children(recs)
	for _, r := range recs {
		if r.Name == rootName && r.DurUS > 0 {
			leaf := func(d obs.SpanRecord) bool { return len(kids[d.ID]) == 0 }
			return float64(coveredUS(recs, kids, r, leaf)) / float64(r.DurUS)
		}
	}
	return 0
}

// uncoveredMS returns, for every span named outer, the milliseconds of its
// duration that no descendant span named inner covers: the outer layer's own
// time over the layer beneath it.
func uncoveredMS(recs []obs.SpanRecord, outer, inner string) []float64 {
	kids := children(recs)
	var out []float64
	for _, r := range recs {
		if r.Name == outer {
			in := func(d obs.SpanRecord) bool { return d.Name == inner }
			out = append(out, float64(r.DurUS-coveredUS(recs, kids, r, in))/1e3)
		}
	}
	return out
}

// children indexes span records by parent ID.
func children(recs []obs.SpanRecord) map[int64][]int {
	kids := make(map[int64][]int)
	for i, r := range recs {
		kids[r.Parent] = append(kids[r.Parent], i)
	}
	return kids
}

// coveredUS is the length of the union of the intervals of root's
// descendants that match, clipped to root's own interval.
func coveredUS(recs []obs.SpanRecord, kids map[int64][]int, root obs.SpanRecord, match func(obs.SpanRecord) bool) int64 {
	lo, hi := root.StartUS, root.StartUS+root.DurUS
	var spans [][2]int64
	stack := []int64{root.ID}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, i := range kids[id] {
			d := recs[i]
			if !match(d) {
				stack = append(stack, d.ID)
				continue
			}
			if s, e := max(d.StartUS, lo), min(d.StartUS+d.DurUS, hi); e > s {
				spans = append(spans, [2]int64{s, e})
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	var covered int64
	end := lo
	for _, sp := range spans {
		if sp[1] <= end {
			continue
		}
		covered += sp[1] - max(sp[0], end)
		end = sp[1]
	}
	return covered
}
