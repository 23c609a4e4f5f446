package run

// Prefix-reuse planner: before computing a full cacheable run from scratch,
// probe the cache for surviving range-keyed entries of the same content
// address (including entries banked under a *different* full trial count —
// per-trial computation depends only on scenario, seed, and trial index, so
// a partial of an old N is bit-valid under a new N whenever its shard
// geometry still lines up; see engine.AdaptPartial). Select a maximal
// disjoint chain of cached ranges, execute only the uncovered gaps, and
// merge — so extending a cached 1024-trial run to 4096 trials computes only
// trials [1024, 4096), byte-identical (modulo execution metadata) to a cold
// 4096-trial run.
//
// Every executed gap is banked under its own range key before the merge, and
// the merged result under the full key — which is what makes the *next*
// extension incremental: the full-key entry stores a finalized result with
// no mergeable shard state, so the range entries are the planner's entire
// raw material.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/cache"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/obs"
)

// obsReusedTrials counts trials the planner satisfied from cached range
// entries instead of recomputing — the fleet-wide measure of how much work
// incremental extension is saving.
var obsReusedTrials = obs.Default().Counter("run_reused_trials_total")

// reusePlan is the planner's schedule for one job: cached partials to merge
// as-is and the uncovered gaps to compute, together tiling [0, trials)
// exactly, in range order.
type reusePlan struct {
	parts        []*engine.Partial
	gaps         []spec.Range
	reusedTrials int
	reusedRanges int
}

// coldPlan is the schedule with nothing reusable: one gap covering the whole
// trial space.
func coldPlan(trials int) reusePlan {
	return reusePlan{gaps: []spec.Range{{Lo: 0, Hi: trials}}}
}

// planReuse probes the cache for range entries sharing key's content address
// (any stamped trial count) and chains them with cache.Chain, the chain
// policy the fleet coordinator shares. Entries that fail to fetch or adapt
// are skipped in place, so a half-evicted cache degrades to wider gaps,
// never to an error.
func (s *Session) planReuse(key cache.Key, trials int, name string) reusePlan {
	entries, err := s.cache.RangeEntries(key)
	if err != nil || len(entries) == 0 {
		return coldPlan(trials)
	}
	var plan reusePlan
	cache.Chain(entries, trials, func(i int) bool {
		e := entries[i]
		p, ok := s.fetchRange(key, e, trials, name)
		if ok {
			plan.parts = append(plan.parts, p)
			plan.reusedTrials += e.Hi - e.Lo
			plan.reusedRanges++
		}
		return ok
	}, func(lo, hi int) { plan.gaps = append(plan.gaps, spec.Range{Lo: lo, Hi: hi}) })
	return plan
}

// fetchRange loads one enumerated range entry and adapts it to the job's
// trial count. A miss (evicted between probe and fetch), an undecodable
// value, or a geometry that no longer lines up under the new trial count all
// report !ok — the planner treats the entry as absent.
func (s *Session) fetchRange(base cache.Key, e cache.RangeEntry, trials int, name string) (*engine.Partial, bool) {
	k := base
	k.Trials = e.Trials
	k.RangeLo, k.RangeHi = e.Lo, e.Hi
	var val spec.Value
	hit, err := s.cache.Get(k, &val)
	if err != nil || !hit || val.Partial == nil {
		return nil, false
	}
	if err := engine.AdaptPartial(val.Partial, trials); err != nil {
		fmt.Fprintf(s.warn, "warning: %s: skipping cached range [%d, %d): %v\n", name, e.Lo, e.Hi, err)
		return nil, false
	}
	return val.Partial, true
}

// executePlanned is the planner-driven replacement for the classic full-run
// path: plan against the cache, execute the gaps, merge, finalize, and bank
// both the gap partials (range keys) and the merged result (full key). The
// caller holds the key lock and has already missed on the full key.
func (s *Session) executePlanned(ctx context.Context, jobSpan *obs.Span, job spec.Resolved, key cache.Key, keyHash string, trials, shardSize int, start time.Time) (*spec.Value, Info, error) {
	name := job.Campaign.Scenario.Name

	_, planSpan := obs.Start(ctx, "run.plan")
	plan := s.planReuse(key, trials, name)
	if planSpan != nil {
		planSpan.SetAttr("job", job.Spec.Hash()).SetAttr("reused_trials", plan.reusedTrials).
			SetAttr("reused_ranges", plan.reusedRanges).SetAttr("gaps", len(plan.gaps))
	}
	planSpan.End()
	if plan.reusedTrials > 0 {
		obsReusedTrials.Add(int64(plan.reusedTrials))
		if jobSpan != nil {
			jobSpan.SetAttr("reused_trials", plan.reusedTrials)
		}
	}

	res, err := s.runPlan(ctx, job, key, trials, plan)
	if err != nil && plan.reusedTrials > 0 && ctx.Err() == nil {
		// Every reused entry decoded and adapted cleanly, yet the plan still
		// failed downstream — a cache inconsistency deeper than the per-entry
		// checks. Recompute from scratch rather than failing a job the
		// classic path would have completed.
		fmt.Fprintf(s.warn, "warning: %s: discarding %d cached trials after plan failure: %v\n",
			name, plan.reusedTrials, err)
		plan = coldPlan(trials)
		res, err = s.runPlan(ctx, job, key, trials, plan)
	}
	if err != nil {
		return nil, Info{}, err
	}

	executed := trials - plan.reusedTrials
	workers := 0
	if executed > 0 {
		// Mirror the engine's effective pool size for the report's execution
		// metadata (display only — normalized out of the stored entry).
		workers = s.opts.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if shards := (trials + shardSize - 1) / shardSize; workers > shards {
			workers = shards
		}
	}
	res.ClearExecutionMeta()
	_ = s.cache.Put(key, res)
	res.SetExecutionMeta(workers, time.Since(start).Seconds())
	return res, Info{
		Cached:       executed == 0,
		Trials:       trials,
		ReusedTrials: plan.reusedTrials,
		Elapsed:      time.Since(start),
		CacheKey:     keyHash,
	}, nil
}

// runPlan executes a plan's gaps (banking each under its range key), merges
// them with the reused partials, and finalizes the campaign's full result.
// Progress reports cover the whole trial space: reused trials count as done
// from the start, and each gap's counters are offset by everything covered
// before it.
func (s *Session) runPlan(ctx context.Context, job spec.Resolved, key cache.Key, trials int, plan reusePlan) (*spec.Value, error) {
	c := job.Campaign
	cb := s.progressCallback(c.Scenario.Name, job.Spec.Hash())
	parts := make([]*engine.Partial, 0, len(plan.parts)+len(plan.gaps))
	parts = append(parts, plan.parts...)
	covered := plan.reusedTrials
	for _, g := range plan.gaps {
		var progress func(done, total int)
		if cb != nil {
			base := covered
			progress = func(done, total int) { cb(base+done, trials) }
		}
		runner, err := engine.NewRunner(engine.Config{
			Workers:   s.opts.Workers,
			Trials:    job.Spec.Trials,
			Seed:      job.Spec.Seed,
			ShardSize: job.Spec.ShardSize,
			Progress:  progress,
			Budget:    engine.SharedBudget(),
		})
		if err != nil {
			return nil, err
		}
		p, err := engine.RunCampaignPartialContext(ctx, runner, c, g.Lo, g.Hi)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.trialsExecuted += g.Hi - g.Lo
		s.mu.Unlock()
		// Bank the gap before the merge: a crash past this point still leaves
		// the range on disk for the next attempt to reuse. Best-effort, like
		// every Put.
		rk := key
		rk.RangeLo, rk.RangeHi = g.Lo, g.Hi
		_ = s.cache.Put(rk, &spec.Value{Partial: p})
		parts = append(parts, p)
		covered += g.Hi - g.Lo
	}
	rep, err := engine.MergePartials(parts)
	if err != nil {
		return nil, err
	}
	return engine.FinalizeCampaign(c, rep)
}
