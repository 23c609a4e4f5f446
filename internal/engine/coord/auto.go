package coord

// CI-driven stopping across the fleet: the distributed twin of the local
// runner's auto-trials loop. Each round is an ordinary fixed-N coordinated
// execution whose range results land in the workers' caches, so with
// Options.Reuse on, the next (doubled) round adopts the previous round's
// ranges and computes only the extension.

import (
	"context"
	"fmt"
	"time"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/spec"
)

// ExecuteAuto drives an auto-trials spec across the worker fleet: run the
// scenario's default trial count, then keep doubling — each round an
// ordinary coordinated Execute of a fixed-N spec — until the 95% CI
// half-width of the stopping metric reaches the spec's target, the trial
// cap is hit, or the scenario's own ceiling stops growth. The returned
// Stats sums the additive counters (retries, hedges, steals, reused
// trials, ...) across rounds and takes the final round's shape
// (Trials, Ranges, Workers). A fixed-count spec just delegates to Execute.
func ExecuteAuto(ctx context.Context, sp spec.JobSpec, opts Options) (*spec.Value, Stats, error) {
	if sp.AutoTrials == nil {
		return Execute(ctx, sp, opts)
	}
	if err := sp.Validate(); err != nil {
		return nil, Stats{}, err
	}
	auto := sp.AutoTrials
	base := sp
	base.AutoTrials = nil
	job, err := spec.Resolve(base)
	if err != nil {
		return nil, Stats{}, err
	}
	n := job.TotalTrials
	if c := auto.Cap(); n > c {
		n = c
	}
	start := time.Now()
	var acc Stats
	prevEffective := 0
	for {
		rs := base
		rs.Trials = n
		val, st, err := Execute(ctx, rs, opts)
		if err != nil {
			return nil, acc, err
		}
		acc.Retries += st.Retries
		acc.Hedges += st.Hedges
		acc.DedupLosses += st.DedupLosses
		acc.Steals += st.Steals
		acc.Joined += st.Joined
		acc.Left += st.Left
		acc.ReusedTrials += st.ReusedTrials
		acc.ReusedRanges += st.ReusedRanges
		acc.Trials, acc.Ranges, acc.Workers = st.Trials, st.Ranges, st.Workers
		rep := val.Report
		if rep == nil {
			return nil, acc, fmt.Errorf("coord: %s: auto-trials round produced no report", base.ID)
		}
		effective := rep.Trials
		hw, err := engine.CIHalfWidth(rep, auto.Metric)
		if err != nil {
			return nil, acc, fmt.Errorf("coord: %s: auto-trials: %w", base.ID, err)
		}
		done := hw <= auto.CITarget
		plateau := effective == prevEffective
		capped := effective >= auto.Cap()
		if done || plateau || capped {
			if !done {
				warnTo(opts.Warnings,
					"coord: %s: auto-trials stopped at %d trials with CI half-width %.6g above target %.6g\n",
					base.ID, effective, hw, auto.CITarget)
			}
			val.SetExecutionMeta(st.Workers, time.Since(start).Seconds())
			return val, acc, nil
		}
		prevEffective = effective
		n = auto.NextTrials(effective)
	}
}
