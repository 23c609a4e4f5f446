// Package core implements the paper's localization algorithms: centralized
// least squares scaling (LSS) with a minimum node-spacing soft constraint
// (Section 4.2 — the paper's primary contribution), multilateration with the
// intersection consistency check (Section 4.1), a classical-MDS baseline
// (Section 2/4.2.1), and the distributed LSS variant (Section 4.3).
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
	"resilientloc/internal/scratch"
)

// StepMode selects the gradient-descent stepping rule.
type StepMode int

const (
	// StepAdaptive backtracks when a step would increase the objective and
	// grows the step on success — this library's default, far more robust
	// than a hand-tuned constant.
	StepAdaptive StepMode = iota + 1
	// StepFixed is the paper's literal Eq. (1): x ← x − α·∇E with constant
	// α. Convergence then depends heavily on the soft constraint shaping
	// the landscape, which is exactly the Figure 23 comparison; a small
	// stabilizer halves α only if the objective diverges to non-finite
	// values.
	StepFixed
)

// LSSConfig parameterizes the centralized LSS solver.
type LSSConfig struct {
	// DMin is the minimum node spacing for the soft constraint, meters.
	// Zero disables the constraint (the Figure 19/22 ablation).
	DMin float64
	// WD is the soft-constraint weight (paper Section 4.2.2: wD = 10 with
	// wij = 1).
	WD float64
	// Mode selects the stepping rule; the zero value means StepAdaptive.
	Mode StepMode
	// Step is the gradient-descent step size α of Eq. (1): the initial step
	// in adaptive mode, the constant step in fixed mode.
	Step float64
	// MaxIters bounds the gradient iterations per descent run.
	MaxIters int
	// Restarts is the number of restart rounds after the initial descent.
	// Odd rounds restart from the best configuration so far perturbed by
	// Gaussian noise — the paper's local-minimum escape strategy ("the
	// gradient descent starts each round of minimization with seed
	// positions obtained by perturbing the best results so far") — while
	// even rounds use a fresh random configuration, which escapes deep
	// reflection folds that small perturbations cannot.
	Restarts int
	// PerturbStd is the standard deviation of the restart perturbation,
	// meters. Zero scales it automatically to the measured-distance scale.
	PerturbStd float64
	// Tol ends a descent run once the relative per-iteration improvement
	// stays below it for a sustained stretch (a plateau), rather than on
	// the first small step.
	Tol float64
	// InitSpread is the half-width of the uniform random initial
	// configuration, meters. Zero derives it from the measured distances.
	InitSpread float64
	// SeedMDSMap, when true, additionally tries an MDS-MAP configuration
	// (shortest-path-completed classical MDS) as one descent start and
	// keeps whichever start reaches the lowest objective. This is this
	// library's robustness improvement over the paper's random-only
	// seeding; disable it for paper-faithful ablations (Figures 19/22/23).
	SeedMDSMap bool
	// Anchors optionally pins node positions during minimization: anchored
	// nodes keep their given coordinates exactly, and the solution comes
	// out in the anchors' absolute frame instead of an arbitrary relative
	// one. This extends the paper's anchor-free LSS with the hybrid
	// anchor usage its Section 2 surveys; leave nil for the paper-faithful
	// anchor-free behaviour.
	Anchors map[int]geom.Point
}

// DefaultLSSConfig returns the solver configuration used throughout the
// experiments: the paper's weights (wij=1, wD=10), dmin from the deployment.
func DefaultLSSConfig(dmin float64) LSSConfig {
	return LSSConfig{
		DMin:       dmin,
		WD:         10,
		Step:       0.02,
		MaxIters:   4000,
		Restarts:   14,
		PerturbStd: 0, // auto-scale to the measurement scale
		Tol:        1e-10,
		SeedMDSMap: true,
	}
}

// Validate checks the configuration.
func (c LSSConfig) Validate() error {
	switch {
	case c.DMin < 0:
		return errors.New("core: negative DMin")
	case c.DMin > 0 && c.WD <= 0:
		return errors.New("core: soft constraint enabled with non-positive WD")
	case c.Mode != 0 && c.Mode != StepAdaptive && c.Mode != StepFixed:
		return errors.New("core: invalid StepMode")
	case c.Step <= 0:
		return errors.New("core: non-positive Step")
	case c.MaxIters <= 0:
		return errors.New("core: non-positive MaxIters")
	case c.Restarts < 0:
		return errors.New("core: negative Restarts")
	case c.PerturbStd < 0:
		return errors.New("core: negative PerturbStd")
	case c.Tol < 0:
		return errors.New("core: negative Tol")
	}
	return nil
}

// LSSResult is the output of the centralized LSS solver. Coordinates are in
// an arbitrary rigid frame (translation/rotation/reflection are not
// observable from distances alone); align to ground truth with eval.Fit.
type LSSResult struct {
	Positions []geom.Point
	// Error is the final value of the full objective E (Ew + soft terms).
	Error float64
	// UnconstrainedError is the final Ew alone (comparable across
	// with/without-constraint runs, cf. Figure 23's caption discussion).
	UnconstrainedError float64
	// Iterations is the total number of gradient steps across restarts.
	Iterations int
	// History records the objective at each gradient step of the best
	// descent trajectory (Figure 23's error-vs-epoch curves).
	History []float64
}

// SolveLSS runs centralized least squares scaling over a measurement set:
// minimize
//
//	E = Σ_{dij∈D} wij (‖pi−pj‖ − dij)²
//	  + Σ_{dij∉D} wD (min(‖pi−pj‖, dmin) − dmin)²
//
// by gradient descent with perturbation restarts. The rng seeds the initial
// configuration and restart perturbations.
func SolveLSS(set *measure.Set, cfg LSSConfig, rng *rand.Rand) (*LSSResult, error) {
	return SolveLSSIn(nil, set, cfg, rng)
}

// SolveLSSIn is SolveLSS with every solver workspace — the problem's
// measured/fixed tables, descent point and gradient buffers, objective
// histories, and the MDS-MAP seed path — borrowed from ws (nil ws
// allocates). The returned result's Positions and History are arena-owned:
// valid only until ws's next Release; copy them out to keep them longer.
//
// The descents run two at a time, with every output bit as one serial
// loop over them would give: (MDS-MAP seed ∥ round 0), then (1 ∥ 2),
// (3 ∥ 4), and so on. A fresh-random round draws only from rng and never
// reads the best configuration, and the count and order of a perturbation
// round's draws do not depend on the configuration it perturbs. So both
// starts of a pair are drawn in the serial order — the odd round's
// normals, then the even round's uniforms — before either descent starts.
// The odd round (or the MDS-MAP seed) descends on the calling goroutine,
// the fresh-random round on one helper goroutine per solve, and the
// results merge in round order under the strict e < best rule. The helper
// runs outside the engine's worker budget, so one solve may keep two cores
// busy.
func SolveLSSIn(ws *scratch.Arena, set *measure.Set, cfg LSSConfig, rng *rand.Rand) (*LSSResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: SolveLSS: %w", err)
	}
	if rng == nil {
		return nil, errors.New("core: SolveLSS: nil rng")
	}
	n := set.N()
	if n < 3 {
		return nil, fmt.Errorf("core: SolveLSS: need at least 3 nodes, have %d", n)
	}
	if set.Len() == 0 {
		return nil, errors.New("core: SolveLSS: empty measurement set")
	}
	// Anchor IDs in ascending order: validation names the lowest bad one,
	// and the MDS-MAP registration sums over them in a fixed order.
	anchors := make([]int, 0, len(cfg.Anchors))
	for a := range cfg.Anchors { // order-insensitive: sorted below
		anchors = append(anchors, a)
	}
	sort.Ints(anchors)
	for _, a := range anchors {
		if a < 0 || a >= n {
			return nil, fmt.Errorf("core: SolveLSS: anchor %d out of range (n=%d)", a, n)
		}
	}

	prob := newLSSProblem(ws, set, cfg)

	spread := cfg.InitSpread
	if spread <= 0 {
		spread = prob.distanceScale() * math.Sqrt(float64(n))
	}
	perturb := cfg.PerturbStd
	if perturb <= 0 {
		perturb = 0.3 * prob.distanceScale()
	}
	pinAnchors := func(dst []geom.Point) {
		for a, p := range cfg.Anchors { // order-insensitive: each anchor writes its own slot
			dst[a] = p
		}
	}
	randomConfig := func(dst []geom.Point) {
		for i := range dst {
			dst[i] = geom.Pt(rng.Float64()*spread, rng.Float64()*spread)
		}
		pinAnchors(dst)
	}

	fresh := ws.Points(n) // round 0's start, then each fresh-random round's
	randomConfig(fresh)

	best := ws.Points(n)
	copy(best, fresh)
	bestErr := prob.evaluate(best, &prob.evals[0])
	var bestHistory []float64
	totalIters := 0
	keep := func(final []geom.Point, history []float64, iters int, e float64) {
		totalIters += iters
		if e < bestErr {
			bestErr = e
			copy(best, final)
			bestHistory = history
		}
	}

	perturbed := ws.Points(n)
	var h *lssHelper // started by the first pair of two descents
	for round := -1; round <= cfg.Restarts; round += 2 {
		// A pair's first descent starts from the MDS-MAP seed before round
		// 0, then from each odd round's perturbation of the best
		// configuration so far (the paper's rule).
		first := round > 0 || cfg.SeedMDSMap && set.Connected()
		if round > 0 {
			for i := range perturbed {
				perturbed[i] = geom.Pt(
					best[i].X+rng.NormFloat64()*perturb,
					best[i].Y+rng.NormFloat64()*perturb,
				)
			}
			pinAnchors(perturbed)
		}
		// Its second is round 0 from the initial draw, then each even
		// round from a fresh random configuration, which escapes
		// reflection folds.
		second := round+1 <= cfg.Restarts
		if second && round > 0 {
			randomConfig(fresh)
		}
		if !first {
			keep(prob.descend(ws, fresh, cfg)) // a lone descent runs inline
			continue
		}
		if second {
			if h == nil {
				h = startLSSHelper(ws, prob, cfg)
			}
			h.starts <- fresh
		}
		if round > 0 {
			keep(prob.descend(ws, perturbed, cfg))
		} else if seed, err := mdsMapStart(ws, set, cfg, anchors); err == nil {
			pinAnchors(seed)
			keep(prob.descend(ws, seed, cfg))
		}
		if second {
			d := <-h.done
			keep(d.final, d.history, d.iters, d.e)
		}
	}
	if h != nil {
		h.starts <- nil
	}

	return &LSSResult{
		Positions:          best,
		Error:              bestErr,
		UnconstrainedError: prob.weightedStress(best, prob.evals[0].dist), // the descents are done with evals
		Iterations:         totalIters,
		History:            bestHistory,
	}, nil
}

// mdsMapStart returns the MDS-MAP configuration as a descent start. With
// two or more anchors the relative map is registered onto the anchor frame,
// so pinning them doesn't tear the configuration apart.
func mdsMapStart(ws *scratch.Arena, set *measure.Set, cfg LSSConfig, anchors []int) ([]geom.Point, error) {
	seed, err := SolveMDSMapIn(ws, set)
	if err != nil || len(anchors) < 2 {
		return seed, err
	}
	src := make([]geom.Point, len(anchors))
	dst := make([]geom.Point, len(anchors))
	for k, a := range anchors {
		src[k], dst[k] = seed[a], cfg.Anchors[a]
	}
	if tr, _, err := geom.FitRigid(src, dst); err == nil {
		seed = tr.ApplyAll(seed)
	}
	return seed, nil
}

// lssHelper is the goroutine that runs each pair's fresh-random round, with
// a workspace of its own: an arena, and a copy of the solve's problem that
// shares its tables read-only but has its own evaluation records. It is
// stashed in the solve's arena, so its channels and arena slots are reused
// from solve to solve, and ws's Release rewinds its arena: a winning
// History borrowed from the helper's arena lives exactly as long as one
// borrowed from ws.
type lssHelper struct {
	ws     scratch.Arena
	prob   lssProblem
	cfg    LSSConfig
	starts chan []geom.Point // a round's start; nil ends the goroutine
	done   chan lssDescent
}

// lssDescent is one descent's result, as descend returns it.
type lssDescent struct {
	final   []geom.Point
	history []float64
	iters   int
	e       float64
}

// startLSSHelper readies the solve's helper and starts its goroutine.
func startLSSHelper(ws *scratch.Arena, prob *lssProblem, cfg LSSConfig) *lssHelper {
	h := ws.Stash("core.lssHelper", func() any {
		return &lssHelper{starts: make(chan []geom.Point), done: make(chan lssDescent)}
	}).(*lssHelper)
	h.prob = *prob
	h.prob.evals = prob.newEvals(&h.ws)
	h.cfg = cfg
	go h.serve()
	return h
}

// serve descends from each start it receives until it receives nil.
func (h *lssHelper) serve() {
	for start := range h.starts {
		if start == nil {
			return
		}
		var d lssDescent
		d.final, d.history, d.iters, d.e = h.prob.descend(&h.ws, start, h.cfg)
		h.done <- d
	}
}

// Reset implements scratch.Resetter: the helper's arena rewinds with the
// solve's.
func (h *lssHelper) Reset() { h.ws.Release() }

// lssProblem holds the preprocessed measurement data for fast gradient
// evaluation.
type lssProblem struct {
	n     int
	pairs []measure.Measurement
	// measured[i*n+j] marks pairs with a distance measurement; the soft
	// constraint applies only to unmeasured pairs.
	measured []bool
	// soft lists the unmeasured (i, j) pairs flat — soft[k], soft[k+1] —
	// in the same i-major, j-ascending order the constraint loops used to
	// scan measured in, so objective/gradient walk a precomputed list
	// instead of re-deriving it O(n²) per evaluation.
	soft []int
	// fixed marks anchored nodes whose coordinates never move.
	fixed []bool
	dmin  float64
	wd    float64
	// evals are the two evaluation records a descent alternates between:
	// the accepted point's and the trial step's.
	evals [2]lssEval
}

// lssEval is what one evaluate call records about the point it evaluated,
// for gradientAt at that same point: the distance of every measured pair,
// and the soft pairs not outside dmin with their distances. The gradient
// reads these instead of recomputing the distances, so it must only ever
// be given the record of the point it is evaluated at.
type lssEval struct {
	// dist[k] is the distance of measured pair pairs[k].
	dist []float64
	// active holds the offsets into soft of the pairs closer than dmin or
	// at a NaN distance, in soft-list order; activeDist[a] is the distance
	// of pair active[a].
	active     []int
	activeDist []float64
}

func newLSSProblem(ws *scratch.Arena, set *measure.Set, cfg LSSConfig) *lssProblem {
	n := set.N()
	p := &lssProblem{
		n:        n,
		pairs:    set.All(),
		measured: ws.Bools(n * n),
		fixed:    ws.Bools(n),
		dmin:     cfg.DMin,
		wd:       cfg.WD,
	}
	for _, m := range p.pairs {
		p.measured[m.Pair.Lo*n+m.Pair.Hi] = true
		p.measured[m.Pair.Hi*n+m.Pair.Lo] = true
	}
	for a := range cfg.Anchors { // order-insensitive: each anchor sets its own flag
		if a >= 0 && a < n {
			p.fixed[a] = true
		}
	}
	if p.dmin > 0 {
		p.soft = ws.IntCap(n * (n - 1))
		for i := 0; i < n; i++ {
			mrow := p.measured[i*n : i*n+n]
			for j := i + 1; j < n; j++ {
				if !mrow[j] {
					p.soft = append(p.soft, i, j)
				}
			}
		}
	}
	p.evals = p.newEvals(ws)
	return p
}

// newEvals borrows a pair of evaluation records for p from ws.
func (p *lssProblem) newEvals(ws *scratch.Arena) [2]lssEval {
	var evals [2]lssEval
	for k := range evals {
		evals[k] = lssEval{
			dist:       ws.Float64s(len(p.pairs)),
			active:     ws.IntCap(len(p.soft) / 2),
			activeDist: ws.Float64Cap(len(p.soft) / 2),
		}
	}
	return evals
}

// distanceScale returns the mean measured distance, used to size the random
// initial configuration.
func (p *lssProblem) distanceScale() float64 {
	if len(p.pairs) == 0 {
		return 1
	}
	var s float64
	for _, m := range p.pairs {
		s += m.Distance
	}
	return s / float64(len(p.pairs))
}

// minSeparation guards divisions by near-zero computed distances.
const minSeparation = 1e-9

// weightedStress computes Ew = Σ wij (‖pi−pj‖ − dij)², recording the
// distance of measured pair k in dist[k].
func (p *lssProblem) weightedStress(pos []geom.Point, dist []float64) float64 {
	var e float64
	for k, m := range p.pairs {
		d := pos[m.Pair.Lo].Dist(pos[m.Pair.Hi])
		dist[k] = d
		r := d - m.Distance
		e += m.Weight * r * r
	}
	return e
}

// evaluate computes the full objective E, soft-constraint terms included,
// and records into rec what gradientAt needs at the same point.
//
// A soft pair with |dx| ≥ dmin or |dy| ≥ dmin skips math.Hypot: Hypot is
// never below max(|dx|, |dy|), even after rounding, so such a pair is never
// inside dmin. The skip is exact. It is not taken when dx or dy is NaN,
// since Hypot may then be NaN, which the gradient does not skip; an
// infinite component is skipped, and its Hypot is +Inf, outside dmin.
func (p *lssProblem) evaluate(pos []geom.Point, rec *lssEval) float64 {
	e := p.weightedStress(pos, rec.dist)
	rec.active, rec.activeDist = rec.active[:0], rec.activeDist[:0]
	if p.dmin <= 0 {
		return e
	}
	dmin := p.dmin
	for k := 0; k < len(p.soft); k += 2 {
		a, b := pos[p.soft[k]], pos[p.soft[k+1]]
		dx, dy := a.X-b.X, a.Y-b.Y
		if (math.Abs(dx) >= dmin || math.Abs(dy) >= dmin) && !math.IsNaN(dx+dy) {
			continue
		}
		d := math.Hypot(dx, dy)
		if d >= dmin {
			continue
		}
		// Inside dmin, or NaN: the gradient takes both, E only the former.
		rec.active = append(rec.active, k)
		rec.activeDist = append(rec.activeDist, d)
		if d < dmin {
			r := d - dmin
			e += p.wd * r * r
		}
	}
	return e
}

// gradientAt writes ∇E at pos into grad (len 2n: x components then y
// components). rec must be the record evaluate left for this same pos.
// The soft pairs are summed in soft-list order, as a full scan would.
func (p *lssProblem) gradientAt(pos []geom.Point, rec *lssEval, grad []float64) {
	clear(grad)
	n := p.n
	for k, m := range p.pairs {
		d := rec.dist[k]
		if d < minSeparation {
			continue // coincident points: zero gradient direction, skip
		}
		i, j := m.Pair.Lo, m.Pair.Hi
		dx := pos[i].X - pos[j].X
		dy := pos[i].Y - pos[j].Y
		g := 2 * m.Weight * (d - m.Distance) / d
		grad[i] += g * dx
		grad[j] -= g * dx
		grad[n+i] += g * dy
		grad[n+j] -= g * dy
	}
	for a, k := range rec.active {
		d := rec.activeDist[a]
		if d < minSeparation {
			continue
		}
		i, j := p.soft[k], p.soft[k+1]
		dx := pos[i].X - pos[j].X
		dy := pos[i].Y - pos[j].Y
		g := 2 * p.wd * (d - p.dmin) / d
		grad[i] += g * dx
		grad[j] -= g * dx
		grad[n+i] += g * dy
		grad[n+j] -= g * dy
	}
	p.zeroFixed(grad)
}

// zeroFixed clears gradient components of anchored nodes so descent never
// moves them.
func (p *lssProblem) zeroFixed(grad []float64) {
	for i, fixed := range p.fixed {
		if fixed {
			grad[i] = 0
			grad[p.n+i] = 0
		}
	}
}

// descend runs one gradient-descent trajectory from start and returns the
// final configuration, the per-iteration objective history, the number of
// iterations performed, and the final configuration's objective. In
// adaptive mode the step halves when it would increase the objective
// (retrying the step) and grows on success; in fixed mode the paper's
// constant-α rule applies verbatim.
func (p *lssProblem) descend(ws *scratch.Arena, start []geom.Point, cfg LSSConfig) ([]geom.Point, []float64, int, float64) {
	if cfg.Mode == StepFixed {
		return p.descendFixed(ws, start, cfg)
	}
	n := p.n
	cur := ws.Points(n)
	copy(cur, start)
	next := ws.Points(n)
	grad := ws.Float64s(2 * n)
	// +1 so the final append(history, e) below stays in place.
	history := ws.Float64Cap(cfg.MaxIters + 1)
	// ev is cur's evaluation record, evNext the trial step's; they swap
	// along with the points.
	ev, evNext := &p.evals[0], &p.evals[1]

	e := p.evaluate(cur, ev)
	step := cfg.Step
	plateau := 0
	iters := 0
	for it := 0; it < cfg.MaxIters; it++ {
		iters++
		history = append(history, e)
		p.gradientAt(cur, ev, grad)

		improved := false
		for attempt := 0; attempt < 40; attempt++ {
			for i := 0; i < n; i++ {
				next[i] = geom.Pt(cur[i].X-step*grad[i], cur[i].Y-step*grad[n+i])
			}
			ne := p.evaluate(next, evNext)
			if ne < e {
				improved = true
				relDrop := (e - ne) / (math.Abs(e) + 1e-30)
				cur, next = next, cur
				ev, evNext = evNext, ev
				e = ne
				step *= 1.5
				if relDrop < cfg.Tol {
					plateau++
				} else {
					plateau = 0
				}
				break
			}
			step /= 2
			if step < 1e-16 {
				break
			}
		}
		if !improved || plateau >= 25 {
			break // converged or stuck on a plateau at every step size
		}
	}
	return cur, append(history, e), iters, e
}

// descendFixed is the paper's Eq. (1) verbatim: constant-step gradient
// descent. The only concession to float safety is halving the step when the
// objective stops being finite (a divergence the paper's hand-tuned α
// avoided by construction).
func (p *lssProblem) descendFixed(ws *scratch.Arena, start []geom.Point, cfg LSSConfig) ([]geom.Point, []float64, int, float64) {
	n := p.n
	cur := ws.Points(n)
	copy(cur, start)
	grad := ws.Float64s(2 * n)
	// +1 so the final append(history, e) below stays in place.
	history := ws.Float64Cap(cfg.MaxIters + 1)

	// The point moves in place, so one evaluation record serves it.
	ev := &p.evals[0]

	step := cfg.Step
	e := p.evaluate(cur, ev)
	iters := 0
	for it := 0; it < cfg.MaxIters; it++ {
		iters++
		history = append(history, e)
		p.gradientAt(cur, ev, grad)
		for i := 0; i < n; i++ {
			cur[i] = geom.Pt(cur[i].X-step*grad[i], cur[i].Y-step*grad[n+i])
		}
		e = p.evaluate(cur, ev)
		if math.IsNaN(e) || math.IsInf(e, 0) {
			// Diverged: rewind the step and continue more cautiously.
			for i := 0; i < n; i++ {
				cur[i] = geom.Pt(cur[i].X+step*grad[i], cur[i].Y+step*grad[n+i])
			}
			step /= 2
			e = p.evaluate(cur, ev)
			if step < 1e-15 {
				break
			}
		}
	}
	return cur, append(history, e), iters, e
}
