package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
	"resilientloc/internal/scratch"
)

// objective is the reference evaluator: the full E computed by scanning
// every measured and every soft pair with math.Hypot, recording nothing.
// The solver's evaluate must agree with it bit for bit.
func (p *lssProblem) objective(pos []geom.Point) float64 {
	var e float64
	for _, m := range p.pairs {
		d := pos[m.Pair.Lo].Dist(pos[m.Pair.Hi])
		r := d - m.Distance
		e += m.Weight * r * r
	}
	if p.dmin <= 0 {
		return e
	}
	for k := 0; k < len(p.soft); k += 2 {
		d := pos[p.soft[k]].Dist(pos[p.soft[k+1]])
		if d < p.dmin {
			r := d - p.dmin
			e += p.wd * r * r
		}
	}
	return e
}

// gradient is the reference ∇E: it recomputes every distance from pos. The
// solver's gradientAt must agree with it bit for bit.
func (p *lssProblem) gradient(pos []geom.Point, grad []float64) {
	for i := range grad {
		grad[i] = 0
	}
	n := p.n
	for _, m := range p.pairs {
		i, j := m.Pair.Lo, m.Pair.Hi
		dx := pos[i].X - pos[j].X
		dy := pos[i].Y - pos[j].Y
		d := math.Hypot(dx, dy)
		if d < minSeparation {
			continue
		}
		g := 2 * m.Weight * (d - m.Distance) / d
		grad[i] += g * dx
		grad[j] -= g * dx
		grad[n+i] += g * dy
		grad[n+j] -= g * dy
	}
	if p.dmin <= 0 {
		p.zeroFixed(grad)
		return
	}
	for k := 0; k < len(p.soft); k += 2 {
		i, j := p.soft[k], p.soft[k+1]
		dx := pos[i].X - pos[j].X
		dy := pos[i].Y - pos[j].Y
		d := math.Hypot(dx, dy)
		if d >= p.dmin || d < minSeparation {
			continue
		}
		g := 2 * p.wd * (d - p.dmin) / d
		grad[i] += g * dx
		grad[j] -= g * dx
		grad[n+i] += g * dy
		grad[n+j] -= g * dy
	}
	p.zeroFixed(grad)
}

// refDescend is the descent loop of both step modes written against the
// reference evaluator, re-evaluating the final objective as the solver
// once did.
func (p *lssProblem) refDescend(start []geom.Point, cfg LSSConfig) ([]geom.Point, []float64, int, float64) {
	n := p.n
	cur := append([]geom.Point(nil), start...)
	next := make([]geom.Point, n)
	grad := make([]float64, 2*n)
	var history []float64
	step := cfg.Step
	e := p.objective(cur)
	iters := 0
	if cfg.Mode == StepFixed {
		for it := 0; it < cfg.MaxIters; it++ {
			iters++
			history = append(history, e)
			p.gradient(cur, grad)
			for i := 0; i < n; i++ {
				cur[i] = geom.Pt(cur[i].X-step*grad[i], cur[i].Y-step*grad[n+i])
			}
			e = p.objective(cur)
			if math.IsNaN(e) || math.IsInf(e, 0) {
				for i := 0; i < n; i++ {
					cur[i] = geom.Pt(cur[i].X+step*grad[i], cur[i].Y+step*grad[n+i])
				}
				step /= 2
				e = p.objective(cur)
				if step < 1e-15 {
					break
				}
			}
		}
		return cur, append(history, e), iters, p.objective(cur)
	}
	plateau := 0
	for it := 0; it < cfg.MaxIters; it++ {
		iters++
		history = append(history, e)
		p.gradient(cur, grad)
		improved := false
		for attempt := 0; attempt < 40; attempt++ {
			for i := 0; i < n; i++ {
				next[i] = geom.Pt(cur[i].X-step*grad[i], cur[i].Y-step*grad[n+i])
			}
			ne := p.objective(next)
			if ne < e {
				improved = true
				relDrop := (e - ne) / (math.Abs(e) + 1e-30)
				cur, next = next, cur
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
			break
		}
	}
	return cur, append(history, e), iters, p.objective(cur)
}

// refSolveLSS is the restart loop run one descent after another: the
// MDS-MAP seed, then rounds 0 to Restarts in order. SolveLSSIn must agree
// with it bit for bit. It also returns the round whose descent won: -1 for
// the MDS-MAP seed, -2 when no descent beat the initial configuration.
func refSolveLSS(set *measure.Set, cfg LSSConfig, rng *rand.Rand) (*LSSResult, int) {
	n := set.N()
	anchors := make([]int, 0, len(cfg.Anchors))
	for a := range cfg.Anchors { // order-insensitive: sorted below
		anchors = append(anchors, a)
	}
	sort.Ints(anchors)

	prob := newLSSProblem(nil, set, cfg)

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

	cur := make([]geom.Point, n)
	randomConfig(cur)

	best := make([]geom.Point, n)
	copy(best, cur)
	bestErr := prob.evaluate(best, &prob.evals[0])
	var bestHistory []float64
	totalIters := 0
	winner := -2

	if cfg.SeedMDSMap && set.Connected() {
		if seed, err := SolveMDSMapIn(nil, set); err == nil {
			if len(cfg.Anchors) >= 2 {
				src := make([]geom.Point, len(anchors))
				dst := make([]geom.Point, len(anchors))
				for k, a := range anchors {
					src[k], dst[k] = seed[a], cfg.Anchors[a]
				}
				if tr, _, err := geom.FitRigid(src, dst); err == nil {
					seed = tr.ApplyAll(seed)
				}
			}
			pinAnchors(seed)
			final, history, iters, e := prob.descend(nil, seed, cfg)
			totalIters += iters
			if e < bestErr {
				bestErr = e
				copy(best, final)
				bestHistory = history
				winner = -1
			}
		}
	}

	for round := 0; round <= cfg.Restarts; round++ {
		switch {
		case round == 0:
		case round%2 == 1:
			for i := range cur {
				cur[i] = geom.Pt(
					best[i].X+rng.NormFloat64()*perturb,
					best[i].Y+rng.NormFloat64()*perturb,
				)
			}
			pinAnchors(cur)
		default:
			randomConfig(cur)
		}
		final, history, iters, e := prob.descend(nil, cur, cfg)
		totalIters += iters
		if e < bestErr {
			bestErr = e
			copy(best, final)
			bestHistory = history
			winner = round
		}
	}

	return &LSSResult{
		Positions:          best,
		Error:              bestErr,
		UnconstrainedError: prob.weightedStress(best, prob.evals[0].dist),
		Iterations:         totalIters,
		History:            bestHistory,
	}, winner
}

// sameLSSResult reports the first field in which got differs from want,
// comparing floats by their bits, or "" when they agree.
func sameLSSResult(got, want *LSSResult) string {
	switch {
	case !samePoints(got.Positions, want.Positions):
		return "Positions"
	case math.Float64bits(got.Error) != math.Float64bits(want.Error):
		return fmt.Sprintf("Error %v, reference %v", got.Error, want.Error)
	case math.Float64bits(got.UnconstrainedError) != math.Float64bits(want.UnconstrainedError):
		return fmt.Sprintf("UnconstrainedError %v, reference %v", got.UnconstrainedError, want.UnconstrainedError)
	case got.Iterations != want.Iterations:
		return fmt.Sprintf("Iterations %d, reference %d", got.Iterations, want.Iterations)
	case len(got.History) != len(want.History):
		return fmt.Sprintf("History length %d, reference %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		if math.Float64bits(got.History[i]) != math.Float64bits(want.History[i]) {
			return fmt.Sprintf("History[%d] %v, reference %v", i, got.History[i], want.History[i])
		}
	}
	return ""
}

// TestSolveLSSMatchesSerialReference: the paired restart loop reproduces
// the serial one bit for bit — positions, both objectives, every history
// entry and the iteration count — over restart budgets that leave the last
// pair full and half full, MDS-MAP seeding on connected and disconnected
// sets, one and several anchors, both step modes, no soft constraint and
// descents that tie.
// Each case runs with a nil arena and with one arena shared by every case
// and released between solves, so a helper workspace left stale by the
// previous solve would show. It runs under -short, so the race detector
// sees the helper goroutine.
func TestSolveLSSMatchesSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	connected := randomSet(t, rng, 12, 0.5)
	for !connected.Connected() {
		connected = randomSet(t, rng, 12, 0.5)
	}
	disconnected := randomSet(t, rng, 12, 0.6)
	for _, m := range disconnected.All() {
		if (m.Pair.Lo < 6) != (m.Pair.Hi < 6) {
			disconnected.Remove(m.Pair.Lo, m.Pair.Hi)
		}
	}
	if disconnected.Connected() {
		t.Fatal("the disconnected set is connected")
	}
	// In ties only the pinned pair 0–1 is measured, so every descent that
	// ends with node 2 outside dmin of both anchors ends at the same E,
	// wherever node 2 is. A perturbation round and the fresh-random round
	// beside it often both get there first: the odd round must win.
	ties, err := measure.NewSet(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ties.Add(0, 1, 31, 1); err != nil {
		t.Fatal(err)
	}

	type tc struct {
		name  string
		set   *measure.Set
		cfg   func(*LSSConfig)
		seeds int // rng seeds to run; 0 means one
	}
	var cases []tc
	for _, restarts := range []int{0, 1, 2, 3, 14} {
		for _, mds := range []bool{true, false} {
			for _, s := range []struct {
				name string
				set  *measure.Set
			}{{"connected", connected}, {"disconnected", disconnected}} {
				cases = append(cases, tc{
					name: fmt.Sprintf("restarts=%d mds=%v %s", restarts, mds, s.name),
					set:  s.set,
					cfg:  func(c *LSSConfig) { c.Restarts, c.SeedMDSMap = restarts, mds },
				})
			}
		}
	}
	cases = append(cases,
		tc{name: "one anchor", set: connected, cfg: func(c *LSSConfig) {
			c.Anchors = map[int]geom.Point{4: geom.Pt(3, -2)}
		}},
		tc{name: "three anchors", set: connected, cfg: func(c *LSSConfig) {
			c.Anchors = map[int]geom.Point{0: geom.Pt(0, 0), 5: geom.Pt(20, 1), 9: geom.Pt(4, 18)}
		}},
		tc{name: "fixed step", set: connected, cfg: func(c *LSSConfig) { c.Mode, c.Step = StepFixed, 0.002 }},
		tc{name: "fixed step disconnected", set: disconnected, cfg: func(c *LSSConfig) {
			c.Mode, c.Step, c.SeedMDSMap = StepFixed, 0.002, false
		}},
		tc{name: "no soft constraint", set: connected, cfg: func(c *LSSConfig) { c.DMin = 0 }},
		tc{name: "no soft constraint disconnected", set: disconnected, cfg: func(c *LSSConfig) { c.DMin = 0 }},
		tc{name: "exact ties", set: ties, seeds: 24, cfg: func(c *LSSConfig) {
			c.DMin, c.MaxIters, c.Restarts = 40, 3, 14
			c.Anchors = map[int]geom.Point{0: geom.Pt(0, 0), 1: geom.Pt(30, 0)}
		}},
	)

	shared := scratch.New()
	evenWins := 0
	for i, c := range cases {
		cfg := DefaultLSSConfig(6)
		cfg.MaxIters = 250
		cfg.Restarts = 5
		c.cfg(&cfg)
		for k := 0; k < max(c.seeds, 1); k++ {
			seed := int64(100*i + k)
			want, winner := refSolveLSS(c.set, cfg, rand.New(rand.NewSource(seed)))
			if winner >= 2 && winner%2 == 0 {
				evenWins++
			}
			for _, ws := range []*scratch.Arena{nil, shared} {
				got, err := SolveLSSIn(ws, c.set, cfg, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s seed %d: %v", c.name, seed, err)
				}
				if diff := sameLSSResult(got, want); diff != "" {
					t.Fatalf("%s seed %d (arena %v): %s", c.name, seed, ws != nil, diff)
				}
				ws.Release()
			}
		}
	}
	// A winning fresh-random round's positions and history come from the
	// helper's arena; make sure some case takes that path.
	if evenWins == 0 {
		t.Fatal("no case was won by a fresh-random round after round 0")
	}
}

// randomSet builds a measurement set over n nodes in which each pair is
// measured with probability frac, with noisy distances and weights.
func randomSet(t *testing.T, rng *rand.Rand, n int, frac float64) *measure.Set {
	t.Helper()
	set, err := measure.NewSet(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < frac {
				if err := set.Add(i, j, 1+rng.Float64()*30, 0.5+rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return set
}

// checkEvaluator asserts that evaluate and gradientAt at pos agree bit for
// bit with the reference objective and gradient. rec is the record to
// evaluate into; spare is evaluated at another point in between, so the
// gradient is shown to read only the record it is handed.
func checkEvaluator(t *testing.T, prob *lssProblem, pos, other []geom.Point, rec, spare *lssEval, label string) {
	t.Helper()
	n := prob.n
	want := prob.objective(pos)
	got := prob.evaluate(pos, rec)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: E = %v (%#x), reference %v (%#x)", label, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	prob.evaluate(other, spare)
	wantG := make([]float64, 2*n)
	gotG := make([]float64, 2*n)
	for i := range gotG {
		gotG[i] = math.NaN() // stale contents must be overwritten
	}
	prob.gradient(pos, wantG)
	prob.gradientAt(pos, rec, gotG)
	for i := range wantG {
		if math.Float64bits(gotG[i]) != math.Float64bits(wantG[i]) {
			t.Fatalf("%s: grad[%d] = %v, reference %v", label, i, gotG[i], wantG[i])
		}
	}
}

// TestEvaluatorMatchesReferenceBitwise: the recorded evaluator — soft-pair
// prefilter plus distance reuse in the gradient — reproduces the reference
// full scan bit for bit, over random configurations and the edge cases the
// prefilter and the minSeparation guard must get right.
func TestEvaluatorMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(14)
		set := randomSet(t, rng, n, 0.2+0.6*rng.Float64())
		dmin := []float64{0, 1, 4, 9, 25}[trial%5]
		cfg := DefaultLSSConfig(dmin)
		if trial%3 == 0 {
			cfg.Anchors = map[int]geom.Point{0: geom.Pt(1, 2), n - 1: geom.Pt(-3, 5)}
		}
		prob := newLSSProblem(nil, set, cfg)
		scale := []float64{1, 5, 20, 100}[rng.Intn(4)]
		random := func() []geom.Point {
			pos := make([]geom.Point, n)
			for i := range pos {
				pos[i] = geom.Pt(rng.NormFloat64()*scale, rng.NormFloat64()*scale)
			}
			return pos
		}
		for k := 0; k < 8; k++ {
			pos := random()
			i, j := rng.Intn(n), rng.Intn(n)
			switch k {
			case 1: // coincident points, and points closer than minSeparation
				pos[j] = pos[i]
				pos[(j+1)%n] = geom.Pt(pos[i].X+minSeparation/4, pos[i].Y)
			case 2: // exactly dmin apart along x, and along y
				pos[i] = geom.Pt(3, 7)
				pos[j] = geom.Pt(3+dmin, 7)
				pos[(j+1)%n] = geom.Pt(3, 7+dmin)
			case 3: // exactly dmin apart along x with a small y offset
				pos[i] = geom.Pt(-2, 1)
				pos[j] = geom.Pt(-2-dmin, 1+dmin/8)
			case 4: // NaN coordinates
				pos[i] = geom.Pt(math.NaN(), pos[i].Y)
				pos[j] = geom.Pt(pos[j].X, math.NaN())
			case 5: // infinite coordinates, alone and against NaN
				pos[i] = geom.Pt(math.Inf(1), pos[i].Y)
				pos[j] = geom.Pt(pos[j].X, math.Inf(-1))
				pos[(j+1)%n] = geom.Pt(math.Inf(-1), math.NaN())
			case 6: // every node packed inside dmin of every other
				for m := range pos {
					pos[m] = geom.Pt(rng.Float64()*dmin/2, rng.Float64()*dmin/2)
				}
			}
			label := fmt.Sprintf("trial %d case %d (n=%d dmin=%v)", trial, k, n, dmin)
			checkEvaluator(t, prob, pos, random(), &prob.evals[k%2], &prob.evals[1-k%2], label)
		}
	}
}

// TestDescendMatchesReferenceBitwise: both step modes, run through the
// recorded evaluator, follow the reference descent bit for bit — final
// points, history and iteration count — and return the objective of the
// final point.
func TestDescendMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 24; trial++ {
		n := 4 + rng.Intn(12)
		set := randomSet(t, rng, n, 0.3+0.5*rng.Float64())
		cfg := DefaultLSSConfig([]float64{0, 3, 9}[trial%3])
		cfg.MaxIters = 300
		if trial%2 == 1 {
			cfg.Mode = StepFixed
			cfg.Step = []float64{0.002, 0.02, 0.5}[rng.Intn(3)] // 0.5 diverges
		}
		if trial%4 == 0 {
			cfg.Anchors = map[int]geom.Point{1: geom.Pt(4, 4)}
		}
		prob := newLSSProblem(nil, set, cfg)
		start := make([]geom.Point, n)
		for i := range start {
			start[i] = geom.Pt(rng.Float64()*40, rng.Float64()*40)
		}
		start[0] = start[n-1] // a coincident pair from the first step
		wantPos, wantHist, wantIters, wantE := prob.refDescend(start, cfg)
		gotPos, gotHist, gotIters, gotE := prob.descend(nil, start, cfg)
		if !samePoints(gotPos, wantPos) {
			t.Fatalf("trial %d (mode %d): final points differ from the reference", trial, cfg.Mode)
		}
		if gotIters != wantIters || len(gotHist) != len(wantHist) {
			t.Fatalf("trial %d: %d iters / %d history, reference %d / %d",
				trial, gotIters, len(gotHist), wantIters, len(wantHist))
		}
		for i := range wantHist {
			if math.Float64bits(gotHist[i]) != math.Float64bits(wantHist[i]) {
				t.Fatalf("trial %d: history[%d] = %v, reference %v", trial, i, gotHist[i], wantHist[i])
			}
		}
		if math.Float64bits(gotE) != math.Float64bits(wantE) {
			t.Fatalf("trial %d: returned E %v, objective of the final point %v", trial, gotE, wantE)
		}
	}
}
