package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"resilientloc/internal/geom"
	"resilientloc/internal/measure"
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
