package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"resilientloc/internal/geom"
	"resilientloc/internal/mat"
	"resilientloc/internal/measure"
	"resilientloc/internal/scratch"
)

// MultilatConfig parameterizes anchor-based multilateration (Section 4.1).
type MultilatConfig struct {
	// MinAnchors is the minimum number of anchors with consistent distance
	// measurements required to localize a node (≥3 for an unambiguous
	// planar fix).
	MinAnchors int
	// ConsistencyRadius enables the intersection consistency check of
	// Section 4.1.2 when positive: anchors whose range circles have no
	// intersection point within this radius of another pair's intersection
	// point are discarded (paper example: 1 m).
	ConsistencyRadius float64
	// Progressive, when true, promotes localized nodes to anchors and
	// iterates, the Section 4.1.1 extension ("Once localized, they become
	// anchor nodes and are used to localize the remaining non-anchors").
	Progressive bool
	// MaxIters bounds the per-node Gauss-Newton refinement iterations.
	MaxIters int
	// UseIntersectionMode estimates positions as the mode (densest
	// cluster centroid) of the range-circle intersection points instead of
	// least squares when enough anchors are available — the paper's §4.1.2
	// alternative ("we may take the mode of the intersection points of the
	// remaining anchors instead of minimizing the error if the number of
	// anchors is large enough"). With fewer than MinModeAnchors anchors the
	// solver falls back to least squares.
	UseIntersectionMode bool
	// MinModeAnchors is the anchor count required before the intersection
	// mode is used (default 4).
	MinModeAnchors int
}

// DefaultMultilatConfig returns the configuration of the paper's
// experiments: 3-anchor minimum, 1 m consistency radius, no progressive
// promotion ("we used the original set of anchors only").
func DefaultMultilatConfig() MultilatConfig {
	return MultilatConfig{
		MinAnchors:        3,
		ConsistencyRadius: 1.0,
		Progressive:       false,
		MaxIters:          100,
		MinModeAnchors:    4,
	}
}

// Validate checks the configuration.
func (c MultilatConfig) Validate() error {
	switch {
	case c.MinAnchors < 3:
		return errors.New("core: MinAnchors must be at least 3")
	case c.ConsistencyRadius < 0:
		return errors.New("core: negative ConsistencyRadius")
	case c.MaxIters <= 0:
		return errors.New("core: non-positive MaxIters")
	case c.UseIntersectionMode && c.MinModeAnchors < 3:
		return errors.New("core: MinModeAnchors must be at least 3")
	}
	return nil
}

// MultilatResult is the output of a multilateration run.
type MultilatResult struct {
	// Positions maps localized node index → estimated position, in the
	// anchors' absolute frame. Non-localized nodes are absent (the paper's
	// "boxes with no corresponding cross").
	Positions map[int]geom.Point
	// Localized lists localized non-anchor node indices, ascending.
	Localized []int
	// AvgAnchorsPerNode is the mean number of anchor measurements available
	// per non-anchor node before consistency filtering (paper: 1.47 on the
	// sparse grid, 3.84 augmented).
	AvgAnchorsPerNode float64
}

// anchorObs is one anchor-distance observation for a node being localized.
type anchorObs struct {
	pos    geom.Point
	d      float64
	weight float64
}

// nbr is one precomputed adjacency entry: a neighbor node together with the
// distance and weight of the connecting measurement. Precomputing the
// adjacency once per solve replaces a Neighbors allocation plus a map lookup
// per edge per pass.
type nbr struct {
	node int
	d, w float64
}

// ipt is a range-circle intersection point tagged with the indices of the
// two circles that produced it.
type ipt struct {
	p    geom.Point
	a, b int
}

// mlWorkspace holds the reusable buffers of a multilateration solve. It is
// stashed in the trial arena (surviving Release) so repeated trials on one
// shard reuse the same storage. The zero value is ready to use.
type mlWorkspace struct {
	adj  []nbr // CSR-style flat adjacency, segments sorted by neighbor
	obs  []anchorObs
	pts  []ipt
	seen []int // generation stamps replacing filterConsistent's per-point map
	gen  int
	keep []bool
}

func multilatWS(ws *scratch.Arena) *mlWorkspace {
	// A nil arena builds a fresh workspace per call (Stash's fallback).
	return ws.Stash("core.multilat", func() any { return &mlWorkspace{} }).(*mlWorkspace)
}

// SolveMultilateration localizes every non-anchor node that has distance
// measurements to at least MinAnchors anchors, by least squares over
//
//	argmin Σ_a w(c_a)·(‖p − p_a‖ − d_a)²
//
// (Section 4.1.1). anchors maps node index → known position. With
// Progressive set, newly localized nodes join the anchor set (at reduced
// weight) and localization repeats until a fixpoint.
func SolveMultilateration(set *measure.Set, anchors map[int]geom.Point, cfg MultilatConfig) (*MultilatResult, error) {
	return SolveMultilaterationIn(nil, set, anchors, cfg)
}

// SolveMultilaterationIn is SolveMultilateration with all per-solve working
// storage — the flattened adjacency, observation and consistency-filter
// buffers, and the linear-seed matrices — borrowed from ws (nil ws
// allocates). The returned result is heap-allocated and safe to retain.
func SolveMultilaterationIn(ws *scratch.Arena, set *measure.Set, anchors map[int]geom.Point, cfg MultilatConfig) (*MultilatResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: SolveMultilateration: %w", err)
	}
	if len(anchors) == 0 {
		return nil, errors.New("core: SolveMultilateration: no anchors")
	}
	n := set.N()
	// order-insensitive: any out-of-range anchor rejects the call; only which
	// one the error names depends on the visit order.
	for a := range anchors {
		if a < 0 || a >= n {
			return nil, fmt.Errorf("core: SolveMultilateration: anchor %d out of range", a)
		}
	}

	known := make(map[int]geom.Point, len(anchors))
	weight := make(map[int]float64, len(anchors))
	for a, p := range anchors { // order-insensitive: copies into maps
		known[a] = p
		weight[a] = 1
	}

	res := &MultilatResult{Positions: make(map[int]geom.Point)}

	// Flatten the measurement graph into CSR form once: off[i]..off[i+1]
	// delimits node i's entries in w.adj. Each segment is sorted ascending by
	// neighbor index so the passes below visit observations in exactly the
	// order set.Neighbors would have produced.
	w := multilatWS(ws)
	all := set.All()
	off := ws.Ints(n + 1)
	for _, m := range all {
		off[m.Pair.Lo+1]++
		off[m.Pair.Hi+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	if cap(w.adj) < 2*len(all) {
		w.adj = make([]nbr, 2*len(all))
	}
	adj := w.adj[:2*len(all)]
	cur := ws.Ints(n)
	copy(cur, off[:n])
	for _, m := range all {
		adj[cur[m.Pair.Lo]] = nbr{node: m.Pair.Hi, d: m.Distance, w: m.Weight}
		cur[m.Pair.Lo]++
		adj[cur[m.Pair.Hi]] = nbr{node: m.Pair.Lo, d: m.Distance, w: m.Weight}
		cur[m.Pair.Hi]++
	}
	for i := 0; i < n; i++ {
		seg := adj[off[i]:off[i+1]]
		// Insertion sort: node degrees are small and the segments are nearly
		// sorted already (measurements are added in index order).
		for a := 1; a < len(seg); a++ {
			for b := a; b > 0 && seg[b].node < seg[b-1].node; b-- {
				seg[b], seg[b-1] = seg[b-1], seg[b]
			}
		}
	}

	// Count original-anchor availability for the AvgAnchorsPerNode metric.
	nonAnchors := 0
	totalAnchorMeas := 0
	for i := 0; i < n; i++ {
		if _, isAnchor := anchors[i]; isAnchor {
			continue
		}
		nonAnchors++
		for _, nb := range adj[off[i]:off[i+1]] {
			if _, ok := anchors[nb.node]; ok {
				totalAnchorMeas++
			}
		}
	}
	if nonAnchors > 0 {
		res.AvgAnchorsPerNode = float64(totalAnchorMeas) / float64(nonAnchors)
	}

	for {
		// Each pass works from a snapshot of the anchor set: without the
		// Progressive extension, only the original anchors are ever used
		// ("we used the original set of anchors only").
		type fix struct {
			node int
			pos  geom.Point
		}
		var fixes []fix
		for i := 0; i < n; i++ {
			if _, done := known[i]; done {
				continue
			}
			obs := w.obs[:0]
			for _, nb := range adj[off[i]:off[i+1]] {
				ap, ok := known[nb.node]
				if !ok {
					continue
				}
				obs = append(obs, anchorObs{pos: ap, d: nb.d, weight: weight[nb.node] * nb.w})
			}
			w.obs = obs // retain grown capacity for the next node
			if cfg.ConsistencyRadius > 0 {
				obs = filterConsistentIn(w, obs, cfg.ConsistencyRadius)
			}
			if len(obs) < cfg.MinAnchors {
				continue
			}
			var p geom.Point
			var err error
			if cfg.UseIntersectionMode && len(obs) >= cfg.MinModeAnchors {
				p, err = solveNodeIntersectionMode(obs, cfg.ConsistencyRadius)
				if err != nil {
					p, err = solveNode(ws, obs, cfg.MaxIters) // fall back
				}
			} else {
				p, err = solveNode(ws, obs, cfg.MaxIters)
			}
			if err != nil {
				continue // degenerate geometry: leave unlocalized
			}
			fixes = append(fixes, fix{node: i, pos: p})
		}
		for _, f := range fixes {
			known[f.node] = f.pos
			weight[f.node] = 0.5 // localized nodes carry less confidence than surveyed anchors
			res.Positions[f.node] = f.pos
			res.Localized = append(res.Localized, f.node)
		}
		if !cfg.Progressive || len(fixes) == 0 {
			break
		}
	}

	sort.Ints(res.Localized)
	return res, nil
}

// filterConsistent implements the Section 4.1.2 intersection consistency
// check with freshly allocated working storage. See filterConsistentIn.
func filterConsistent(obs []anchorObs, radius float64) []anchorObs {
	return filterConsistentIn(&mlWorkspace{}, obs, radius)
}

// filterConsistentIn implements the Section 4.1.2 intersection consistency
// check. The intersection points of consistent anchors' range circles "form
// a cluster around the node being localized"; we find the largest cluster
// of pairwise circle-intersection points and keep the anchors that
// contribute a point to it. Anchors whose circles have no intersection
// point near the cluster (e.g. the near-collinear anchor of Figure 11) are
// discarded. With fewer than 3 anchors the check is vacuous and obs is
// returned unchanged.
//
// Working storage comes from w, and the surviving observations are
// compacted in place, so the returned slice aliases obs (the write index
// never passes the read index, making the compaction value-identical to
// appending into a fresh slice).
func filterConsistentIn(w *mlWorkspace, obs []anchorObs, radius float64) []anchorObs {
	if len(obs) < 3 {
		return obs
	}
	pts := w.pts[:0]
	for i := 0; i < len(obs); i++ {
		ci := geom.Circle{Center: obs[i].pos, R: obs[i].d}
		for j := i + 1; j < len(obs); j++ {
			cj := geom.Circle{Center: obs[j].pos, R: obs[j].d}
			// Allow near-miss circles to produce a midpoint: measurement
			// error often separates circles that should intersect.
			for _, p := range ci.Intersect(cj, radius/2) {
				pts = append(pts, ipt{p: p, a: i, b: j})
			}
		}
	}
	w.pts = pts
	if len(pts) == 0 {
		// Degenerate: no circles intersect at all; fall back to the
		// unfiltered set rather than discarding everything (the paper keeps
		// suspicious measurements when data is scarce).
		return obs
	}

	// Find the intersection point with the most support: the number of
	// distinct circle pairs contributing a point within radius (the "mode
	// of the intersection points" the paper mentions). The per-point map of
	// contributing pairs is replaced by a generation-stamped array — the
	// stamp is checked before the distance test, exactly where the map
	// membership test sat, so the dedup semantics are unchanged.
	if need := len(obs) * len(obs); cap(w.seen) < need {
		w.seen = make([]int, need)
		w.gen = 0
	}
	seen := w.seen[:len(obs)*len(obs)]
	gen := w.gen
	bestIdx, bestSupport := 0, -1
	for x := range pts {
		support := 0
		gen++
		for y := range pts {
			key := pts[y].a*len(obs) + pts[y].b
			if seen[key] == gen {
				continue
			}
			if pts[x].p.Dist(pts[y].p) <= radius {
				seen[key] = gen
				support++
			}
		}
		if support > bestSupport {
			bestSupport = support
			bestIdx = x
		}
	}
	w.gen = gen
	center := pts[bestIdx].p

	if cap(w.keep) < len(obs) {
		w.keep = make([]bool, len(obs))
	}
	keep := w.keep[:len(obs)]
	clear(keep)
	for _, pt := range pts {
		if pt.p.Dist(center) <= radius {
			keep[pt.a] = true
			keep[pt.b] = true
		}
	}
	out := obs[:0]
	for i, o := range obs {
		if keep[i] {
			out = append(out, o)
		}
	}
	if len(out) == 0 {
		return obs
	}
	return out
}

// solveNodeIntersectionMode estimates a node's position as the centroid of
// the densest cluster of range-circle intersection points (the paper's
// §4.1.2 "mode of the intersection points" alternative). radius is the
// cluster radius; non-positive values default to 1 m.
func solveNodeIntersectionMode(obs []anchorObs, radius float64) (geom.Point, error) {
	if len(obs) < 3 {
		return geom.Point{}, errors.New("core: intersection mode needs ≥3 anchors")
	}
	if radius <= 0 {
		radius = 1
	}
	circles := make([]geom.Circle, len(obs))
	for i, o := range obs {
		circles[i] = geom.Circle{Center: o.pos, R: o.d}
	}
	pts := geom.IntersectAllPairs(circles, radius/2)
	if len(pts) == 0 {
		return geom.Point{}, errors.New("core: intersection mode: no circle intersections")
	}
	// Densest point: the one with the most neighbors within radius.
	bestIdx, bestCount := 0, -1
	for i, p := range pts {
		count := 0
		for _, q := range pts {
			if p.Dist(q) <= radius {
				count++
			}
		}
		if count > bestCount {
			bestCount = count
			bestIdx = i
		}
	}
	if bestCount < 3 {
		return geom.Point{}, errors.New("core: intersection mode: no supporting cluster")
	}
	var c geom.Point
	n := 0
	for _, q := range pts {
		if pts[bestIdx].Dist(q) <= radius {
			c = c.Add(q)
			n++
		}
	}
	return c.Scale(1 / float64(n)), nil
}

// solveNode estimates one node's position from anchor observations: a
// linearized least-squares seed followed by Gauss-Newton refinement of the
// nonlinear range objective. The seed's matrices are borrowed from ws (nil
// ws allocates).
func solveNode(ws *scratch.Arena, obs []anchorObs, maxIters int) (geom.Point, error) {
	seed, err := linearSeedIn(ws, obs)
	if err != nil {
		// Fall back to the weighted centroid of anchors.
		var c geom.Point
		var w float64
		for _, o := range obs {
			c = c.Add(o.pos.Scale(o.weight))
			w += o.weight
		}
		if w == 0 {
			return geom.Point{}, errors.New("core: solveNode: zero total weight")
		}
		seed = c.Scale(1 / w)
	}
	return gaussNewton(obs, seed, maxIters)
}

// linearSeed linearizes the circle equations by subtracting the first:
// ‖p−pa‖² − d_a² = ‖p−p0‖² − d_0² reduces to a linear system in (x, y).
func linearSeed(obs []anchorObs) (geom.Point, error) { return linearSeedIn(nil, obs) }

// linearSeedIn is linearSeed with the design matrix, right-hand side, and
// least-squares intermediates borrowed from ws (nil ws allocates). The rows
// are written straight into the matrix backing — the same values FromRows
// would have copied.
func linearSeedIn(ws *scratch.Arena, obs []anchorObs) (geom.Point, error) {
	if len(obs) < 3 {
		return geom.Point{}, errors.New("core: linearSeed: need 3 observations")
	}
	ref := obs[0]
	a := mat.NewDenseIn(ws, len(obs)-1, 2)
	rhs := ws.Float64s(len(obs) - 1)
	for k, o := range obs[1:] {
		row := a.RowView(k)
		row[0] = 2 * (o.pos.X - ref.pos.X)
		row[1] = 2 * (o.pos.Y - ref.pos.Y)
		rhs[k] = ref.d*ref.d - o.d*o.d +
			o.pos.NormSq() - ref.pos.NormSq()
	}
	x, err := mat.LeastSquaresIn(ws, a, rhs)
	if err != nil {
		return geom.Point{}, err
	}
	p := geom.Pt(x[0], x[1])
	if !p.IsFinite() {
		return geom.Point{}, errors.New("core: linearSeed: non-finite solution")
	}
	return p, nil
}

// gaussNewton refines the weighted nonlinear range least squares from seed.
func gaussNewton(obs []anchorObs, seed geom.Point, maxIters int) (geom.Point, error) {
	p := seed
	for it := 0; it < maxIters; it++ {
		// Normal equations for the 2-unknown Gauss-Newton step.
		var jtj00, jtj01, jtj11, jtr0, jtr1 float64
		for _, o := range obs {
			diff := p.Sub(o.pos)
			dist := diff.Norm()
			if dist < minSeparation {
				// Sitting on an anchor: nudge off to restore a gradient.
				diff = geom.Pt(1e-6, 1e-6)
				dist = diff.Norm()
			}
			r := dist - o.d
			jx := diff.X / dist
			jy := diff.Y / dist
			w := o.weight
			jtj00 += w * jx * jx
			jtj01 += w * jx * jy
			jtj11 += w * jy * jy
			jtr0 += w * jx * r
			jtr1 += w * jy * r
		}
		det := jtj00*jtj11 - jtj01*jtj01
		if math.Abs(det) < 1e-14 {
			return geom.Point{}, errors.New("core: gaussNewton: singular normal equations (collinear anchors)")
		}
		dx := (jtj11*jtr0 - jtj01*jtr1) / det
		dy := (jtj00*jtr1 - jtj01*jtr0) / det
		p = geom.Pt(p.X-dx, p.Y-dy)
		if !p.IsFinite() {
			return geom.Point{}, errors.New("core: gaussNewton: diverged")
		}
		if math.Hypot(dx, dy) < 1e-10 {
			break
		}
	}
	return p, nil
}
