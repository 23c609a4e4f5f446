package stats

import (
	"errors"
	"math"
	"sort"
)

// Online accumulates count, mean, variance (Welford), and extrema of a
// stream of samples in O(1) memory. Two Online accumulators can be combined
// with Merge (Chan et al.'s parallel formula), which lets the scenario
// engine aggregate sharded Monte Carlo trials without buffering them: each
// shard accumulates independently and the shards are merged in a fixed
// order, so the combined result is identical at any worker count.
//
// The zero value is an empty accumulator ready for use.
type Online struct {
	n          int64
	mean, m2   float64
	minV, maxV float64
}

// Add folds one sample into the accumulator.
func (o *Online) Add(x float64) {
	if o.n == 0 {
		o.minV, o.maxV = x, x
	} else {
		o.minV = math.Min(o.minV, x)
		o.maxV = math.Max(o.maxV, x)
	}
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// Merge folds accumulator b into o. Merging the same sequence of
// accumulators in the same order always produces the same result.
func (o *Online) Merge(b *Online) {
	if b.n == 0 {
		return
	}
	if o.n == 0 {
		*o = *b
		return
	}
	n := o.n + b.n
	d := b.mean - o.mean
	o.mean += d * float64(b.n) / float64(n)
	o.m2 += b.m2 + d*d*float64(o.n)*float64(b.n)/float64(n)
	o.minV = math.Min(o.minV, b.minV)
	o.maxV = math.Max(o.maxV, b.maxV)
	o.n = n
}

// N returns the number of samples seen.
func (o *Online) N() int64 { return o.n }

// Mean returns the running mean (0 for an empty accumulator).
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the population variance (divides by n, matching
// Variance), or 0 for fewer than two samples.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// StdDev returns the population standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Min returns the smallest sample (0 for an empty accumulator).
func (o *Online) Min() float64 { return o.minV }

// Max returns the largest sample (0 for an empty accumulator).
func (o *Online) Max() float64 { return o.maxV }

// DefaultSketchAlpha is the relative accuracy QuantileSketch guarantees by
// default: quantile estimates are within ±1% of the true sample value.
const DefaultSketchAlpha = 0.01

// QuantileSketch is a mergeable streaming quantile estimator with bounded
// relative error (a DDSketch-style log-bucketed histogram). Samples are
// binned by magnitude into buckets whose boundaries grow geometrically, so
// any quantile is recovered to within a factor of (1+alpha)/(1-alpha) of the
// true value using O(log range) memory. Bucket counts are integers, so Merge
// is exact and order-independent — combined with Online this gives the
// scenario engine deterministic parallel aggregation.
type QuantileSketch struct {
	gamma    float64
	logGamma float64
	pos, neg map[int]int64 // bucket index -> count, keyed on |v|
	zero     int64
	count    int64
}

// NewQuantileSketch returns a sketch with relative accuracy alpha in (0, 1).
func NewQuantileSketch(alpha float64) (*QuantileSketch, error) {
	if alpha <= 0 || alpha >= 1 {
		return nil, errors.New("stats: NewQuantileSketch: alpha must be in (0, 1)")
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &QuantileSketch{
		gamma:    gamma,
		logGamma: math.Log(gamma),
		pos:      make(map[int]int64),
		neg:      make(map[int]int64),
	}, nil
}

// bucket returns the bucket index for a strictly positive magnitude.
func (q *QuantileSketch) bucket(v float64) int {
	return int(math.Ceil(math.Log(v) / q.logGamma))
}

// value returns the representative value of bucket i: the midpoint estimate
// of the bucket interval (gamma^(i-1), gamma^i].
func (q *QuantileSketch) value(i int) float64 {
	return 2 * math.Pow(q.gamma, float64(i)) / (q.gamma + 1)
}

// Add folds one sample into the sketch. NaN samples are rejected silently
// (they carry no order information).
func (q *QuantileSketch) Add(v float64) {
	switch {
	case math.IsNaN(v):
		return
	case v == 0:
		q.zero++
	case v > 0:
		q.pos[q.bucket(v)]++
	default:
		q.neg[q.bucket(-v)]++
	}
	q.count++
}

// Count returns the number of samples folded in.
func (q *QuantileSketch) Count() int64 { return q.count }

// Merge folds sketch b into q. Both must share the same alpha.
func (q *QuantileSketch) Merge(b *QuantileSketch) error {
	if b.gamma != q.gamma {
		return errors.New("stats: QuantileSketch.Merge: mismatched accuracy")
	}
	for i, c := range b.pos { // order-insensitive: integer counts
		q.pos[i] += c
	}
	for i, c := range b.neg { // order-insensitive: integer counts
		q.neg[i] += c
	}
	q.zero += b.zero
	q.count += b.count
	return nil
}

// Quantile returns the p-quantile (0 <= p <= 1) estimate, accurate to the
// sketch's relative error. It returns an error for an empty sketch.
func (q *QuantileSketch) Quantile(p float64) (float64, error) {
	if q.count == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 {
		return 0, errors.New("stats: QuantileSketch.Quantile: p out of [0,1]")
	}
	rank := int64(p * float64(q.count-1))
	var cum int64
	// Walk buckets in ascending value order: negatives (descending index =
	// ascending value), the zero bucket, then positives (ascending index).
	for _, i := range sortedKeys(q.neg, true) {
		cum += q.neg[i]
		if cum > rank {
			return -q.value(i), nil
		}
	}
	cum += q.zero
	if cum > rank {
		return 0, nil
	}
	for _, i := range sortedKeys(q.pos, false) {
		cum += q.pos[i]
		if cum > rank {
			return q.value(i), nil
		}
	}
	// Unreachable: cumulative counts sum to q.count > rank.
	return 0, errors.New("stats: QuantileSketch.Quantile: internal rank overflow")
}

func sortedKeys(m map[int]int64, descending bool) []int {
	ks := make([]int, 0, len(m))
	for k := range m { // order-insensitive: sorted below
		ks = append(ks, k)
	}
	sort.Ints(ks)
	if descending {
		for l, r := 0, len(ks)-1; l < r; l, r = l+1, r-1 {
			ks[l], ks[r] = ks[r], ks[l]
		}
	}
	return ks
}
