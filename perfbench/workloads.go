package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"resilientloc/internal/engine"
	"resilientloc/internal/engine/coord"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/experiments"
)

// workload is one named set of inputs. prepare builds the inputs from the
// seed and computes whatever reference the correctness check needs; the
// returned instance is then set up, run and torn down once per timed repeat.
type workload struct {
	name string
	// why is the one-line reason the workload exists; BENCHMARK.json
	// carries the same line.
	why     string
	prepare func(b *bench) (instance, error)
}

// instance is a prepared workload.
type instance interface {
	// setup stands the system up on fresh state; it is timed as setup_s.
	setup() error
	// run executes the timed job once against the set-up system.
	run(ctx context.Context) (repeat, error)
	// teardown releases what setup built.
	teardown()
	// report turns the repeats into the workload's own named metrics.
	report(reps []repeat) []namedValue
}

// repeat is the outcome of one timed run of a workload's job.
type repeat struct {
	ops    int // operations checked
	failed int // operations that errored, were refused or mismatched
	// samples are the per-repeat raw measurements behind report.
	samples map[string][]float64
	// digests are full-precision result digests by job, for drift checks.
	digests map[string]string
	// failures describes each failed operation, for the log.
	failures []string
}

func (r *repeat) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *repeat) add(name string, v float64) {
	if r.samples == nil {
		r.samples = make(map[string][]float64)
	}
	r.samples[name] = append(r.samples[name], v)
}

// namedValue is one reported metric value.
type namedValue struct {
	name  string
	value float64
	unit  string
}

// workloads are the benchmark's four workloads, in ladder order.
var workloads = []workload{
	{
		name:    "figures-cold",
		why:     "the paper reproduction users wait for: the 19-figure suite from an empty cache; LSS descent is most of its CPU",
		prepare: prepareFigures,
	},
	{
		name:    "scenarios-mc",
		why:     "Monte Carlo throughput: ranging and multilat suites cold, many shards, detection and multilateration, no LSS",
		prepare: prepareScenarios,
	},
	{
		name:    "fleet-extend",
		why:     "cheap trials over two loopback workers: HTTP, range cache writes, prefix reuse, fan-out and merge are visible",
		prepare: prepareFleet,
	},
	{
		name:    "service-warm",
		why:     "a restarted locd answering cached specs: every request is a cache read through HTTP, run and cache, zero trials",
		prepare: prepareWarm,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// figureSeed is the seed the figure suite runs at: the paper reproduction's
// published default, which cmd/experiments runs unless told otherwise, and
// one of the two seeds the golden corpus pins. figures-cold runs the suite
// exactly as a user does — paper order, this seed — whatever the benchmark
// seed: the suite's cost swings by about a fifth across figure seeds (fig18's
// LSS restarts dominate), and its allocation volume with the running order,
// either of which would swamp the gate's bound.
const figureSeed = 1

// cheapFigures is the tiny-mode figure set: each runs in milliseconds.
var cheapFigures = []string{"fig02", "fig10", "fig11", "fig12", "fig20"}

// figureIDs returns every registered figure, or the cheap ones when tiny.
func figureIDs(tiny bool) []string {
	if tiny {
		return cheapFigures
	}
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

type figuresInst struct {
	specs  []spec.JobSpec
	golden map[string]string // rendered golden output by figure ID

	spare spareDirs
	dir   string
	sess  *run.Session
	jobs  []spec.Resolved
}

func prepareFigures(b *bench) (instance, error) {
	f := &figuresInst{golden: make(map[string]string), spare: spareDirs{b: b, prefix: "figures-"}}
	for _, id := range figureIDs(b.tiny) {
		f.specs = append(f.specs, spec.JobSpec{Kind: spec.KindFigure, ID: id, Seed: figureSeed})
		path := filepath.Join(b.root, "internal", "experiments", "testdata", "golden",
			fmt.Sprintf("%s_seed%d.golden", id, figureSeed))
		want, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("figures-cold: golden corpus: %w", err)
		}
		f.golden[id] = string(want)
	}
	return f, nil
}

func (f *figuresInst) setup() error {
	dirs, err := f.spare.take(1)
	if err != nil {
		return err
	}
	f.dir = dirs[0]
	if f.sess, err = run.NewSession(sessionOptions(f.dir)); err != nil {
		return err
	}
	f.jobs, err = spec.ResolveAll(f.specs)
	return err
}

func (f *figuresInst) run(ctx context.Context) (repeat, error) {
	var r repeat
	r.digests = make(map[string]string)
	for _, o := range run.ExecuteAllContext(ctx, f.sess, f.jobs, nil) {
		id := o.Spec.ID
		r.ops++
		r.add("fig:"+id, o.Info.Elapsed.Seconds())
		if o.Err != nil || o.Result == nil || o.Result.Figure == nil {
			r.fail("%s: no figure: %v", id, o.Err)
			continue
		}
		if got := o.Result.Figure.Render(); got != f.golden[id] {
			r.fail("%s: rendered output differs from the golden corpus", id)
		}
		c, err := canonical(o.Result)
		if err != nil {
			r.fail("%s: %v", id, err)
			continue
		}
		r.digests[id] = digest(c)
	}
	return r, nil
}

func (f *figuresInst) teardown() {
	_ = os.RemoveAll(f.dir)
	f.sess, f.jobs = nil, nil
	_ = f.spare.refill(1) // a failure resurfaces in the next take
}

func (f *figuresInst) report(reps []repeat) []namedValue {
	var walls []float64
	for _, r := range reps {
		walls = append(walls, r.samples["wall_s"]...)
	}
	return []namedValue{{"figures_cold_s", median(walls), "s"}}
}

// scenarioSuites are the suites scenarios-mc runs.
var scenarioSuites = []string{"ranging", "multilat"}

// scenarioTrials is the common trial count of scenarios-mc: a multiple of
// every default count in the two suites (8 and 16). The maxrange sweeps are
// capped at their nine distance points and keep that count.
func scenarioTrials(tiny bool) int {
	if tiny {
		return 2
	}
	return 32
}

// scenarioSpecs builds the scenarios-mc job list for a seed.
func scenarioSpecs(seed int64, tiny bool) ([]spec.JobSpec, error) {
	var specs []spec.JobSpec
	for _, name := range scenarioSuites {
		suite, ok := engine.FindSuite(name)
		if !ok {
			return nil, fmt.Errorf("scenarios-mc: no suite %q", name)
		}
		for _, sc := range suite.Scenarios {
			trials := scenarioTrials(tiny)
			if sc.MaxTrials > 0 && trials > sc.MaxTrials {
				trials = sc.MaxTrials
			}
			specs = append(specs, spec.JobSpec{Kind: spec.KindScenario, ID: sc.Name, Seed: seed, Trials: trials})
		}
	}
	return specs, nil
}

// referenceRun computes every spec once through a local run.Session on a
// fresh cache with reuse off, returning canonical bytes by spec hash.
func referenceRun(b *bench, specs []spec.JobSpec) (map[string][]byte, error) {
	dir, err := b.freshDir("reference-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opts := sessionOptions(dir)
	opts.NoReuse = true
	opts.SuiteParallel = 0 // overlap campaigns: the reference is not timed
	sess, err := run.NewSession(opts)
	if err != nil {
		return nil, err
	}
	jobs, err := spec.ResolveAll(specs)
	if err != nil {
		return nil, err
	}
	ref := make(map[string][]byte, len(specs))
	for _, o := range run.ExecuteAll(sess, jobs, nil) {
		if o.Err != nil {
			return nil, fmt.Errorf("reference %s: %w", o.Spec.ID, o.Err)
		}
		c, err := canonical(o.Result)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", o.Spec.ID, err)
		}
		ref[o.Spec.Hash()] = c
	}
	return ref, nil
}

type scenariosInst struct {
	specs []spec.JobSpec
	ref   map[string][]byte

	spare spareDirs
	dir   string
	sess  *run.Session
	jobs  []spec.Resolved
}

func prepareScenarios(b *bench) (instance, error) {
	specs, err := scenarioSpecs(b.seed, b.tiny)
	if err != nil {
		return nil, err
	}
	ref, err := referenceRun(b, specs)
	if err != nil {
		return nil, err
	}
	return &scenariosInst{specs: specs, ref: ref, spare: spareDirs{b: b, prefix: "scenarios-"}}, nil
}

func (s *scenariosInst) setup() error {
	dirs, err := s.spare.take(1)
	if err != nil {
		return err
	}
	s.dir = dirs[0]
	if s.sess, err = run.NewSession(sessionOptions(s.dir)); err != nil {
		return err
	}
	s.jobs, err = spec.ResolveAll(s.specs)
	return err
}

func (s *scenariosInst) run(ctx context.Context) (repeat, error) {
	var r repeat
	trials := 0
	for _, o := range run.ExecuteAllContext(ctx, s.sess, s.jobs, nil) {
		r.ops++
		if o.Err != nil {
			r.fail("%s: %v", o.Spec.ID, o.Err)
			continue
		}
		trials += o.Info.Trials
		c, err := canonical(o.Result)
		if err != nil || !bytes.Equal(c, s.ref[o.Spec.Hash()]) {
			r.fail("%s: result differs from the reference run (%v)", o.Spec.ID, err)
		}
	}
	r.add("trials", float64(trials))
	return r, nil
}

func (s *scenariosInst) teardown() {
	_ = os.RemoveAll(s.dir)
	s.sess, s.jobs = nil, nil
	_ = s.spare.refill(1) // a failure resurfaces in the next take
}

func (s *scenariosInst) report(reps []repeat) []namedValue {
	var rates []float64
	for _, r := range reps {
		if w := r.samples["wall_s"]; len(w) == 1 && len(r.samples["trials"]) == 1 {
			rates = append(rates, r.samples["trials"][0]/w[0])
		}
	}
	return []namedValue{{"scenarios_trials_per_s", median(rates), "1/s"}}
}

// fleetScenario is the coordinated job: a cheap, splittable Monte Carlo
// scenario whose trials cost about a millisecond each.
const fleetScenario = "multilat-town"

// fleetTrials is N, the cold job's trial count; the extension runs 4N. N is
// a multiple of the engine's shard size, so every range of the cold run
// survives the extension's geometry check and is reused.
func fleetTrials(tiny bool) int {
	if tiny {
		return 16
	}
	return 256
}

// fleetWorkers is how many in-process workers fleet-extend fans out to.
const fleetWorkers = 2

type fleetInst struct {
	cold, ext spec.JobSpec
	refCold   []byte
	refExt    []byte
	trials    int
	spare     spareDirs
	workers   []*worker
	dirs      []string
}

func prepareFleet(b *bench) (instance, error) {
	n := fleetTrials(b.tiny)
	f := &fleetInst{
		spare:  spareDirs{b: b, prefix: "worker-"},
		cold:   spec.JobSpec{Kind: spec.KindScenario, ID: fleetScenario, Seed: b.seed, Trials: n},
		ext:    spec.JobSpec{Kind: spec.KindScenario, ID: fleetScenario, Seed: b.seed, Trials: 4 * n},
		trials: n,
	}
	ref, err := referenceRun(b, []spec.JobSpec{f.cold, f.ext})
	if err != nil {
		return nil, err
	}
	f.refCold, f.refExt = ref[f.cold.Hash()], ref[f.ext.Hash()]
	return f, nil
}

func (f *fleetInst) setup() error {
	dirs, err := f.spare.take(fleetWorkers)
	if err != nil {
		return err
	}
	f.dirs = dirs
	for _, dir := range dirs {
		w, err := startWorker(dir)
		if err != nil {
			return err
		}
		f.workers = append(f.workers, w)
	}
	return nil
}

func (f *fleetInst) urls() []string {
	var urls []string
	for _, w := range f.workers {
		urls = append(urls, w.url)
	}
	return urls
}

func (f *fleetInst) run(ctx context.Context) (repeat, error) {
	var r repeat
	opts := coord.Options{Workers: f.urls(), Reuse: true, Warnings: io.Discard}
	t0 := time.Now()
	val, _, err := coord.Execute(ctx, f.cold, opts)
	r.add("fleet_cold_s", time.Since(t0).Seconds())
	r.ops++
	if err != nil {
		r.fail("cold: %v", err)
	} else if c, cerr := canonical(val); cerr != nil || !bytes.Equal(c, f.refCold) {
		r.fail("cold: result differs from the local reference (%v)", cerr)
	}
	t1 := time.Now()
	val, st, err := coord.Execute(ctx, f.ext, opts)
	r.add("fleet_extend_s", time.Since(t1).Seconds())
	r.ops++
	switch {
	case err != nil:
		r.fail("extend: %v", err)
	case st.ReusedTrials != f.trials:
		r.fail("extend: reused %d trials, want %d", st.ReusedTrials, f.trials)
	default:
		if c, cerr := canonical(val); cerr != nil || !bytes.Equal(c, f.refExt) {
			r.fail("extend: result differs from the local reference (%v)", cerr)
		}
	}
	return r, nil
}

func (f *fleetInst) teardown() {
	for _, w := range f.workers {
		w.stop()
	}
	for _, d := range f.dirs {
		_ = os.RemoveAll(d)
	}
	f.workers, f.dirs = nil, nil
	_ = f.spare.refill(fleetWorkers) // a failure resurfaces in the next take
}

func (f *fleetInst) report(reps []repeat) []namedValue {
	var cold, ext []float64
	for _, r := range reps {
		cold = append(cold, r.samples["fleet_cold_s"]...)
		ext = append(ext, r.samples["fleet_extend_s"]...)
	}
	return []namedValue{{"fleet_cold_s", median(cold), "s"}, {"fleet_extend_s", median(ext), "s"}}
}

// warmSpecs are service-warm's few hundred distinct cheap jobs: fast
// figures and small-trial scenario points, each at many seeds.
func warmSpecs(seed int64, tiny bool) []spec.JobSpec {
	seeds := 50
	if tiny {
		seeds = 3
	}
	var specs []spec.JobSpec
	for i := 0; i < seeds; i++ {
		s := seed*1000 + int64(i)
		for _, id := range []string{"fig10", "fig11", "fig12", "fig20"} {
			specs = append(specs, spec.JobSpec{Kind: spec.KindFigure, ID: id, Seed: s})
		}
		for _, id := range []string{"multilat-town", "multilat-anchor-dropout-6"} {
			specs = append(specs, spec.JobSpec{Kind: spec.KindScenario, ID: id, Seed: s, Trials: 8})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

type warmInst struct {
	b     *bench
	specs []spec.JobSpec
	ref   map[string][]byte
	dir   string // the populated cache, shared by every repeat

	w  *worker
	cl *client
}

func prepareWarm(b *bench) (instance, error) {
	return populateWarm(b, warmSpecs(b.seed, b.tiny))
}

// populateWarm writes every spec's result into one cache directory through
// a local session; those results are the reference the service must return.
func populateWarm(b *bench, specs []spec.JobSpec) (*warmInst, error) {
	dir, err := b.freshDir("warm-")
	if err != nil {
		return nil, err
	}
	w := &warmInst{b: b, specs: specs, dir: dir, ref: make(map[string][]byte)}
	opts := sessionOptions(dir)
	opts.SuiteParallel = 0
	sess, err := run.NewSession(opts)
	if err != nil {
		return nil, err
	}
	jobs, err := spec.ResolveAll(w.specs)
	if err != nil {
		return nil, err
	}
	for _, o := range run.ExecuteAll(sess, jobs, nil) {
		if o.Err != nil {
			return nil, fmt.Errorf("service-warm: populating %s: %w", o.Spec.ID, o.Err)
		}
		c, err := canonical(o.Result)
		if err != nil {
			return nil, err
		}
		w.ref[o.Spec.Hash()] = c
	}
	return w, nil
}

// setup opens a fresh server over the populated cache, as a restarted locd
// would: its job table is empty, so only the cache can answer.
func (w *warmInst) setup() error {
	var err error
	w.w, err = startWorker(w.dir)
	w.cl = newClient()
	return err
}

func (w *warmInst) run(ctx context.Context) (repeat, error) {
	var r repeat
	for _, sp := range w.specs {
		r.ops++
		t0 := time.Now()
		js, _, err := w.cl.do(ctx, w.w.url, sp)
		lat := time.Since(t0)
		if err != nil {
			r.fail("%s seed %d: %v", sp.ID, sp.Seed, err)
			continue
		}
		r.add("warm_ms", lat.Seconds()*1e3)
		if !js.Cached {
			r.fail("%s seed %d: served by computing, not from the cache", sp.ID, sp.Seed)
			continue
		}
		if c, cerr := canonical(js.Result); cerr != nil || !bytes.Equal(c, w.ref[sp.Hash()]) {
			r.fail("%s seed %d: result differs from the reference (%v)", sp.ID, sp.Seed, cerr)
		}
	}
	return r, nil
}

func (w *warmInst) teardown() {
	if w.cl != nil {
		w.cl.close()
	}
	if w.w != nil {
		w.w.stop()
	}
	w.w, w.cl = nil, nil
}

func (w *warmInst) report(reps []repeat) []namedValue {
	var lat []float64
	for _, r := range reps {
		lat = append(lat, r.samples["warm_ms"]...)
	}
	return []namedValue{
		{"warm_p50_ms", percentile(lat, 0.50), "ms"},
		{"warm_p95_ms", percentile(lat, 0.95), "ms"},
		{"warm_requests", float64(len(lat)), "count"},
	}
}
