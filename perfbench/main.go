// Command perfbench is the repository's benchmark. One invocation runs one
// workload at one seed:
//
//	bash perfbench/run.sh --workload scenarios-mc --seed 3 --seconds 15 --trace 0
//
// With --trace 0 it repeats the workload's job on fresh state for about
// --seconds and reports the end-to-end metrics; with --trace 1 it times the
// same jobs at each rung of the layer ladder (engine, run, cache, locsrv,
// coord) under a tracer and reports the per-layer metrics. Either way the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 19, "failed": 0, "metrics": {"wall_s": {"value": 20.1, "unit": "s"}, ...}}
//
// Every run also writes a record (machine label, raw per-repeat samples and
// aggregates) under .bench_build/perfbench/records, and a traced run writes
// its Chrome trace under .bench_build/perfbench/traces. Two records compare
// with --compare a.json b.json, which flags records taken on different
// machines.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"resilientloc/internal/engine/cache"
)

// setupSamples is the fewest back-to-back set-ups a block times for
// setup_s. A block also runs for at least a thirtieth of the measuring
// budget, and one runs before and one after the timed repeats: a single
// set-up takes well under a millisecond, and only samples spread over
// seconds average out the machine's slow and fast spells the way the
// repeats do.
const setupSamples = 21

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root (golden corpus; output under .bench_build)")
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "measuring budget of an untraced run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end measurement")
	tiny := fs.Bool("tiny", false, "shrink every workload to a few jobs (self-test)")
	compare := fs.Bool("compare", false, "compare the two record files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare takes two record files")
			return 2
		}
		if err := compareRecords(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out := filepath.Join(absRoot, ".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(out, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	b := &bench{
		root:    absRoot,
		tmp:     tmp,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		tiny:    *tiny,
		out:     stdout,
	}
	rec := &record{
		Label:    machineLabel(absRoot),
		Workload: w.name,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace,
		Tiny:     *tiny,
		Started:  time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Fprintf(stdout, "perfbench %s seed %d trace %d on %s\n", w.name, *seed, *trace, rec.Label)
	ctx := context.Background()
	if *trace == 1 {
		err = tracedRun(ctx, b, w, rec, filepath.Join(out, "traces"))
	} else {
		err = measuredRun(ctx, b, w, rec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if path, err := rec.save(filepath.Join(out, "records")); err != nil {
		fmt.Fprintln(stderr, "perfbench: saving record:", err)
	} else {
		fmt.Fprintln(stdout, "record:", path)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// label identifies the machine and build a record was taken on. Records
// with different labels are not comparable as a before/after pair.
type label struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	// Build is the program's own binary fingerprint (cache.Fingerprint).
	Build string `json:"build"`
}

func (l label) String() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s, commit %s, build %s",
		l.CPU, l.NProc, l.GOMAXPROCS, l.Go, l.Commit, l.Build)
}

// sameMachine reports whether two labels describe the same hardware and
// toolchain; commit and build are what a comparison is meant to vary.
func (l label) sameMachine(o label) bool {
	return l.CPU == o.CPU && l.NProc == o.NProc && l.GOMAXPROCS == o.GOMAXPROCS && l.Go == o.Go
}

func machineLabel(root string) label {
	l := label{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Build:      cache.Fingerprint(),
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				l.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		l.Commit = strings.TrimSpace(string(out))
	}
	return l
}

// record is everything one run measured: the machine label, the raw
// per-repeat samples, and the aggregates printed on the result line.
type record struct {
	Label    label  `json:"label"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Tiny     bool   `json:"tiny,omitempty"`
	Started  string `json:"started"`
	// ReferenceS is the untimed preparation: inputs, references, the warm
	// workload's cache population.
	ReferenceS   float64   `json:"reference_s,omitempty"`
	SetupSamples []float64 `json:"setup_samples_s,omitempty"`
	// RepeatSetups are the set-ups before each timed repeat, kept raw.
	RepeatSetups    []float64            `json:"repeat_setups_s,omitempty"`
	Repeats         []recordRepeat       `json:"repeats,omitempty"`
	WorkloadMetrics map[string]float64   `json:"workload_metrics,omitempty"`
	Layers          map[string]float64   `json:"layer_metrics,omitempty"`
	LayerSamples    map[string][]float64 `json:"layer_samples,omitempty"`
	Failures        []string             `json:"failures,omitempty"`
	Result          result               `json:"result"`
}

type recordRepeat struct {
	Ops     int                  `json:"ops"`
	Failed  int                  `json:"failed"`
	Samples map[string][]float64 `json:"samples"`
	Digests map[string]string    `json:"digests,omitempty"`
}

func (r *record) save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json",
		r.Workload, r.Seed, r.Trace, time.Now().UnixNano()))
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// measuredRun is the untraced run: prepare once, then set up, run and tear
// down on fresh state until the budget is spent (at least once), and report
// medians over the repeats.
func measuredRun(ctx context.Context, b *bench, w workload, rec *record) error {
	t0 := time.Now()
	inst, err := w.prepare(b)
	if err != nil {
		return err
	}
	rec.ReferenceS = time.Since(t0).Seconds()
	var reps []repeat
	setups, err := setupBlock(inst, b.seconds/30)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	start := time.Now()
	for {
		r, setup, err := timedRepeat(ctx, inst)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		reps = append(reps, r)
		rec.RepeatSetups = append(rec.RepeatSetups, setup.Seconds())
		// Stop when another repeat of the same length would overrun.
		wall := time.Duration(r.samples["wall_s"][0] * float64(time.Second))
		if time.Since(start)+wall+setup > b.seconds {
			break
		}
	}
	after, err := setupBlock(inst, b.seconds/30)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	setups = append(setups, after...)
	var walls, objects, allocMB []float64
	for _, r := range reps {
		walls = append(walls, r.samples["wall_s"]...)
		objects = append(objects, r.samples["alloc_objects"]...)
		allocMB = append(allocMB, r.samples["alloc_mb"]...)
	}
	res := result{Metrics: map[string]metricValue{
		"wall_s":        {median(walls), "s"},
		"setup_s":       {median(setups), "s"},
		"alloc_objects": {median(objects), "count"},
	}}
	rec.SetupSamples = setups
	for _, r := range reps {
		res.Attempted += r.ops
		res.Failed += r.failed
		rec.Failures = append(rec.Failures, r.failures...)
		rec.Repeats = append(rec.Repeats, recordRepeat{Ops: r.ops, Failed: r.failed, Samples: r.samples, Digests: r.digests})
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	rec.WorkloadMetrics = make(map[string]float64)
	fmt.Fprintf(b.out, "%d timed repeats; preparation %.3f s\n", len(reps), rec.ReferenceS)
	named := append(inst.report(reps),
		namedValue{"alloc_mb", median(allocMB), "MB"},
		namedValue{"failed_frac", float64(res.Failed) / float64(max(res.Attempted, 1)), "frac"},
		namedValue{"peak_rss_mb", peakRSSMB(), "MB"})
	for _, nv := range named {
		rec.WorkloadMetrics[nv.name] = nv.value
		fmt.Fprintf(b.out, "  %-24s %14.6g %s\n", nv.name, nv.value, nv.unit)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(b.out, "  %-24s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(b.out, "  FAILED:", f)
	}
	rec.Result = res
	return nil
}

// timedRepeat sets up, runs and tears down one repeat of a workload,
// recording the job's wall time, its heap allocation and the teardown time
// in the repeat's samples, and returning the set-up time.
func timedRepeat(ctx context.Context, inst instance) (repeat, time.Duration, error) {
	// Start from a collected heap, so the previous work's garbage is not
	// collected on this repeat's clock.
	runtime.GC()
	t := time.Now()
	err := inst.setup()
	setup := time.Since(t)
	if err != nil {
		inst.teardown()
		return repeat{}, setup, fmt.Errorf("set-up: %w", err)
	}
	b0, o0 := heapAllocs()
	t = time.Now()
	r, err := inst.run(ctx)
	wall := time.Since(t)
	b1, o1 := heapAllocs()
	t = time.Now()
	inst.teardown()
	r.add("teardown_s", time.Since(t).Seconds())
	r.add("wall_s", wall.Seconds())
	r.add("alloc_mb", float64(b1-b0)/(1<<20))
	r.add("alloc_objects", float64(o1-o0))
	return r, setup, err
}

// setupBlock stands the system up and tears it down back to back, for at
// least window and setupSamples times, returning each set-up's duration.
func setupBlock(inst instance, window time.Duration) ([]float64, error) {
	var out []float64
	runtime.GC() // no collection left over from the work before the block
	start := time.Now()
	for len(out) < setupSamples || time.Since(start) < window {
		t := time.Now()
		err := inst.setup()
		d := time.Since(t)
		inst.teardown()
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// compareRecords prints two records' metrics side by side, and says so
// loudly when they come from different machines.
func compareRecords(w io.Writer, pathA, pathB string) error {
	load := func(p string) (*record, error) {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &r, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Tiny != b.Tiny {
		return errors.New("records are of different workloads, modes or sizes")
	}
	if !a.Label.sameMachine(b.Label) {
		fmt.Fprintf(w, "CROSS-MACHINE comparison: the numbers below are not a before/after pair\n  a: %s\n  b: %s\n", a.Label, b.Label)
	}
	all := map[string][2]float64{}
	add := func(m map[string]float64, i int) {
		for k, v := range m {
			p := all[k]
			p[i] = v
			all[k] = p
		}
	}
	for i, r := range []*record{a, b} {
		m := map[string]float64{}
		for k, v := range r.Result.Metrics {
			m[k] = v.Value
		}
		for k, v := range r.WorkloadMetrics {
			m[k] = v
		}
		for k, v := range r.Layers {
			m[k] = v
		}
		add(m, i)
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-32s %14s %14s %9s\n", "metric", "a", "b", "b/a")
	for _, k := range names {
		p := all[k]
		fmt.Fprintf(w, "%-32s %14.6g %14.6g %9.3f\n", k, p[0], p[1], p[1]/p[0])
	}
	return nil
}
