package coord_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"resilientloc/internal/engine/coord"
	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/locsrv"
	"resilientloc/internal/obs"
)

// newWorker stands up a real locd service (internal/locsrv) and returns its
// base URL.
func newWorker(t *testing.T, opts run.Options) string {
	t.Helper()
	if opts.CacheDir == "" && !opts.NoCache {
		opts.CacheDir = filepath.Join(t.TempDir(), "cache")
	}
	srv, err := locsrv.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { srv.Close(); hs.Close() })
	return hs.URL
}

// localValue executes the spec in-process — the reference the coordinated
// result must reproduce byte-for-byte (modulo execution metadata).
func localValue(t *testing.T, sp spec.JobSpec) *spec.Value {
	t.Helper()
	sess, err := run.NewSession(run.Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	val, _, err := run.ExecuteSpec(sess, sp)
	if err != nil {
		t.Fatal(err)
	}
	return val
}

// normalized strips execution metadata and renders the value as JSON.
func normalized(t *testing.T, v *spec.Value) string {
	t.Helper()
	c := *v
	c.ClearExecutionMeta()
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCoordinatedMatchesGoldenCorpus is the acceptance check: a multi-trial
// figure job coordinated across one, two and three real locd workers — a
// different partition of its trial space each time — renders
// byte-identically to the golden corpus at seeds 1 and 5; a library
// scenario reproduces the local run the same way at several shard sizes.
func TestCoordinatedMatchesGoldenCorpus(t *testing.T) {
	workers := []string{newWorker(t, run.Options{}), newWorker(t, run.Options{}), newWorker(t, run.Options{})}
	goldenDir := filepath.Join("..", "..", "experiments", "testdata", "golden")

	for _, seed := range []int64{1, 5} {
		sp := spec.JobSpec{Kind: spec.KindFigure, ID: "maxrange", Seed: seed}
		want, err := os.ReadFile(filepath.Join(goldenDir, fmt.Sprintf("maxrange_seed%d.golden", seed)))
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= len(workers); k++ {
			val, st, err := coord.Execute(context.Background(), sp,
				coord.Options{Workers: workers[:k], Warnings: io.Discard})
			if err != nil {
				t.Fatalf("maxrange seed %d over %d workers: %v", seed, k, err)
			}
			if val.Figure == nil {
				t.Fatalf("maxrange seed %d: no figure in %+v", seed, val)
			}
			if got := val.Figure.Render(); got != string(want) {
				t.Errorf("maxrange seed %d over %d workers diverged from golden output\n--- got ---\n%s--- want ---\n%s",
					seed, k, got, want)
			}
			// maxrange pins shard size 1, so the scheduler seeds one
			// assignment per worker and carves each into several chunks.
			if st.Ranges <= k || st.Trials != 36 {
				t.Errorf("%d workers: stats %+v, want more than %d ranges over 36 trials", k, st, k)
			}
		}
	}

	// A scenario job: coordinated result equals the local run. Shard size
	// 8 covers all 8 trials in one range, submitted whole.
	for _, shardSize := range []int{1, 3, 8} {
		sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 8, ShardSize: shardSize}
		want := normalized(t, localValue(t, sp))
		val, st, err := coord.Execute(context.Background(), sp,
			coord.Options{Workers: workers, Warnings: io.Discard})
		if err != nil {
			t.Fatalf("shard size %d: %v", shardSize, err)
		}
		if got := normalized(t, val); got != want {
			t.Errorf("shard size %d: coordinated scenario diverged\n got %s\nwant %s", shardSize, got, want)
		}
		if shardSize == 8 && st.Ranges != 1 {
			t.Errorf("one-shard job split into %d ranges", st.Ranges)
		}
	}

	// A single-trial figure cannot split; the coordinator submits it whole.
	single := spec.JobSpec{Kind: spec.KindFigure, ID: "fig11", Seed: 1}
	val, st, err := coord.Execute(context.Background(), single,
		coord.Options{Workers: workers, Warnings: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	wantFig, err := os.ReadFile(filepath.Join(goldenDir, "fig11_seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if val.Figure == nil || val.Figure.Render() != string(wantFig) {
		t.Error("single-trial figure over the coordinator diverged from golden output")
	}
	if st.Ranges != 1 {
		t.Errorf("single-trial job split into %d ranges", st.Ranges)
	}
}

// workerRow is one parsed per-worker summary row of the rendered progress.
type workerRow struct {
	worker                 string
	ranges, trials, steals int
	perSec                 float64
}

var (
	counterRe   = regexp.MustCompile(`^\S+ +(\d+)/(\d+) trials$`)
	workerRowRe = regexp.MustCompile(`^  worker (\S+): ranges=(\d+) trials=(\d+) trials/s=([0-9.]+) retries=\d+ hedges=\d+ steals=(\d+) reused=\d+$`)
)

// renderedProgress parses a coordinated job's non-terminal progress output
// into its counter values (in print order) and per-worker summary rows,
// failing on any line that is neither, and on any ANSI control sequence.
func renderedProgress(t *testing.T, out string) (counters []int, total int, rows []workerRow) {
	t.Helper()
	if strings.Contains(out, "\x1b[") || strings.Contains(out, "\r") {
		t.Errorf("non-terminal progress carries control sequences:\n%q", out)
	}
	for _, l := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if m := counterRe.FindStringSubmatch(l); m != nil {
			done, _ := strconv.Atoi(m[1])
			total, _ = strconv.Atoi(m[2])
			counters = append(counters, done)
			continue
		}
		m := workerRowRe.FindStringSubmatch(l)
		if m == nil {
			t.Errorf("unexpected progress line %q", l)
			continue
		}
		r := workerRow{worker: m[1]}
		r.ranges, _ = strconv.Atoi(m[2])
		r.trials, _ = strconv.Atoi(m[3])
		r.perSec, _ = strconv.ParseFloat(m[4], 64)
		r.steals, _ = strconv.Atoi(m[5])
		rows = append(rows, r)
	}
	return counters, total, rows
}

// TestCoordinatorProgressAggregates: the rendered aggregate counter never
// decreases and reaches the job's trial count.
func TestCoordinatorProgressAggregates(t *testing.T) {
	workers := []string{newWorker(t, run.Options{NoCache: true})}
	var prog strings.Builder
	val, _, err := coord.Execute(context.Background(),
		spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 2, Trials: 8, ShardSize: 1},
		coord.Options{Workers: workers, Warnings: io.Discard, Progress: &prog})
	if err != nil {
		t.Fatal(err)
	}
	if val.Report == nil && val.Figure == nil && val.Partial != nil {
		t.Fatalf("coordinator leaked a partial: %+v", val)
	}
	counters, total, rows := renderedProgress(t, prog.String())
	if total != 8 || len(counters) == 0 || counters[len(counters)-1] != 8 {
		t.Fatalf("progress ended at %v of %d, want 8/8:\n%s", counters, total, prog.String())
	}
	for i := 1; i < len(counters); i++ {
		if counters[i] < counters[i-1] {
			t.Errorf("progress counter decreased: %v", counters)
		}
	}
	if len(rows) != 1 || rows[0].worker != workers[0] || rows[0].trials != 8 {
		t.Errorf("want one summary row crediting %s with 8 trials, got %+v", workers[0], rows)
	}
}

// erroringWorker always 500s job submissions — the "worker that 500s
// mid-engagement" fault.
func erroringWorker(t *testing.T) string {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"induced failure"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(hs.Close)
	return hs.URL
}

// hangingWorker accepts a submission, reports the job running, and then
// never delivers another byte on the event stream.
func hangingWorker(t *testing.T) string {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"jobs":[{"id":"hang","status":"running","trials":1}]}`)
		case strings.HasSuffix(r.URL.Path, "/events"):
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			<-r.Context().Done() // hold the stream open forever
		default:
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"id":"hang","status":"running","trials":1}`)
		}
	}))
	t.Cleanup(hs.Close)
	return hs.URL
}

// slowEventsProxy fronts a real worker but delays every event-stream
// response long enough to trip the stall detector, so the hedged duplicate
// attempt races the slow original to completion.
func slowEventsProxy(t *testing.T, target string, delay time.Duration) string {
	t.Helper()
	client := &http.Client{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			time.Sleep(delay)
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.Path, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := client.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	t.Cleanup(hs.Close)
	return hs.URL
}

// TestCoordinatorRetriesFaultyWorkers: ranges assigned to a worker that
// 500s, a worker that is simply down, or a worker that hangs mid-range are
// reassigned to the survivors, and the merged result is still exact.
func TestCoordinatorRetriesFaultyWorkers(t *testing.T) {
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 3, Trials: 6, ShardSize: 2}
	want := normalized(t, localValue(t, sp))
	healthy := newWorker(t, run.Options{})

	// A dead worker: nothing listens on the port (the server is closed).
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	for name, faulty := range map[string]string{
		"erroring": erroringWorker(t),
		"dead":     deadURL,
		"hanging":  hangingWorker(t),
	} {
		val, st, err := coord.Execute(context.Background(), sp, coord.Options{
			Workers:      []string{faulty, healthy},
			StallTimeout: 200 * time.Millisecond,
			Warnings:     io.Discard,
		})
		if err != nil {
			t.Fatalf("%s worker: %v", name, err)
		}
		if got := normalized(t, val); got != want {
			t.Errorf("%s worker: merged result diverged", name)
		}
		if st.Retries == 0 {
			t.Errorf("%s worker: no retries recorded (stats %+v)", name, st)
		}
		if st.Workers != 1 {
			t.Errorf("%s worker: %d workers completed ranges, want only the healthy one", name, st.Workers)
		}
	}
}

// TestCoordinatorAllWorkersDown: with no survivors the execution fails with
// the range's error instead of hanging.
func TestCoordinatorAllWorkersDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	_, _, err := coord.Execute(context.Background(),
		spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 4},
		coord.Options{Workers: []string{deadURL}, MaxAttempts: 2,
			StallTimeout: 100 * time.Millisecond, Warnings: io.Discard})
	if err == nil || !strings.Contains(err.Error(), "attempts failed") {
		t.Errorf("err %v, want an all-attempts-failed error", err)
	}
}

// TestCoordinatorDedupesDuplicateCompletions: a slow worker trips the stall
// detector, the range is hedged onto a fast worker, and both eventually
// complete the same content-addressed sub-job. Exactly one copy enters the
// merge (first wins) — a double-counted range would fail the merge's
// tiling validation or corrupt the aggregate, so byte-identity to the
// local run proves the dedupe.
func TestCoordinatorDedupesDuplicateCompletions(t *testing.T) {
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 4, Trials: 6, ShardSize: 3}
	want := normalized(t, localValue(t, sp))
	// Both fronts share one backing worker — and thus one result cache and
	// job table — so the hedged duplicate resolves to the same
	// content-addressed job on the backend.
	backend := newWorker(t, run.Options{})
	slow := slowEventsProxy(t, backend, 400*time.Millisecond)

	val, st, err := coord.Execute(context.Background(), sp, coord.Options{
		Workers:      []string{slow, backend},
		StallTimeout: 100 * time.Millisecond,
		Warnings:     io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := normalized(t, val); got != want {
		t.Errorf("deduped result diverged\n got %s\nwant %s", got, want)
	}
	if st.Retries == 0 {
		t.Errorf("no hedge recorded: %+v", st)
	}
}

// TestCoordinatorPermanentFailureDoesNotRetry: a worker reporting a
// terminal job failure (not a transport error, not a skipped sibling) ends
// the range immediately — the sub-job is deterministic, so every other
// worker would compute the same failure. The 4-trial job fits one shard,
// so it is one range, submitted once.
func TestCoordinatorPermanentFailureDoesNotRetry(t *testing.T) {
	var submits int32
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			atomic.AddInt32(&submits, 1)
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"jobs":[{"id":"x","status":"failed","error":"trial 3: boom"}]}`)
			return
		}
		w.WriteHeader(http.StatusNotFound)
	}))
	t.Cleanup(failing.Close)

	_, st, err := coord.Execute(context.Background(),
		spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 4},
		coord.Options{Workers: []string{failing.URL, failing.URL},
			StallTimeout: time.Second, Warnings: io.Discard})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err %v, want the job's own failure", err)
	}
	if got := atomic.LoadInt32(&submits); got != 1 || st.Ranges != 1 {
		t.Errorf("deterministic failure was submitted %d times over %d ranges, want once over 1", got, st.Ranges)
	}
	if st.Retries != 0 {
		t.Errorf("deterministic failure recorded %d retries, want 0", st.Retries)
	}
}

// TestExecuteValidation: option errors surface before any network traffic.
func TestExecuteValidation(t *testing.T) {
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1}
	if _, _, err := coord.Execute(context.Background(), sp, coord.Options{}); err == nil {
		t.Error("no workers accepted")
	}
	ranged := sp
	ranged.TrialRange = &spec.Range{Lo: 0, Hi: 2}
	if _, _, err := coord.Execute(context.Background(), ranged,
		coord.Options{Workers: []string{"http://127.0.0.1:1"}}); err == nil ||
		!strings.Contains(err.Error(), "owns the split") {
		t.Errorf("pre-ranged spec: err %v, want rejection", err)
	}
	if _, _, err := coord.Execute(context.Background(),
		spec.JobSpec{Kind: spec.KindScenario, ID: "no-such", Seed: 1},
		coord.Options{Workers: []string{"http://127.0.0.1:1"}}); err == nil {
		t.Error("unknown job accepted")
	}
}

// TestCoordinatorTraceAndScoreboard: under tracing, one coordinated run
// exports spans from all three layers — coordinator ranges and attempts,
// each winning worker's run.job grafted beneath its range, and the engine
// shard spans beneath that — and the scoreboard snapshots attribute every
// range and trial to a worker.
func TestCoordinatorTraceAndScoreboard(t *testing.T) {
	workers := []string{newWorker(t, run.Options{NoCache: true}), newWorker(t, run.Options{NoCache: true})}
	sp := spec.JobSpec{Kind: spec.KindScenario, ID: "multilat-town", Seed: 1, Trials: 8, ShardSize: 2}

	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	var prog strings.Builder
	val, st, err := coord.Execute(ctx, sp, coord.Options{
		Workers: workers, Warnings: io.Discard, Progress: &prog,
	})
	if err != nil {
		t.Fatal(err)
	}
	if val.Report == nil {
		t.Fatalf("no report in %+v", val)
	}

	recs := tr.Export()
	byID := make(map[int64]obs.SpanRecord, len(recs))
	counts := make(map[string]int)
	for _, r := range recs {
		byID[r.ID] = r
		counts[r.Name]++
	}
	for _, name := range []string{"coord.job", "coord.range", "coord.attempt", "run.job", "engine.run", "engine.shard"} {
		if counts[name] == 0 {
			t.Errorf("trace lacks any %q span (have %v)", name, counts)
		}
	}
	if counts["coord.range"] != st.Ranges {
		t.Errorf("%d coord.range spans, want %d", counts["coord.range"], st.Ranges)
	}
	if counts["run.job"] != st.Ranges {
		t.Errorf("%d grafted run.job spans, want one per range (%d)", counts["run.job"], st.Ranges)
	}
	// Parentage across the graft points: worker jobs hang off coordinator
	// ranges, engine runs off worker jobs.
	for _, r := range recs {
		switch r.Name {
		case "run.job":
			if byID[r.Parent].Name != "coord.range" {
				t.Errorf("run.job parent is %q, want coord.range", byID[r.Parent].Name)
			}
		case "engine.run":
			if byID[r.Parent].Name != "run.job" {
				t.Errorf("engine.run parent is %q, want run.job", byID[r.Parent].Name)
			}
		case "engine.shard":
			if byID[r.Parent].Name != "engine.run" {
				t.Errorf("engine.shard parent is %q, want engine.run", byID[r.Parent].Name)
			}
		}
	}

	// Scoreboard: the summary rows account for every range and trial.
	_, _, rows := renderedProgress(t, prog.String())
	if len(rows) == 0 || len(rows) > len(workers) {
		t.Fatalf("progress has %d worker rows, want 1..%d:\n%s", len(rows), len(workers), prog.String())
	}
	var ranges, trials int
	for _, r := range rows {
		ranges += r.ranges
		trials += r.trials
		if r.ranges > 0 && r.perSec <= 0 {
			t.Errorf("worker %s won %d ranges but reports %g trials/s", r.worker, r.ranges, r.perSec)
		}
	}
	if ranges != st.Ranges || trials != st.Trials {
		t.Errorf("scoreboard totals %d ranges / %d trials, want %d / %d", ranges, trials, st.Ranges, st.Trials)
	}
	if st.Hedges != 0 || st.DedupLosses != 0 {
		t.Errorf("healthy fleet recorded hedges=%d dedupLosses=%d, want 0/0", st.Hedges, st.DedupLosses)
	}
}
