package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/metrics"
	"time"

	"resilientloc/internal/engine/run"
	"resilientloc/internal/engine/spec"
	"resilientloc/internal/locsrv"
	"resilientloc/internal/obs"
)

// bench is one invocation's environment: the seed, the measuring budget and
// the scratch directory every cache and server of the run lives under.
type bench struct {
	root    string // repository root: golden corpus, output directory
	tmp     string // per-process scratch directory, removed on exit
	seed    int64
	seconds time.Duration
	// tiny shrinks every workload to a few jobs; the self-test uses it.
	tiny bool
	out  io.Writer
}

// freshDir returns a new empty directory under the run's scratch area.
func (b *bench) freshDir(prefix string) (string, error) {
	return os.MkdirTemp(b.tmp, prefix)
}

// spareDirs keeps empty directories made ahead of the set-up that takes
// them. Making a directory is the benchmark's housekeeping, not the
// program's set-up, and the file system's latency here swings far more from
// run to run than the program's own set-up work does.
type spareDirs struct {
	b      *bench
	prefix string
	ready  []string
}

// refill makes empty directories until n are ready; teardowns call it, off
// the set-up clock.
func (s *spareDirs) refill(n int) error {
	for len(s.ready) < n {
		d, err := s.b.freshDir(s.prefix)
		if err != nil {
			return err
		}
		s.ready = append(s.ready, d)
	}
	return nil
}

// take hands out n empty directories, making any that are not ready.
func (s *spareDirs) take(n int) ([]string, error) {
	if err := s.refill(n); err != nil {
		return nil, err
	}
	out := s.ready[:n:n]
	s.ready = s.ready[n:]
	return out, nil
}

// sessionOptions are the run options every session of the benchmark uses:
// a private cache directory, no opportunistic GC, sequential suites (the
// CLI default), diagnostics discarded.
func sessionOptions(dir string) run.Options {
	return run.Options{CacheDir: dir, CacheGC: "off", SuiteParallel: 1, Warnings: io.Discard}
}

// canonical is the comparison form of a result: its JSON with the
// per-execution metadata (worker count, wall time) stripped, which is the
// only part two equivalent executions may differ in.
func canonical(v *spec.Value) ([]byte, error) {
	if v == nil {
		return nil, errors.New("nil result")
	}
	c := *v
	if v.Report != nil {
		r := *v.Report
		r.ClearExecutionMeta()
		c.Report = &r
	}
	return json.Marshal(&c)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// worker is one in-process locd: a locsrv.Server over its own cache
// directory, served on a loopback listener.
type worker struct {
	srv  *locsrv.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startWorker(dir string) (*worker, error) {
	srv, err := locsrv.New(sessionOptions(dir))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &worker{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	// A worker is up once it answers its health check, as a deployment
	// would probe it.
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(w.url + "/healthz")
	if err != nil {
		w.stop()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.stop()
		return nil, fmt.Errorf("worker health check: %s", resp.Status)
	}
	return w, nil
}

// stop closes the event streams, shuts the listener down and waits for the
// serving goroutine to exit. Jobs still running in the worker's session
// finish in the background of the shared budget; every caller waits for its
// jobs before stopping.
func (w *worker) stop() {
	w.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx)
	<-w.done
}

// client is the closed-loop locd client: one request in flight at a time.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// wireJob is the subset of locd's job summary the client reads.
type wireJob struct {
	ID           string      `json:"id"`
	Status       string      `json:"status"`
	Cached       bool        `json:"cached"`
	ReusedTrials int         `json:"reused_trials"`
	CacheKey     string      `json:"cache_key"`
	Error        string      `json:"error"`
	Result       *spec.Value `json:"result"`
	// Trace is the job's span subtree as the worker recorded it.
	Trace []obs.SpanRecord `json:"trace"`
}

// errRejected marks a 429: the service refused the submission.
var errRejected = errors.New("submission rejected with 429")

// requestTimes are the three legs of one submit-to-result cycle.
type requestTimes struct {
	submit, wait, fetch time.Duration
	resultBytes         int
}

// do submits one spec, waits on its event stream for the terminal line and
// fetches the result: the three calls a locd client makes per job.
func (c *client) do(ctx context.Context, base string, sp spec.JobSpec) (*wireJob, requestTimes, error) {
	var rt requestTimes
	t0 := time.Now()
	id, err := c.submit(ctx, base, sp)
	rt.submit = time.Since(t0)
	if err != nil {
		return nil, rt, err
	}
	t1 := time.Now()
	err = c.wait(ctx, base, id)
	rt.wait = time.Since(t1)
	if err != nil {
		return nil, rt, err
	}
	t2 := time.Now()
	js, n, err := c.fetch(ctx, base, id)
	rt.fetch = time.Since(t2)
	rt.resultBytes = n
	return js, rt, err
}

func (c *client) submit(ctx context.Context, base string, sp spec.JobSpec) (string, error) {
	_, span := obs.Start(ctx, "bench.locsrv.submit")
	defer span.End()
	body, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		_, _ = io.Copy(io.Discard, resp.Body)
		return "", errRejected
	}
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit %s: %s: %s", sp.ID, resp.Status, bytes.TrimSpace(msg))
	}
	var out struct {
		Jobs []wireJob `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("submit %s: decoding response: %w", sp.ID, err)
	}
	// Read to the end so the connection goes back to the pool.
	_, _ = io.Copy(io.Discard, resp.Body)
	if len(out.Jobs) != 1 {
		return "", fmt.Errorf("submit %s: %d jobs in response", sp.ID, len(out.Jobs))
	}
	return out.Jobs[0].ID, nil
}

// wait reads the job's NDJSON event stream until its terminal line.
func (c *client) wait(ctx context.Context, base, id string) error {
	_, span := obs.Start(ctx, "bench.locsrv.wait")
	defer span.End()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events %s: %w", id, err)
		}
		switch ev.Status {
		case "":
		case "done":
			// The stream ends after its terminal line; reading to the end
			// lets the connection be reused instead of closed.
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		default:
			return fmt.Errorf("job %s %s: %s", id, ev.Status, ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events %s: stream ended without a terminal line", id)
}

func (c *client) fetch(ctx context.Context, base, id string) (*wireJob, int, error) {
	_, span := obs.Start(ctx, "bench.locsrv.fetch")
	defer span.End()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(body), fmt.Errorf("fetch %s: %s", id, resp.Status)
	}
	var js wireJob
	if err := json.Unmarshal(body, &js); err != nil {
		return nil, len(body), fmt.Errorf("fetch %s: %w", id, err)
	}
	if js.Status != "done" || js.Result == nil {
		return &js, len(body), fmt.Errorf("fetch %s: status %q without a result", id, js.Status)
	}
	return &js, len(body), nil
}

// counters is a snapshot of the program's own obs.Default() metrics.
type counters struct {
	c map[string]int64
	h map[string]obs.HistogramSnapshot
}

func snapshotCounters() counters {
	s := obs.Default().Snapshot()
	hs := make(map[string]obs.HistogramSnapshot, len(s.Histograms))
	for _, h := range s.Histograms {
		hs[h.Name] = h
	}
	return counters{c: s.Counters, h: hs}
}

// delta returns how much a counter grew since the earlier snapshot.
func (c counters) delta(before counters, name string) float64 {
	return float64(c.c[name] - before.c[name])
}

// sumDelta returns how much a histogram's sum grew since before.
func (c counters) sumDelta(before counters, name string) float64 {
	return c.h[name].Sum - before.h[name].Sum
}

// countDelta returns how many observations a histogram gained since before.
func (c counters) countDelta(before counters, name string) float64 {
	return float64(c.h[name].Count - before.h[name].Count)
}

// heapAllocs reads the process's cumulative heap allocation, in bytes and
// in objects, as the runtime counts it.
func heapAllocs() (allocBytes, allocObjects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		allocObjects = s[1].Value.Uint64()
	}
	return allocBytes, allocObjects
}
