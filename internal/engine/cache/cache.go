// Package cache is the engine's content-addressed on-disk result cache.
// A campaign result is stored under the SHA-256 of its Key — (scenario ID,
// seed, trials, shard size, code fingerprint) — which is exactly the set of
// inputs the engine's determinism contract says the result is a pure
// function of. Repeated suite runs therefore skip unchanged work entirely,
// and any change to the binary (the code fingerprint) or to the run
// parameters misses cleanly instead of serving stale data.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"resilientloc/internal/obs"
)

// Cache telemetry: hit/miss/GC counters plus Get/Put latency histograms,
// registered on the process-wide registry (served by locd's /metrics).
var (
	obsGets      = obs.Default().Counter("cache_get_total")
	obsHits      = obs.Default().Counter("cache_hit_total")
	obsMisses    = obs.Default().Counter("cache_miss_total")
	obsPuts      = obs.Default().Counter("cache_put_total")
	obsPutErrs   = obs.Default().Counter("cache_put_errors_total")
	obsGCSweeps  = obs.Default().Counter("cache_gc_sweeps_total")
	obsGCRemoved = obs.Default().Counter("cache_gc_removed_total")
	obsGetSec    = obs.Default().Histogram("cache_get_seconds", obs.DefLatencyBuckets)
	obsPutSec    = obs.Default().Histogram("cache_put_seconds", obs.DefLatencyBuckets)
)

// Key identifies one deterministic campaign execution.
type Key struct {
	// Kind is the job registry the scenario name belongs to (spec.KindFigure
	// or spec.KindScenario). Without it, a figure and a library scenario
	// sharing a name would collide on one entry whose stored shape only one
	// of them can decode.
	Kind        string `json:"kind,omitempty"`
	Scenario    string `json:"scenario"`
	Seed        int64  `json:"seed"`
	Trials      int    `json:"trials"`
	ShardSize   int    `json:"shard_size"`
	Fingerprint string `json:"fingerprint"`

	// RangeLo/RangeHi identify a partial execution over the trial sub-range
	// [RangeLo, RangeHi) of the full Trials. Both zero (the encoding omits
	// them, keeping full-run key hashes stable) means the full run. This is
	// the sharding coordinator's coordination record: each distributed
	// sub-range is cached — and deduplicated — under its own content
	// address, while Trials still names the full job the range belongs to.
	RangeLo int `json:"range_lo,omitempty"`
	RangeHi int `json:"range_hi,omitempty"`
	// Retained marks a partial execution that carries per-trial values for
	// the campaign's Finalize step (engine.Partial.Retained). It is a key
	// ingredient because retained and unretained partials of one range
	// store different aggregates; full runs never cache retained values,
	// so the flag stays false (omitted) for them.
	Retained bool `json:"retained,omitempty"`
	// Params is the canonical encoding of the job's fully-resolved
	// operating point (params.Map.Canonical of spec.Resolved.Params), empty
	// for param-less jobs — whose key hashes therefore predate the field.
	// It is a string, not a map, because Keys must stay comparable for the
	// in-memory index; resolution has already filled defaults, so a spec
	// spelling out a default and one omitting it share the entry. Without
	// it, nearby operating points that truncate to one scenario name
	// ("ranging-noise-6db" covers every delta in [6, 7)) would collide.
	Params string `json:"params,omitempty"`
}

// Hash returns the key's content address: the hex SHA-256 of its canonical
// JSON encoding.
func (k Key) Hash() string {
	b, err := json.Marshal(k)
	if err != nil {
		// Key is a struct of strings and integers; Marshal cannot fail.
		panic(fmt.Sprintf("cache: marshal key: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

var (
	fingerprintOnce sync.Once
	fingerprint     string
)

// Fingerprint returns a digest of the running executable, computed once per
// process. Any rebuild of the binary changes it, so cached results can never
// outlive the code that produced them. If the executable cannot be read the
// fingerprint is "unknown", which still caches consistently within rebuilds
// of the same path but is shared across them — the conservative failure mode
// is a possible stale hit only on platforms without os.Executable support.
func Fingerprint() string {
	fingerprintOnce.Do(func() {
		fingerprint = "unknown"
		exe, err := os.Executable()
		if err != nil {
			return
		}
		f, err := os.Open(exe)
		if err != nil {
			return
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			return
		}
		fingerprint = hex.EncodeToString(h.Sum(nil))[:16]
	})
	return fingerprint
}

// Cache is an on-disk store of JSON-encoded campaign results.
type Cache struct {
	dir string
}

// Open creates (if needed) and returns the cache rooted at dir.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// entry is the stored file format: the full key rides along with the value
// so entries are self-describing and hash collisions are detected instead
// of trusted.
type entry struct {
	Key   Key             `json:"key"`
	Value json.RawMessage `json:"value"`
}

func (c *Cache) path(k Key) string {
	return filepath.Join(c.dir, k.Hash()+".json")
}

// Get looks up k and, on a hit, JSON-decodes the stored value into out
// (which must be a pointer). The boolean reports whether a valid entry was
// found; a missing or unreadable entry is a miss, not an error.
func (c *Cache) Get(k Key, out any) (bool, error) {
	start := time.Now()
	hit, err := c.get(k, out)
	obsGetSec.Observe(time.Since(start).Seconds())
	obsGets.Inc()
	if hit {
		obsHits.Inc()
	} else {
		obsMisses.Inc()
	}
	return hit, err
}

func (c *Cache) get(k Key, out any) (bool, error) {
	b, err := os.ReadFile(c.path(k))
	if err != nil {
		return false, nil
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		return false, nil // corrupt entry: treat as a miss
	}
	if e.Key != k {
		return false, nil // hash collision or tampering: recompute
	}
	if err := json.Unmarshal(e.Value, out); err != nil {
		return false, fmt.Errorf("cache: decode value for %s: %w", k.Scenario, err)
	}
	// Refresh the entry's mtime (best-effort) so the age- and size-bounded
	// GC evicts by last use, not creation time — a daily-hit entry must
	// never age out while cold ones do.
	now := time.Now()
	_ = os.Chtimes(c.path(k), now, now)
	return true, nil
}

// GCResult summarizes one cache sweep.
type GCResult struct {
	// Scanned is the number of entries examined.
	Scanned int
	// Removed is the number of entries deleted.
	Removed int
	// RemainingBytes is the total size of the entries kept.
	RemainingBytes int64
}

// gcStampName marks the last completed sweep; its mtime throttles MaybeGC.
const gcStampName = ".gc-stamp"

// GC sweeps the cache directory: entries older than maxAge are removed
// (maxAge <= 0 disables the age bound), and if the surviving entries still
// exceed maxBytes in total they are removed oldest-first until under the
// bound (maxBytes <= 0 disables the size bound). Entries fingerprinted by
// binaries that no longer exist have no reachable key, so age is the only
// signal that they are dead — this is the eviction path that keeps the
// directory from growing forever across rebuilds. Leftover temp files from
// interrupted Puts are removed once they are stale.
func (c *Cache) GC(maxAge time.Duration, maxBytes int64) (GCResult, error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return GCResult{}, fmt.Errorf("cache: gc: %w", err)
	}
	type file struct {
		path string
		mod  time.Time
		size int64
	}
	var res GCResult
	var files []file
	now := time.Now()
	for _, de := range entries {
		name := de.Name()
		fi, err := de.Info()
		if err != nil {
			continue // raced with a concurrent removal
		}
		if strings.HasPrefix(name, "put-") {
			// An interrupted Put's temp file; give in-flight writes an hour.
			if now.Sub(fi.ModTime()) > time.Hour {
				_ = os.Remove(filepath.Join(c.dir, name))
			}
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue // the stamp file and anything foreign
		}
		files = append(files, file{path: filepath.Join(c.dir, name), mod: fi.ModTime(), size: fi.Size()})
	}
	res.Scanned = len(files)
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	var total int64
	kept := files[:0]
	for _, f := range files {
		if maxAge > 0 && now.Sub(f.mod) > maxAge {
			_ = os.Remove(f.path)
			res.Removed++
			continue
		}
		kept = append(kept, f)
		total += f.size
	}
	for i := 0; maxBytes > 0 && total > maxBytes && i < len(kept); i++ {
		_ = os.Remove(kept[i].path)
		res.Removed++
		total -= kept[i].size
	}
	res.RemainingBytes = total
	obsGCSweeps.Inc()
	obsGCRemoved.Add(int64(res.Removed))
	return res, nil
}

// MaybeGC runs GC at most once per minInterval per cache directory (tracked
// by a stamp file's mtime), so sessions can invoke it opportunistically
// without paying a directory sweep on every run. The boolean reports whether
// a sweep actually ran.
func (c *Cache) MaybeGC(minInterval, maxAge time.Duration, maxBytes int64) (GCResult, bool, error) {
	stamp := filepath.Join(c.dir, gcStampName)
	if fi, err := os.Stat(stamp); err == nil && time.Since(fi.ModTime()) < minInterval {
		return GCResult{}, false, nil
	}
	// Stamp before sweeping so concurrent sessions don't all pay the sweep.
	if err := os.WriteFile(stamp, nil, 0o644); err != nil {
		return GCResult{}, false, fmt.Errorf("cache: gc stamp: %w", err)
	}
	res, err := c.GC(maxAge, maxBytes)
	return res, true, err
}

// putSeq distinguishes concurrent temp files written by one process; the
// temp name also embeds the pid, so any number of processes sharing a cache
// directory write disjoint temp files.
var putSeq atomic.Uint64

// Put stores v under k. The entry is staged in a private temp file — opened
// with O_EXCL under a (key, pid, sequence)-unique name, so two processes
// sharing the cache directory (a locd daemon and a CLI, or several of
// either) can never interleave writes into one staging file — and then
// renamed into place, so a reader observes either the old complete entry or
// the new complete entry, never a torn one. Losing the rename race to a
// concurrent writer of the same key is harmless: both wrote the same
// deterministic value.
func (c *Cache) Put(k Key, v any) error {
	start := time.Now()
	err := c.put(k, v)
	obsPutSec.Observe(time.Since(start).Seconds())
	obsPuts.Inc()
	if err != nil {
		obsPutErrs.Inc()
	}
	return err
}

func (c *Cache) put(k Key, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("cache: encode value for %s: %w", k.Scenario, err)
	}
	b, err := json.Marshal(entry{Key: k, Value: raw})
	if err != nil {
		return fmt.Errorf("cache: encode entry for %s: %w", k.Scenario, err)
	}
	hash := k.Hash()
	var tmp *os.File
	for attempt := 0; ; attempt++ {
		name := fmt.Sprintf("put-%s-%d-%d", hash[:12], os.Getpid(), putSeq.Add(1))
		tmp, err = os.OpenFile(filepath.Join(c.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			break
		}
		// A name collision means a leftover temp file from a recycled pid;
		// the next sequence number is fresh. Anything else is a real error.
		if !errors.Is(err, fs.ErrExist) || attempt >= 4 {
			return fmt.Errorf("cache: %w", err)
		}
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(k)); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// RangeEntry locates one cached partial execution of a job: the trial
// sub-range [Lo, Hi) it covers, the full trial count the partial was
// executed under (entries banked by runs at other trial counts surface
// too; see RangeEntries), and the content address it is stored under
// (fetchable via EntryByHash, locally or over locd's /v1/cache endpoint).
type RangeEntry struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Trials is the full trial count stamped on the entry's key — the N of
	// the run that banked it, not necessarily the N of the job probing now.
	// A consumer reusing a cross-N entry must revalidate and restamp its
	// geometry (engine.AdaptPartial) before merging it.
	Trials int    `json:"trials"`
	Hash   string `json:"hash"`
}

// RangeEntries scans the cache for partial-execution entries belonging to
// the job identified by base: a key with RangeLo/RangeHi zero whose other
// fields — including Retained — are what the job's partials carry. The
// base key's Trials is ignored for matching: a partial banked by a
// 1024-trial run of the same (scenario, seed, shard size, fingerprint,
// params) is a reusable prefix of a 4096-trial request, so entries of
// every trial count surface, each carrying its own Trials. This is the
// probe behind both the local prefix-reuse planner and the fleet
// coordinator: enumerate what survives, cover the trial space with Chain,
// and re-execute only the gaps. Entries are returned sorted by Lo
// ascending, then wider-first, the order a greedy cover wants. The scan
// reads every entry's self-describing key — the content address is
// one-way, so enumeration is the only way to discover which ranges exist —
// which is fine at the cache sizes GC maintains.
func (c *Cache) RangeEntries(base Key) ([]RangeEntry, error) {
	base.RangeLo, base.RangeHi = 0, 0
	base.Trials = 0
	files, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, fmt.Errorf("cache: range scan: %w", err)
	}
	var out []RangeEntry
	for _, de := range files {
		name := de.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		hash := strings.TrimSuffix(name, ".json")
		if len(hash) != 2*sha256.Size {
			continue
		}
		b, err := os.ReadFile(filepath.Join(c.dir, name))
		if err != nil {
			continue // raced with GC
		}
		var e struct {
			Key Key `json:"key"`
		}
		if err := json.Unmarshal(b, &e); err != nil {
			continue // corrupt entry; Get would treat it as a miss too
		}
		if e.Key.RangeHi <= e.Key.RangeLo || e.Key.RangeHi > e.Key.Trials || e.Key.Hash() != hash {
			continue
		}
		k := e.Key
		k.RangeLo, k.RangeHi = 0, 0
		k.Trials = 0
		if k != base {
			continue
		}
		out = append(out, RangeEntry{Lo: e.Key.RangeLo, Hi: e.Key.RangeHi, Trials: e.Key.Trials, Hash: hash})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lo != out[j].Lo {
			return out[i].Lo < out[j].Lo
		}
		if out[i].Hi != out[j].Hi {
			return out[i].Hi > out[j].Hi
		}
		// Same interval at two trial counts: a fixed order keeps probe
		// responses deterministic; the consumer breaks the tie by policy.
		if out[i].Trials != out[j].Trials {
			return out[i].Trials < out[j].Trials
		}
		return out[i].Hash < out[j].Hash
	})
	return out, nil
}

// Chain is the one chain policy for adopting cached ranges, shared by the
// local prefix-reuse planner and the fleet coordinator. It covers
// [0, trials) in trial order with entries and the gaps between them.
// Entries that cannot tile [0, trials) (Lo < 0, Hi > trials, Hi <= Lo) are
// rejected up front, since probe answers may arrive over HTTP. A partial
// cannot be trimmed, so only an entry starting exactly at the uncovered
// cursor extends the chain: the widest one is offered first, and on a
// width tie an entry banked under trials itself (it needs no adaptation),
// then the earlier entry. adopt receives the offered entry's index and
// reports whether it joined the merge set; an entry that fails to fetch or
// adapt returns false, and the cursor is retried against the rest. Where no
// remaining entry starts at the cursor, gap receives the interval up to the
// next one that does (or to trials).
func Chain(entries []RangeEntry, trials int, adopt func(i int) bool, gap func(lo, hi int)) {
	used := make([]bool, len(entries))
	for i, e := range entries {
		used[i] = e.Lo < 0 || e.Hi > trials || e.Hi <= e.Lo
	}
	for cursor := 0; cursor < trials; {
		best := -1
		for i, e := range entries {
			if used[i] || e.Lo != cursor {
				continue
			}
			if best < 0 || e.Hi > entries[best].Hi ||
				(e.Hi == entries[best].Hi && e.Trials == trials && entries[best].Trials != trials) {
				best = i
			}
		}
		if best < 0 {
			next := trials
			for i, e := range entries {
				if !used[i] && e.Lo > cursor && e.Lo < next {
					next = e.Lo
				}
			}
			gap(cursor, next)
			cursor = next
			continue
		}
		used[best] = true
		if adopt(best) {
			cursor = entries[best].Hi
		}
	}
}

// EntryByHash returns the raw stored entry (key and value, self-describing
// JSON) addressed by a key hash, as served over the wire by locd's
// /v1/cache endpoint. The boolean reports existence. The hash is validated
// as exactly a hex content address before touching the filesystem.
func (c *Cache) EntryByHash(hash string) ([]byte, bool, error) {
	if len(hash) != 2*sha256.Size {
		return nil, false, fmt.Errorf("cache: invalid entry hash %q", hash)
	}
	for _, r := range hash {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return nil, false, fmt.Errorf("cache: invalid entry hash %q", hash)
		}
	}
	b, err := os.ReadFile(filepath.Join(c.dir, hash+".json"))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("cache: %w", err)
	}
	return b, true, nil
}
