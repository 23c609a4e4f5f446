// Package fleet is the cluster-membership subsystem of the distributed
// execution tier: a registry of live locd workers that the coordinator
// (internal/engine/coord) discovers its fleet from, instead of being handed
// a static -workers URL list.
//
// Membership is announce-based: every worker periodically POSTs an
// Announce record — its advertised base URL, its shard-slot capacity
// (engine.Budget.Cap), and its binary fingerprint (cache.Fingerprint,
// which the coordinator needs to address the worker's range-keyed cache
// entries when it adopts them) — to a registry served by any locd
// (internal/locsrv routes /v1/fleet/announce and /v1/fleet onto a
// Registry). A worker that misses enough heartbeats is evicted; a worker
// that shuts down cleanly announces Leaving and is removed at once. The
// registry is deliberately soft-state: it holds no job state, so losing it
// costs only discovery — a fresh registry repopulates within one heartbeat
// interval as workers re-announce.
package fleet

import (
	"fmt"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"resilientloc/internal/obs"
)

// Fleet telemetry: the live-member gauge plus the membership lifecycle
// counters (a join is a first announce or a re-announce after eviction; a
// leave is a clean shutdown; an eviction is a missed-heartbeat removal).
var (
	obsWorkers   = obs.Default().Gauge("fleet_workers")
	obsJoins     = obs.Default().Counter("fleet_joins_total")
	obsLeaves    = obs.Default().Counter("fleet_leaves_total")
	obsEvictions = obs.Default().Counter("fleet_evictions_total")
)

// DefaultHeartbeat is how often a worker re-announces itself.
const DefaultHeartbeat = 3 * time.Second

// DefaultEvictAfter is how long a member may go without an announce before
// the registry evicts it — five missed default heartbeats, so one dropped
// packet or a GC pause never flaps membership.
const DefaultEvictAfter = 5 * DefaultHeartbeat

// Announce is the wire record a worker registers itself with.
type Announce struct {
	// URL is the worker's advertised base URL (e.g. "http://10.0.0.7:8090")
	// — the address the coordinator will submit jobs to.
	URL string `json:"url"`
	// Capacity is the worker's shard-slot budget (engine.Budget.Cap): how
	// many shards it executes concurrently. Advisory fleet metadata for
	// schedulers and scoreboards.
	Capacity int `json:"capacity,omitempty"`
	// Fingerprint is the worker binary's cache fingerprint
	// (cache.Fingerprint). The coordinator uses it to tell mixed-build
	// fleets apart; the cache probe addresses each worker's range-keyed
	// cache entries through the worker itself, so the fingerprint is
	// informational.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Leaving marks a clean shutdown: the registry removes the member
	// immediately instead of waiting out the eviction window.
	Leaving bool `json:"leaving,omitempty"`
}

// Validate checks the announce's self-contained invariants.
func (a Announce) Validate() error {
	if strings.TrimSpace(a.URL) == "" {
		return fmt.Errorf("fleet: announce without a url")
	}
	u, err := url.Parse(a.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("fleet: announce url %q is not an absolute URL", a.URL)
	}
	if a.Capacity < 0 {
		return fmt.Errorf("fleet: negative capacity %d", a.Capacity)
	}
	return nil
}

// Member is one live worker as the registry sees it.
type Member struct {
	// URL is the worker's advertised base URL, normalized (no trailing
	// slash) — the member's identity.
	URL string `json:"url"`
	// Capacity and Fingerprint echo the worker's latest announce.
	Capacity    int    `json:"capacity,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// JoinedAt is when the member first announced (or re-announced after an
	// eviction); LastSeen is its most recent heartbeat.
	JoinedAt time.Time `json:"joined_at"`
	LastSeen time.Time `json:"last_seen"`
}

// Registry is the in-memory membership table. Zero value is not usable;
// construct with NewRegistry.
type Registry struct {
	evictAfter time.Duration
	now        func() time.Time // injectable clock for tests

	mu      sync.Mutex
	members map[string]*Member
}

// NewRegistry returns a registry evicting members that have not announced
// within evictAfter (0 means DefaultEvictAfter).
func NewRegistry(evictAfter time.Duration) *Registry {
	if evictAfter <= 0 {
		evictAfter = DefaultEvictAfter
	}
	return &Registry{
		evictAfter: evictAfter,
		now:        time.Now,
		members:    make(map[string]*Member),
	}
}

// EvictAfter returns the registry's eviction window — the heartbeat
// deadline it advertises to announcing workers.
func (r *Registry) EvictAfter() time.Duration { return r.evictAfter }

// Announce upserts a member (or removes it, when the announce is a leave).
// The boolean reports a join: the member was not in the live set before.
func (r *Registry) Announce(a Announce) (bool, error) {
	if err := a.Validate(); err != nil {
		return false, err
	}
	key := strings.TrimRight(strings.TrimSpace(a.URL), "/")
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(now)
	if a.Leaving {
		if _, ok := r.members[key]; ok {
			delete(r.members, key)
			obsLeaves.Inc()
			obsWorkers.Set(int64(len(r.members)))
		}
		return false, nil
	}
	m, ok := r.members[key]
	if !ok {
		m = &Member{URL: key, JoinedAt: now}
		r.members[key] = m
		obsJoins.Inc()
		obsWorkers.Set(int64(len(r.members)))
	}
	m.Capacity = a.Capacity
	m.Fingerprint = a.Fingerprint
	m.LastSeen = now
	return !ok, nil
}

// Members returns the live membership (stale members evicted first),
// sorted by URL so every reader sees the fleet in one deterministic order.
func (r *Registry) Members() []Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(r.now())
	out := make([]Member, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// sweepLocked evicts members whose last announce is older than the
// eviction window. The caller holds r.mu.
func (r *Registry) sweepLocked(now time.Time) {
	evicted := 0
	for key, m := range r.members {
		if now.Sub(m.LastSeen) > r.evictAfter {
			delete(r.members, key)
			evicted++
		}
	}
	if evicted > 0 {
		obsEvictions.Add(int64(evicted))
		obsWorkers.Set(int64(len(r.members)))
	}
}
