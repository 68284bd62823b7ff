// Package layout is the fleet-wide, content-addressed cache of BOLT
// layout decisions — the "optimize once, deploy everywhere" piece of the
// data-center story (§V; the BOLT paper's deployment pitch). Identical
// binaries running statistically identical workloads should not each pay
// the profile→perf2bolt→BOLT pipeline: the first service to miss
// computes the layout, every other replica reuses it.
//
// Entries are keyed by content, not identity: a binary fingerprint over
// the obj image's code bytes and symbol tables, a *quantized* profile
// fingerprint over the normalized hot-branch histogram (so two replicas
// whose sample timing differs slightly still hit the same entry), and an
// options fingerprint over every optimizer knob that changes the output.
// Re-optimization needs no explicit invalidation: C_{i+1}'s input binary
// hashes to a new key, and superseded entries age out of the bounded
// cache FIFO-style.
//
// The Memory implementation is concurrency-safe with single-flight
// semantics: concurrent misses on one key run the compute function once
// while the other callers block and share the result (the coalesced
// outcome), so a 1,000-service homogeneous wave performs ~1 BOLT run per
// round instead of ~1,000.
package layout

import (
	"fmt"
	"sync"

	"repro/internal/bolt"
	"repro/internal/telemetry"
)

// Key content-addresses one layout decision. Two lookups collide exactly
// when reusing the layout is sound: same code image, equivalent hot-path
// profile, same optimizer configuration.
type Key struct {
	// Binary fingerprints the input obj image (code bytes, function
	// table, v-tables, jump tables); see BinaryFingerprint.
	Binary string
	// Profile fingerprints the quantized, normalized hot-branch summary
	// of the raw LBR profile; see ProfileFingerprint.
	Profile string
	// Opts fingerprints the optimizer options that affect the emitted
	// layout; see OptionsFingerprint.
	Opts string
}

// String renders the key in its journal/metrics form.
func (k Key) String() string {
	return fmt.Sprintf("bin:%s/prof:%s/opt:%s", k.Binary, k.Profile, k.Opts)
}

// Entry is one cached optimization result: the layout decisions plus the
// emitted binary embodying them. Entries are immutable once stored —
// consumers that inject the binary into a live process must work on
// Result.Binary.Clone(), never the cached image itself.
type Entry struct {
	Result *bolt.Result
}

// Outcome classifies one cache lookup.
type Outcome string

const (
	// Hit: the entry was already cached.
	Hit Outcome = "hit"
	// Miss: this caller computed (and stored) the entry.
	Miss Outcome = "miss"
	// Coalesced: another caller was already computing this key; this one
	// blocked and shares the result without running compute (the
	// single-flight path).
	Coalesced Outcome = "coalesced"
)

// Stats is a point-in-time counter snapshot of a cache.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// Requests is the total number of lookups the stats cover.
func (s Stats) Requests() uint64 { return s.Hits + s.Misses + s.Coalesced }

// HitRate is the fraction of lookups served without running the
// optimizer (hits + coalesced waiters), 0 when nothing was looked up.
func (s Stats) HitRate() float64 {
	if s.Requests() == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(s.Requests())
}

// Cache is the minimal surface consumers depend on. Real deployments use
// Memory; tests inject recording fakes (see core.Options.LayoutCache)
// without reaching into fleet internals.
type Cache interface {
	Get(k Key) (*Entry, bool)
	Put(k Key, e *Entry)
	Stats() Stats
}

// singleFlighter is the optional fast path a Cache may implement; Memory
// does. Do uses it when present so concurrent misses coalesce.
type singleFlighter interface {
	Do(k Key, compute func() (*Entry, error)) (*Entry, Outcome, error)
}

// Do looks k up in c, running compute on a miss and storing the result.
// If c implements single-flight (Memory does), concurrent misses on one
// key run compute exactly once; plain Get/Put fakes degrade to
// check-compute-store.
func Do(c Cache, k Key, compute func() (*Entry, error)) (*Entry, Outcome, error) {
	if sf, ok := c.(singleFlighter); ok {
		return sf.Do(k, compute)
	}
	if e, ok := c.Get(k); ok {
		return e, Hit, nil
	}
	e, err := compute()
	if err != nil {
		return nil, Miss, err
	}
	c.Put(k, e)
	return e, Miss, nil
}

// flight is one in-progress computation other callers can wait on.
type flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// Memory is the concurrency-safe in-memory Cache with single-flight
// semantics and bounded capacity (oldest entries evicted first). The
// zero value is not usable; call NewMemory.
type Memory struct {
	mu       sync.Mutex
	entries  map[Key]*Entry
	order    []Key // insertion order, for capacity eviction; order[head:] are live
	head     int   // first live slot in order; compacted when it passes half
	inflight map[Key]*flight
	cap      int
	stats    Stats

	requests *telemetry.CounterVec // outcome ∈ {hit, miss, coalesced}
	gauge    *telemetry.Gauge
}

// DefaultCap bounds a Memory cache when NewMemory is given cap 0. Keys
// are per (binary, profile, options) tuple, so even a many-workload,
// multi-round fleet stays far below this.
const DefaultCap = 1024

// NewMemory returns an empty cache holding at most cap entries (0 =
// DefaultCap). When reg is non-nil, every lookup outcome is published to
// the layout_cache_requests_total{outcome} vector and the entry count to
// the layout_cache_entries gauge.
func NewMemory(cap int, reg *telemetry.Registry) *Memory {
	if cap <= 0 {
		cap = DefaultCap
	}
	m := &Memory{
		entries:  make(map[Key]*Entry),
		inflight: make(map[Key]*flight),
		cap:      cap,
	}
	if reg != nil {
		m.requests = reg.CounterVec("layout_cache_requests_total", "outcome")
		// Touch every outcome so a scrape before the first wave still
		// exposes the full vector.
		for _, o := range []Outcome{Hit, Miss, Coalesced} {
			m.requests.With(string(o))
		}
		m.gauge = reg.Gauge("layout_cache_entries")
	}
	return m
}

// count publishes one lookup outcome. Callers must not hold m.mu: the
// registry has its own locks, shared with every fleet worker.
func (m *Memory) count(o Outcome) {
	if m.requests != nil {
		m.requests.With(string(o)).Inc()
	}
}

// Get returns the cached entry for k, if present.
func (m *Memory) Get(k Key) (*Entry, bool) {
	m.mu.Lock()
	e, ok := m.entries[k]
	if ok {
		m.stats.Hits++
	} else {
		m.stats.Misses++
	}
	m.mu.Unlock()
	if ok {
		m.count(Hit)
		return e, true
	}
	m.count(Miss)
	return nil, false
}

// Put stores e under k, evicting the oldest entry when full. Storing
// counts toward neither hits nor misses.
func (m *Memory) Put(k Key, e *Entry) {
	m.mu.Lock()
	m.put(k, e)
	n := len(m.entries)
	m.mu.Unlock()
	if m.gauge != nil {
		m.gauge.Set(float64(n))
	}
}

// put stores under m.mu. Eviction advances head instead of re-slicing
// order (order = order[1:] would keep every evicted key pinned in the
// backing array for the cache's lifetime); evicted slots are zeroed so
// their key strings are released immediately, and the queue is compacted
// in place once the dead prefix passes half its length, bounding the
// backing array at ~2× cap under any churn pattern.
func (m *Memory) put(k Key, e *Entry) {
	if _, exists := m.entries[k]; !exists {
		for len(m.entries) >= m.cap && m.head < len(m.order) {
			victim := m.order[m.head]
			m.order[m.head] = Key{}
			m.head++
			if _, ok := m.entries[victim]; ok {
				delete(m.entries, victim)
				m.stats.Evictions++
			}
		}
		if m.head > len(m.order)/2 {
			n := copy(m.order, m.order[m.head:])
			tail := m.order[n:]
			for i := range tail {
				tail[i] = Key{}
			}
			m.order = m.order[:n]
			m.head = 0
		}
		m.order = append(m.order, k)
	}
	m.entries[k] = e
}

// Do implements single-flight lookup: a hit returns immediately, the
// first miss on a key runs compute and stores the result, and concurrent
// misses on the same key block until that computation finishes, sharing
// its result (or its error) without recomputing.
func (m *Memory) Do(k Key, compute func() (*Entry, error)) (*Entry, Outcome, error) {
	m.mu.Lock()
	if e, ok := m.entries[k]; ok {
		m.stats.Hits++
		m.mu.Unlock()
		m.count(Hit)
		return e, Hit, nil
	}
	if f, ok := m.inflight[k]; ok {
		m.stats.Coalesced++
		m.mu.Unlock()
		m.count(Coalesced)
		<-f.done
		return f.entry, Coalesced, f.err
	}
	f := &flight{done: make(chan struct{})}
	m.inflight[k] = f
	m.stats.Misses++
	m.mu.Unlock()
	m.count(Miss)

	e, err := compute()
	f.entry, f.err = e, err

	m.mu.Lock()
	delete(m.inflight, k)
	if err == nil {
		m.put(k, e)
	}
	n := len(m.entries)
	m.mu.Unlock()
	close(f.done)
	if m.gauge != nil {
		m.gauge.Set(float64(n))
	}
	return e, Miss, err
}

// Stats snapshots the cache counters.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Entries = len(m.entries)
	return s
}
