package sched

import (
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"bittactical/internal/metrics"
)

// Cache memoizes ScheduleGroup results. A schedule depends only on the
// group's weight values, the connectivity pattern, and the scheduling
// algorithm — it is the static artifact the paper's software front-end
// produces once offline — so experiment sweeps that vary only the back-end
// (TCLp vs TCLe, Figure 8b) or re-simulate a model under several widths can
// schedule each filter group once and share the result. Cached schedules
// are immutable; callers must not modify the returned columns.
//
// The key deliberately excludes the channel-padding mask: scheduling reads
// only the weight values (buildColumn consults Filter.W alone), so groups
// that differ only in padding share an entry.
//
// The cache is striped: entries are sharded over a power-of-two number of
// independent stripes selected by the low bits of the filter-content
// fingerprint (h1), each with its own lock, map, slab and counters, so
// parallel sweeps stop serializing on one mutex. The capacity bound stays
// global — a shared atomic entry count, checked before each insert — with
// the rare overflow sweep locking every stripe and dropping everything,
// exactly the pre-striping drop-all policy. Bounding per stripe instead
// would shrink the effective capacity to nStripes × the fullest stripe's
// share: a working set under the total bound but hashed unevenly would
// thrash hot stripes every sweep, reintroducing the steady-state
// scheduling work the cache exists to remove.
type Cache struct {
	stripes  []cacheStripe
	mask     uint64 // len(stripes) - 1
	capacity int
	count    atomic.Int64 // resident entries, summed over stripes
}

// cacheStripe is one independent shard: its own lock, entry map, slab
// arena, and counters. Counters live per stripe so eight workers hammering
// the cache do not all bounce one hits cache line.
type cacheStripe struct {
	mu        sync.RWMutex
	m         map[groupKey][]*Schedule
	slab      schedSlab
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// groupKey identifies one (filter group, pattern, algorithm) triple. Two
// independent 64-bit FNV-1a streams over the full group content make an
// accidental 128-bit collision implausible at any realistic cache size.
type groupKey struct {
	h1, h2  uint64
	pattern string
	alg     Algorithm
}

// defaultCacheCap bounds resident entries. One entry holds a whole group's
// schedules (up to 16 filters), so the default accommodates every distinct
// group of a full-zoo sweep while capping worst-case memory; on overflow a
// stripe drops everything and refills, which keeps results correct and the
// implementation trivial.
const defaultCacheCap = 1 << 14

// defaultCacheStripes is the stripe count for caches whose capacity can
// support it; tiny capacities use fewer stripes so a near-empty cache does
// not spread a handful of entries over mostly-idle shards.
const defaultCacheStripes = 16

// stripeCount picks the power-of-two stripe count for a capacity: the
// default, reduced so every stripe holds at least one entry.
func stripeCount(capacity int) int {
	n := defaultCacheStripes
	if capacity < n {
		// Largest power of two <= capacity (capacity >= 1 here).
		n = 1 << (bits.Len(uint(capacity)) - 1)
	}
	return n
}

// NewCache returns an empty cache. capacity <= 0 selects the default bound.
// The bound is global across stripes: the cache holds at most capacity
// entries in total, wherever they hash.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = defaultCacheCap
	}
	n := stripeCount(capacity)
	c := &Cache{stripes: make([]cacheStripe, n), mask: uint64(n - 1), capacity: capacity}
	for i := range c.stripes {
		c.stripes[i].m = make(map[groupKey][]*Schedule)
	}
	return c
}

// stripe selects the shard for a key. The filter-content hash alone picks
// the stripe (not the pattern-mixed h2), so one group keyed under several
// patterns or algorithms stays on one stripe.
func (c *Cache) stripe(h1 uint64) *cacheStripe {
	return &c.stripes[h1&c.mask]
}

// Shared is the process-wide schedule cache the simulator uses by default.
var Shared = NewCache(0)

func init() {
	// The shared cache is the one an operator of a long-running service
	// cares about; expose its lifetime counters in the default registry.
	Shared.RegisterMetrics(metrics.Default, "sched_cache")
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvInt(h uint64, v int64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// patKeys interns the canonical pattern strings: the handful of patterns a
// process sweeps are keyed thousands of times, and the hot path below
// renders into a stack buffer and probes with a byte-slice map lookup (no
// conversion allocation), so repeat keying is allocation-free. Interning by
// the full rendered content — not the pattern name — keeps the no-collision
// property of the rendering itself.
var (
	patKeyMu sync.RWMutex
	patKeys  = make(map[string]string)
)

// patternKey canonicalizes a pattern for keying: the name alone is not
// trustworthy (LookaheadOnly and hand-built patterns reuse labels), so the
// key spells out the structural fields and every offset.
func patternKey(p Pattern) string {
	var arr [96]byte
	b := arr[:0]
	b = strconv.AppendInt(b, int64(p.H), 10)
	b = append(b, '/')
	if p.Infinite {
		b = append(b, 'x')
	}
	for _, o := range p.Offsets {
		b = append(b, ';')
		b = strconv.AppendInt(b, int64(o.Dt), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(o.Dl), 10)
	}
	patKeyMu.RLock()
	s, ok := patKeys[string(b)]
	patKeyMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	patKeyMu.Lock()
	patKeys[s] = s
	patKeyMu.Unlock()
	return s
}

// HashFilters computes the filter-content half of a group key: two
// independent hash streams over the group's geometry and weight values.
// Callers that look the same group up repeatedly (the sweep engine's
// filter bank re-keys one group under every config) compute this once and
// pass it to Keyer.ScheduleGroup instead of re-hashing the weights on
// every lookup.
func HashFilters(filters []Filter) (h1, h2 uint64) {
	h1, h2 = uint64(fnvOffset), uint64(5381)
	mix := func(v int64) {
		h1 = fnvInt(h1, v)
		h2 = h2*33 + uint64(v) + (h2 >> 27)
	}
	mix(int64(len(filters)))
	for _, f := range filters {
		mix(int64(f.Lanes))
		mix(int64(f.Steps))
		for _, w := range f.W {
			mix(int64(w))
		}
	}
	return h1, h2
}

// Keyer carries the pattern/algorithm half of a group key in precomputed
// form. Pattern canonicalization builds a string per call; a sweep that
// looks up thousands of groups under one (pattern, algorithm) pays it
// once here instead.
type Keyer struct {
	c   *Cache
	pat string
	p   Pattern
	alg Algorithm
}

// Keyer returns a precomputed-key view of the cache for one
// (pattern, algorithm) pair.
func (c *Cache) Keyer(p Pattern, alg Algorithm) Keyer {
	return Keyer{c: c, pat: patternKey(p), p: p, alg: alg}
}

// ScheduleGroup is Cache.ScheduleGroup with both key halves precomputed:
// the pattern half in the Keyer, the filter-content hash (HashFilters
// over the same filters) by the caller.
func (k Keyer) ScheduleGroup(h1, h2 uint64, filters []Filter) []*Schedule {
	if ss, ok := k.Lookup(h1, h2); ok {
		return ss
	}
	return k.Fill(h1, h2, filters)
}

// Lookup probes the cache for the group whose content hash is (h1, h2),
// without the group's filters: a caller that memoises the hash can resolve
// a hit without materializing a single weight. A hit counts as one lookup;
// a miss counts nothing, and the caller completes the lookup with Fill.
func (k Keyer) Lookup(h1, h2 uint64) ([]*Schedule, bool) {
	return k.c.lookup(k.key(h1, h2))
}

// Fill schedules the group, stores the result under (h1, h2) and counts a
// miss: the second half of a lookup whose Lookup missed.
func (k Keyer) Fill(h1, h2 uint64, filters []Filter) []*Schedule {
	return k.c.fill(k.key(h1, h2), filters, k.p, k.alg)
}

func (k Keyer) key(h1, h2 uint64) groupKey {
	return groupKey{h1: h1, h2: fnvString(h2, k.pat), pattern: k.pat, alg: k.alg}
}

// ScheduleGroup returns the memoized joint schedule for the filter group,
// computing and storing it on first use. Concurrent callers may race to fill
// the same key; both compute the identical deterministic result and one
// wins the store, so no caller ever observes a partial entry.
func (c *Cache) ScheduleGroup(filters []Filter, p Pattern, alg Algorithm) []*Schedule {
	h1, h2 := HashFilters(filters)
	return c.Keyer(p, alg).ScheduleGroup(h1, h2, filters)
}

// lookup returns the resident entry for key, counting a hit; a miss counts
// nothing (fill counts it).
func (c *Cache) lookup(key groupKey) ([]*Schedule, bool) {
	s := c.stripe(key.h1)
	s.mu.RLock()
	ss, ok := s.m[key]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	}
	return ss, ok
}

// fill computes and stores the entry for key, counting a miss. Concurrent
// callers may race to fill the same key; both compute the identical
// deterministic result and one wins the store.
func (c *Cache) fill(key groupKey, filters []Filter, p Pattern, alg Algorithm) []*Schedule {
	s := c.stripe(key.h1)
	ss := s.fill(filters, p, alg)
	s.misses.Add(1)
	c.insert(s, key, ss)
	return ss
}

// insert stores a filled entry, applying the global overflow policy: when
// the cache-wide entry count has reached capacity, everything is dropped
// (recording one eviction per dropped entry) and the cache refills.
func (c *Cache) insert(s *cacheStripe, key groupKey, ss []*Schedule) {
	if c.count.Load() >= int64(c.capacity) {
		c.evictAll()
	}
	s.mu.Lock()
	if _, exists := s.m[key]; !exists {
		c.count.Add(1)
	}
	s.m[key] = ss
	s.mu.Unlock()
}

// evictAll is the overflow sweep: it locks every stripe (ascending, so
// concurrent sweeps cannot deadlock), re-checks residency — a racing
// inserter may have swept already — and drops every entry. The dropped
// entries were carved from the stripes' slabs; the slabs retire with them.
// Chunks still referenced by schedules callers hold stay alive through
// those references.
func (c *Cache) evictAll() {
	for i := range c.stripes {
		c.stripes[i].mu.Lock()
	}
	if c.count.Load() >= int64(c.capacity) {
		for i := range c.stripes {
			s := &c.stripes[i]
			s.evictions.Add(int64(len(s.m)))
			s.m = make(map[groupKey][]*Schedule)
			s.slab = schedSlab{}
		}
		c.count.Store(0)
	}
	for i := len(c.stripes) - 1; i >= 0; i-- {
		c.stripes[i].mu.Unlock()
	}
}

// fill computes the group's schedules into stripe-owned storage. The
// scheduling itself runs in a pooled kernel's arena; the result is then
// carved out of the stripe slab (four amortized-zero "allocations") and
// copied with one bulk memmove per filter. Only the carve itself holds
// the stripe mutex — concurrent fills copy in parallel.
func (s *cacheStripe) fill(filters []Filter, p Pattern, alg Algorithm) []*Schedule {
	k := schedulerPool.Get().(*Scheduler)
	nf, lanes, steps, cols, fallback := k.runGroup(filters, p, alg)
	if fallback != nil || nf == 0 {
		schedulerPool.Put(k)
		return fallback
	}
	s.mu.Lock()
	ents, fcols, schs, ptrs := s.slab.take(nf, cols, lanes)
	s.mu.Unlock()
	k.assembleInto(ents, fcols, schs, ptrs, nf, lanes, steps, cols)
	schedulerPool.Put(k)
	return ptrs
}

// CacheStats is a cache's lifetime counters and current residency.
// Evictions counts individual entries dropped by the overflow policy, so a
// sweep that drops k entries records k evictions; summed across stripes
// the accounting stays exact (evictions + entries == inserts).
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// Stats reports lifetime hit/miss/eviction counters and the current entry
// count, summed across stripes.
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	for i := range c.stripes {
		s := &c.stripes[i]
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		st.Evictions += s.evictions.Load()
		s.mu.RLock()
		st.Entries += len(s.m)
		s.mu.RUnlock()
	}
	return st
}

// RegisterMetrics exposes the cache's counters in the registry as
// <prefix>_{hits,misses,evictions,entries}, read live at snapshot time.
func (c *Cache) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.Func(prefix+"_hits", func() int64 { return c.Stats().Hits })
	r.Func(prefix+"_misses", func() int64 { return c.Stats().Misses })
	r.Func(prefix+"_evictions", func() int64 { return c.Stats().Evictions })
	r.Func(prefix+"_entries", func() int64 { return int64(c.Stats().Entries) })
}

// Reset drops every entry and zeroes the counters. The dropped entries are
// deliberate, not capacity pressure, so they do not count as evictions.
func (c *Cache) Reset() {
	for i := range c.stripes {
		c.stripes[i].mu.Lock()
	}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.m = make(map[groupKey][]*Schedule)
		s.slab = schedSlab{}
		s.hits.Store(0)
		s.misses.Store(0)
		s.evictions.Store(0)
	}
	c.count.Store(0)
	for i := len(c.stripes) - 1; i >= 0; i-- {
		c.stripes[i].mu.Unlock()
	}
}
