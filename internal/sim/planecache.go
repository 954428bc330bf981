package sim

import (
	"sync"
	"sync/atomic"

	"bittactical/internal/backend"
	"bittactical/internal/fixed"
	"bittactical/internal/metrics"
	"bittactical/internal/nn"
)

// PlaneCache memoizes activation cost planes, mirroring sched.Cache for the
// other half of the sweep workload: schedules are keyed on weights, planes
// on activations. The key spells out why planes are shareable — a plane
// depends on the input activations, the lowering geometry (the coords map
// from (window, step, lane) to the tensor), the back-end kind, and the
// datapath width, but NOT on the connectivity pattern, scheduler, tile
// geometry, or weights — so a Figure-8b-style sweep of L<h,d>/T<h,d>
// configs over one model builds each layer's plane once per back-end and
// shares it across every pattern, both within one tclserve /v1/simulate
// request and across requests (or tclsim experiment runs) through
// SharedPlanes. Width is in the key because an 8-bit plane costs the same
// value differently than a 16-bit one.
//
// Unlike sched.Cache, fills are single-flighted: a plane is megabytes of
// work, so concurrent requesters of the same key (two sweep configs hitting
// the same layer in the pool) wait on the first builder's sync.Once instead
// of racing to duplicate the build.
//
// The entry map is striped over a power-of-two number of shards selected
// by the content fingerprint (h1), each with its own lock, so parallel
// sweeps hitting warm planes stop serializing on one mutex. The byte
// budget stays global: resident bytes are tracked in one atomic off the
// lookup path, and the (rare) overflow drop locks every stripe, preserving
// the single-mutex cache's exact semantics — drop everything but the entry
// being inserted, count each dropped entry as one eviction.
type PlaneCache struct {
	stripes  []planeStripe
	mask     uint64
	bytes    atomic.Int64
	maxBytes int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	// Grouped-plane counters: the same events, restricted to planes of
	// row-variant layers (act group in the key). They answer the question
	// the aggregate counters cannot: is the grouped/depthwise fast path
	// actually being taken, and is it churning the budget?
	groupBuilds    atomic.Int64
	groupHits      atomic.Int64
	groupEvictions atomic.Int64
}

// planeStripe is one shard of the entry map with its own lock.
type planeStripe struct {
	mu sync.Mutex
	m  map[planeKey]*planeEntry
}

// planeCacheStripes is the fixed stripe count. A process caches at most a
// few hundred planes (layers x back-ends x widths), so a handful of
// stripes already makes lock collisions between eight workers unlikely.
const planeCacheStripes = 8

// planeEntry single-flights one plane build: the creator runs the Once body;
// later requesters of the same key block on it and share the result.
type planeEntry struct {
	once  sync.Once
	plane *costPlane
}

// planeKey identifies one (layer activations+geometry, act group,
// back-end, width) tuple. Two independent 64-bit hash streams over the
// full content make an accidental collision implausible at any realistic
// cache size. The back-end rides in the key by registry name, in the
// clear: any two registered back-ends — including plugins the engine has
// never heard of — key distinct planes at the same width. The act group
// rides in the clear too (-1 for row-invariant layers, the group index
// for grouped/depthwise), so a grouped layer's planes share one content
// hash instead of re-hashing the input tensor per group.
type planeKey struct {
	h1, h2 uint64
	be     string
	width  fixed.Width
	group  int
}

// defaultPlaneCacheBytes bounds resident plane bytes. Planes are large (a
// full-size conv layer is megabytes), so unlike the schedule cache the
// budget is in bytes, not entries; the default holds every layer of a
// multi-model sweep at the evaluation scales while capping worst-case
// memory. On overflow the cache drops everything but the entry being
// inserted and refills — correct, bounded, trivial.
const defaultPlaneCacheBytes = 256 << 20

// NewPlaneCache returns an empty cache. maxBytes <= 0 selects the default
// budget.
func NewPlaneCache(maxBytes int64) *PlaneCache {
	if maxBytes <= 0 {
		maxBytes = defaultPlaneCacheBytes
	}
	c := &PlaneCache{
		stripes:  make([]planeStripe, planeCacheStripes),
		mask:     planeCacheStripes - 1,
		maxBytes: maxBytes,
	}
	for i := range c.stripes {
		c.stripes[i].m = make(map[planeKey]*planeEntry)
	}
	return c
}

// stripe selects the shard for a key by its content fingerprint.
func (c *PlaneCache) stripe(h1 uint64) *planeStripe {
	return &c.stripes[h1&c.mask]
}

// SharedPlanes is the process-wide plane cache the simulator uses by
// default.
var SharedPlanes = NewPlaneCache(0)

func init() {
	SharedPlanes.RegisterMetrics(metrics.Default, "sim_plane")
}

const (
	planeFNVOffset = 14695981039346656037
	planeFNVPrime  = 1099511628211
)

// planeKeyOf keys the plane build of (lw, be, w): the back-end and width in
// the clear, plus the lowering's content digest (planeDigest), memoised on
// the lowering so every config and run after the first reads it back.
func planeKeyOf(lw *nn.Lowered, be backend.Backend, w fixed.Width) planeKey {
	memo := lw.InputDigest()
	h1, h2, ok := memo.Load()
	if !ok {
		h1, h2 = planeDigest(lw)
		memo.Store(h1, h2)
	}
	return planeKey{h1: h1, h2: h2, be: be.Name(), width: w, group: -1}
}

// planeDigest hashes everything the plane build reads besides the back-end
// and width: the lowering geometry, the layer parameters the coords/Act
// mapping consults, and the full input activation tensor.
func planeDigest(lw *nn.Lowered) (h1, h2 uint64) {
	h1, h2 = uint64(planeFNVOffset), uint64(5381)
	mix := func(v int64) {
		for i := 0; i < 8; i++ {
			h1 ^= uint64(byte(v >> (8 * i)))
			h1 *= planeFNVPrime
		}
		h2 = h2*33 + uint64(v) + (h2 >> 27)
	}
	l := lw.Layer()
	mix(int64(lw.Kind))
	mix(int64(lw.Lanes))
	mix(int64(lw.Steps))
	mix(int64(lw.WindowCount))
	mix(int64(l.C))
	mix(int64(l.R))
	mix(int64(l.S))
	mix(int64(l.Stride))
	mix(int64(l.Pad))
	mix(int64(l.Groups))
	in := lw.Input()
	for _, d := range in.Shape {
		mix(int64(d))
	}
	for _, v := range in.Data {
		mix(int64(v))
	}
	return h1, h2
}

// get returns the memoized plane for (lw, be, w), building and storing it
// on first use. ct must be the cost table of (be, w); it is consulted only
// on a fill. This is the single-plane entry point for row-invariant
// layers; the engine goes through getKeyed, setting the act group.
func (c *PlaneCache) get(lw *nn.Lowered, be backend.Backend, w fixed.Width, ct *costTable) *costPlane {
	return c.getKeyed(planeKeyOf(lw, be, w), lw, ct, 0)
}

// getKeyed is get with the key fully formed by the caller: key.group is
// -1 for row-invariant layers and the act group index otherwise, and
// actGroup is the group a fill builds from. Grouped events additionally
// tick the sim_plane_group_* counters.
func (c *PlaneCache) getKeyed(key planeKey, lw *nn.Lowered, ct *costTable, actGroup int) *costPlane {
	grouped := key.group >= 0
	s := c.stripe(key.h1)
	s.mu.Lock()
	e, ok := s.m[key]
	if ok {
		c.hits.Add(1)
		if grouped {
			c.groupHits.Add(1)
		}
	} else {
		c.misses.Add(1)
		if grouped {
			c.groupBuilds.Add(1)
		}
		e = &planeEntry{}
		s.m[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		e.plane = buildPlane(lw, ct, actGroup)
		s.mu.Lock()
		// Account the bytes only if the entry is still resident: an overflow
		// drop that raced this build already discarded it from the map, and
		// the builder's reference keeps the plane alive for its caller alone.
		live := false
		if cur, ok := s.m[key]; ok && cur == e {
			live = true
			c.bytes.Add(e.plane.sizeBytes())
		}
		over := c.bytes.Load() > c.maxBytes
		s.mu.Unlock()
		if live && over {
			c.evictAllBut(key, e)
		}
	})
	return e.plane
}

// evictAllBut is the overflow drop: everything except the inserting entry
// goes, each dropped entry counting one eviction. It locks every stripe —
// overflow is rare by construction (the default budget holds a whole
// multi-model sweep), so the hot lookup path never pays for this.
func (c *PlaneCache) evictAllBut(key planeKey, e *planeEntry) {
	for i := range c.stripes {
		c.stripes[i].mu.Lock()
	}
	// Re-check under full lock: a concurrent drop may already have fixed
	// the budget (and possibly discarded our entry with it).
	if c.bytes.Load() > c.maxBytes {
		var dropped int64
		for i := range c.stripes {
			s := &c.stripes[i]
			for k2, e2 := range s.m {
				if k2 == key && e2 == e {
					continue
				}
				dropped++
				if k2.group >= 0 {
					c.groupEvictions.Add(1)
				}
				delete(s.m, k2)
			}
		}
		c.evictions.Add(dropped)
		// The only survivor is the inserting entry (if still resident); any
		// dropped in-flight build skips its accounting via the live-check.
		var resident int64
		if cur, ok := c.stripe(key.h1).m[key]; ok && cur == e {
			resident = e.plane.sizeBytes()
		}
		c.bytes.Store(resident)
	}
	for i := len(c.stripes) - 1; i >= 0; i-- {
		c.stripes[i].mu.Unlock()
	}
}

// PlaneCacheStats is a plane cache's lifetime counters and current
// residency. Evictions counts individual entries dropped by the overflow
// policy. A hit may still wait for the plane to finish building (the
// single-flight case); it never duplicates the build.
type PlaneCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64

	// Grouped-plane (row-variant layer) slices of the same events.
	GroupBuilds    int64
	GroupHits      int64
	GroupEvictions int64
}

// Stats reports lifetime hit/miss/eviction counters and current residency.
func (c *PlaneCache) Stats() PlaneCacheStats {
	n := 0
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return PlaneCacheStats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Evictions:      c.evictions.Load(),
		Entries:        n,
		Bytes:          c.bytes.Load(),
		GroupBuilds:    c.groupBuilds.Load(),
		GroupHits:      c.groupHits.Load(),
		GroupEvictions: c.groupEvictions.Load(),
	}
}

// RegisterMetrics exposes the cache's counters in the registry as
// <prefix>_{hits,misses,evictions,entries,bytes}, read live at snapshot
// time.
func (c *PlaneCache) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.Func(prefix+"_hits", c.hits.Load)
	r.Func(prefix+"_misses", c.misses.Load)
	r.Func(prefix+"_evictions", c.evictions.Load)
	r.Func(prefix+"_entries", func() int64 { return int64(c.Stats().Entries) })
	r.Func(prefix+"_bytes", c.bytes.Load)
	r.Func(prefix+"_group_builds", c.groupBuilds.Load)
	r.Func(prefix+"_group_hits", c.groupHits.Load)
	r.Func(prefix+"_group_evictions", c.groupEvictions.Load)
}

// Reset drops every entry and zeroes the counters. The dropped entries are
// deliberate, not capacity pressure, so they do not count as evictions.
func (c *PlaneCache) Reset() {
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		s.m = make(map[planeKey]*planeEntry)
		s.mu.Unlock()
	}
	c.bytes.Store(0)
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
	c.groupBuilds.Store(0)
	c.groupHits.Store(0)
	c.groupEvictions.Store(0)
}
