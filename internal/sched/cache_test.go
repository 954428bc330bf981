package sched

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"bittactical/internal/metrics"
	"bittactical/internal/sparsity"
)

func cacheTestGroup(seed int64, steps, lanes int, sp float64, pad []bool) []Filter {
	rng := rand.New(rand.NewSource(seed))
	group := make([]Filter, 3)
	for i := range group {
		w := sparsity.RandomSparseFilter(rng, steps, lanes, sp)
		group[i] = NewFilter(lanes, steps, w, pad)
	}
	return group
}

func TestCacheHitReturnsIdenticalSchedules(t *testing.T) {
	c := NewCache(0)
	group := cacheTestGroup(3, 12, 8, 0.6, nil)
	p := T(2, 5)

	fresh := ScheduleGroup(group, p, Algorithm1)
	first := c.ScheduleGroup(group, p, Algorithm1)
	if !reflect.DeepEqual(fresh, first) {
		t.Fatal("cached computation differs from direct ScheduleGroup")
	}
	second := c.ScheduleGroup(group, p, Algorithm1)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("filter %d: hit returned a new schedule instead of the cached pointer", i)
		}
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = (%d, %d, %d), want (1, 1, 1)", st.Hits, st.Misses, st.Entries)
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	c := NewCache(0)
	group := cacheTestGroup(4, 12, 8, 0.6, nil)
	c.ScheduleGroup(group, T(2, 5), Algorithm1)

	// A different pattern, a different algorithm, and different weights must
	// each miss, even when the pattern shares a mux arity.
	c.ScheduleGroup(group, L(2, 5), Algorithm1)
	c.ScheduleGroup(group, T(2, 5), GreedySimple)
	c.ScheduleGroup(cacheTestGroup(5, 12, 8, 0.6, nil), T(2, 5), Algorithm1)
	if st := c.Stats(); st.Hits != 0 || st.Misses != 4 {
		t.Fatalf("stats = (%d hits, %d misses), want (0, 4)", st.Hits, st.Misses)
	}
}

// TestCachePadIndependent pins the deliberate key choice: scheduling reads
// only the weight values, so groups differing only in the padding mask
// share one entry.
func TestCachePadIndependent(t *testing.T) {
	c := NewCache(0)
	pad := make([]bool, 12*8)
	for i := range pad {
		pad[i] = i%3 == 0
	}
	plain := cacheTestGroup(6, 12, 8, 0.6, nil)
	padded := cacheTestGroup(6, 12, 8, 0.6, pad)

	a := c.ScheduleGroup(plain, T(2, 5), Algorithm1)
	b := c.ScheduleGroup(padded, T(2, 5), Algorithm1)
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = (%d hits, %d misses), want pad-only difference to hit", st.Hits, st.Misses)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("filter %d: padded group did not share the cached schedule", i)
		}
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(0)
	group := cacheTestGroup(7, 12, 8, 0.6, nil)
	c.ScheduleGroup(group, T(2, 5), Algorithm1)
	c.ScheduleGroup(group, T(2, 5), Algorithm1)
	c.Reset()
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("after Reset: stats = %+v, want zeros", st)
	}
	c.ScheduleGroup(group, T(2, 5), Algorithm1)
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("after Reset: stats = (%d hits, %d misses), want a cold miss", st.Hits, st.Misses)
	}
}

// TestCacheBytesAccounting pins CacheStats.Bytes to the exact footprint
// of the resident groups: 8 bytes per entry plus each column and schedule
// header, back to 0 on Reset, and only the surviving group after an
// overflow sweep.
func TestCacheBytesAccounting(t *testing.T) {
	const ptr = int64(unsafe.Sizeof(uintptr(0)))
	want := func(ss []*Schedule) int64 {
		var n int64
		for _, s := range ss {
			n += int64(unsafe.Sizeof(Schedule{})) + ptr +
				int64(len(s.Columns))*(int64(unsafe.Sizeof(Column{}))+int64(s.Lanes)*8)
		}
		return n
	}
	p := T(2, 5)
	a, b := cacheTestGroup(500, 12, 8, 0.6, nil), cacheTestGroup(501, 20, 16, 0.5, nil)

	c := NewCache(0)
	sa := c.ScheduleGroup(a, p, Algorithm1)
	if got := c.Stats().Bytes; got != want(sa) || got == 0 {
		t.Fatalf("after one fill: bytes = %d, want %d", got, want(sa))
	}
	c.ScheduleGroup(a, p, Algorithm1) // a hit carves nothing
	sb := c.ScheduleGroup(b, p, Algorithm1)
	if got := c.Stats().Bytes; got != want(sa)+want(sb) {
		t.Fatalf("after two fills: bytes = %d, want %d", got, want(sa)+want(sb))
	}
	c.Reset()
	if got := c.Stats().Bytes; got != 0 {
		t.Fatalf("after Reset: bytes = %d, want 0", got)
	}

	one := NewCache(1)
	one.ScheduleGroup(a, p, Algorithm1)
	sb = one.ScheduleGroup(b, p, Algorithm1) // overflow drops a, keeps b
	if st := one.Stats(); st.Evictions != 1 || st.Bytes != want(sb) {
		t.Fatalf("after overflow: %d evictions, bytes = %d; want 1 and %d", st.Evictions, st.Bytes, want(sb))
	}
}

// TestCacheCapacityClears checks the overflow policy: at capacity the cache
// drops everything and refills rather than growing without bound.
func TestCacheCapacityClears(t *testing.T) {
	c := NewCache(4)
	for seed := int64(0); seed < 10; seed++ {
		c.ScheduleGroup(cacheTestGroup(100+seed, 6, 4, 0.5, nil), T(2, 5), Algorithm1)
	}
	st := c.Stats()
	if st.Misses != 10 {
		t.Fatalf("misses = %d, want 10 distinct groups", st.Misses)
	}
	if st.Entries > 4 {
		t.Fatalf("entries = %d, exceeds capacity 4", st.Entries)
	}
	// Ten distinct groups through a 4-entry cache force at least one
	// full-map drop, and every dropped entry must be recorded.
	if st.Evictions == 0 {
		t.Fatal("overflow recorded no evictions")
	}
	if st.Evictions+int64(st.Entries) != st.Misses {
		t.Fatalf("evictions %d + resident %d != inserted %d: dropped entries went unrecorded",
			st.Evictions, st.Entries, st.Misses)
	}
}

// TestCacheCapacityOneChurn is the overflow-policy regression test: a
// capacity-1 cache evicts on essentially every insert, and it must keep
// returning schedules identical to the uncached path — eviction may cost
// recomputation, never correctness.
func TestCacheCapacityOneChurn(t *testing.T) {
	c := NewCache(1)
	p := T(2, 5)
	groups := make([][]Filter, 4)
	for i := range groups {
		groups[i] = cacheTestGroup(300+int64(i), 10, 8, 0.6, nil)
	}
	for round := 0; round < 3; round++ {
		for i, g := range groups {
			got := c.ScheduleGroup(g, p, Algorithm1)
			want := ScheduleGroup(g, p, Algorithm1)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("round %d group %d: churned cache returned a wrong schedule", round, i)
			}
		}
	}
	st := c.Stats()
	if st.Entries > 1 {
		t.Fatalf("entries = %d, exceeds capacity 1", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("capacity-1 churn recorded no evictions")
	}
	if st.Evictions+int64(st.Entries) != st.Misses {
		t.Fatalf("evictions %d + resident %d != inserted %d",
			st.Evictions, st.Entries, st.Misses)
	}
}

// TestCacheRegisterMetrics checks the registry view tracks the live
// counters.
func TestCacheRegisterMetrics(t *testing.T) {
	c := NewCache(1)
	r := metrics.NewRegistry()
	c.RegisterMetrics(r, "cache")
	group := cacheTestGroup(400, 10, 8, 0.6, nil)
	c.ScheduleGroup(group, T(2, 5), Algorithm1)
	c.ScheduleGroup(group, T(2, 5), Algorithm1)
	c.ScheduleGroup(cacheTestGroup(401, 10, 8, 0.6, nil), T(2, 5), Algorithm1)
	snap := r.Snapshot()
	st := c.Stats()
	want := map[string]int64{
		"cache_hits":      st.Hits,
		"cache_misses":    st.Misses,
		"cache_evictions": st.Evictions,
		"cache_entries":   int64(st.Entries),
		"cache_bytes":     st.Bytes,
	}
	for name, v := range want {
		if snap[name].(int64) != v {
			t.Errorf("%s = %v, want %d", name, snap[name], v)
		}
	}
	if st.Hits != 1 || st.Misses != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 1 hit, 2 misses, 1 eviction", st)
	}
}

// TestCacheSchedulesVerify makes sure memoization never serves a schedule
// that violates the hardware invariants for the group it keys.
func TestCacheSchedulesVerify(t *testing.T) {
	c := NewCache(0)
	for seed := int64(0); seed < 5; seed++ {
		group := cacheTestGroup(200+seed, 18, 16, 0.7, nil)
		p := T(2, 5)
		for round := 0; round < 2; round++ { // miss, then hit
			for i, s := range c.ScheduleGroup(group, p, Algorithm1) {
				if err := Verify(group[i], p, s); err != nil {
					t.Fatalf("seed %d round %d filter %d: %v", seed, round, i, err)
				}
			}
		}
	}
}
