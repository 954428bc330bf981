package sched

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// stressWorkload builds per-worker disjoint filter groups plus their fresh
// (uncached) schedules as the correctness oracle. Disjoint key sets keep the
// eviction accounting exact under concurrency: a key is only ever filled by
// its owning worker, so every recorded miss corresponds to exactly one
// insert, and at quiescence evictions + resident entries must equal misses
// across all stripes.
func stressWorkload(workers, groupsPer int, p Pattern, alg Algorithm) ([][][]Filter, [][][]*Schedule) {
	groups := make([][][]Filter, workers)
	fresh := make([][][]*Schedule, workers)
	for w := 0; w < workers; w++ {
		groups[w] = make([][]Filter, groupsPer)
		fresh[w] = make([][]*Schedule, groupsPer)
		for g := 0; g < groupsPer; g++ {
			seed := int64(1000 + w*groupsPer + g)
			groups[w][g] = cacheTestGroup(seed, 10, 8, 0.6, nil)
			fresh[w][g] = ScheduleGroup(groups[w][g], p, alg)
		}
	}
	return groups, fresh
}

// TestCacheConcurrentMixedLoad hammers the striped cache with a mixed
// hit/miss/evict load: each worker loops over its own working set, so early
// rounds miss and fill, later rounds hit — unless a capacity sweep dropped
// the entry, forcing a re-fill. Run across capacities that exercise the
// full stripe ladder (capacity 1 = single stripe and eviction on nearly
// every insert; 8 = reduced stripes; default = 16 stripes, no evictions).
// Every lookup must return schedules identical to the uncached computation,
// and the cross-stripe counters must balance exactly:
//
//	hits + misses == lookups
//	evictions + entries == misses   (disjoint keys: one insert per miss)
//	bytes == footprint of the resident groups
func TestCacheConcurrentMixedLoad(t *testing.T) {
	const workers, groupsPer, rounds = 8, 12, 12
	p, alg := T(2, 5), Algorithm1
	groups, fresh := stressWorkload(workers, groupsPer, p, alg)

	for _, capacity := range []int{1, 8, 0} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			c := NewCache(capacity)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						for g := range groups[w] {
							got := c.ScheduleGroup(groups[w][g], p, alg)
							if !reflect.DeepEqual(fresh[w][g], got) {
								t.Errorf("worker %d group %d round %d: cached schedules differ from fresh computation", w, g, r)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			st := c.Stats()
			lookups := int64(workers * groupsPer * rounds)
			if st.Hits+st.Misses != lookups {
				t.Errorf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, lookups)
			}
			if st.Evictions+int64(st.Entries) != st.Misses {
				t.Errorf("evictions %d + resident %d != misses %d: cross-stripe eviction accounting drifted",
					st.Evictions, st.Entries, st.Misses)
			}
			var resident int64
			for i := range c.stripes {
				for _, ss := range c.stripes[i].m {
					resident += groupBytes(ss)
				}
			}
			if st.Bytes != resident {
				t.Errorf("bytes %d != %d carved for the resident groups: cross-stripe byte accounting drifted",
					st.Bytes, resident)
			}
			if capacity == 1 && st.Evictions == 0 {
				t.Error("capacity-1 churn recorded no evictions")
			}
			if capacity == 0 && st.Evictions != 0 {
				t.Errorf("default capacity evicted %d entries for a %d-entry working set", st.Evictions, workers*groupsPer)
			}
		})
	}
}

// TestKeyerMatchesScheduleGroup pins the precomputed-key path against the
// hash-per-call entry point: same schedules, and a Keyer hit returns the
// cached pointers the plain path stored.
func TestKeyerMatchesScheduleGroup(t *testing.T) {
	c := NewCache(0)
	p, alg := T(2, 5), Algorithm1
	group := cacheTestGroup(500, 12, 8, 0.6, nil)

	direct := c.ScheduleGroup(group, p, alg)
	k := c.Keyer(p, alg)
	h1, h2 := HashFilters(group)
	viaKeyer := k.ScheduleGroup(h1, h2, group)
	for i := range direct {
		if direct[i] != viaKeyer[i] {
			t.Fatalf("filter %d: Keyer lookup missed the entry ScheduleGroup stored", i)
		}
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = (%d hits, %d misses), want the Keyer path to hit", st.Hits, st.Misses)
	}
}

// TestKeyerLookupFill pins the split lookup the engine uses when it
// memoises a group's content hash: Lookup resolves a hit from the hash
// alone and counts it; a miss counts nothing until Fill, which counts one
// miss and stores the entry the next Lookup hits — one count per lookup
// either way, exactly as ScheduleGroup.
func TestKeyerLookupFill(t *testing.T) {
	c := NewCache(0)
	p, alg := T(2, 5), Algorithm1
	k := c.Keyer(p, alg)
	group := cacheTestGroup(600, 10, 8, 0.6, nil)
	h1, h2 := HashFilters(group)

	if _, ok := k.Lookup(h1, h2); ok {
		t.Fatal("Lookup hit an empty cache")
	}
	if st := c.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("a missed Lookup counted (%d hits, %d misses), want nothing until Fill", st.Hits, st.Misses)
	}
	filled := k.Fill(h1, h2, group)
	if !reflect.DeepEqual(filled, ScheduleGroup(group, p, alg)) {
		t.Fatal("Fill differs from direct ScheduleGroup")
	}
	got, ok := k.Lookup(h1, h2)
	if !ok {
		t.Fatal("Lookup missed the entry Fill stored")
	}
	for i := range got {
		if got[i] != filled[i] {
			t.Fatalf("filter %d: Lookup returned a different entry than Fill stored", i)
		}
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
	if !reflect.DeepEqual(k.ScheduleGroup(h1, h2, group), filled) {
		t.Fatal("ScheduleGroup disagrees with the split lookup")
	}
}
