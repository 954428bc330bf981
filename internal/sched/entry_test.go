package sched

import (
	"strings"
	"testing"
	"unsafe"
)

// TestEntryLayout pins the compact entry: the schedule cache holds one
// Entry per (filter, column, lane), so a field added here multiplies the
// resident figure heap.
func TestEntryLayout(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n != 8 {
		t.Fatalf("sizeof(Entry) = %d bytes, want 8 (weight + int16 mux offset)", n)
	}
}

func TestWrapLaneMatchesModulo(t *testing.T) {
	for lanes := 1; lanes <= 17; lanes++ {
		for v := -5 * lanes; v <= 5*lanes; v++ {
			want := ((v % lanes) + lanes) % lanes
			if got := wrapLane(v, lanes); got != want {
				t.Fatalf("wrapLane(%d, %d) = %d, want %d", v, lanes, got, want)
			}
		}
	}
}

func TestEntrySrc(t *testing.T) {
	for _, c := range []struct {
		e                   Entry
		head, lane, lanes   int
		wantStep, wantSrcLn int
	}{
		{Entry{Weight: 1}, 3, 2, 4, 3, 2},
		{Entry{Weight: 1, Dt: 2}, 3, 2, 4, 5, 2},
		{Entry{Weight: 1, Dt: 1, Dl: -1}, 0, 0, 4, 1, 3},
		{Entry{Weight: 1, Dt: 1, Dl: 3}, 0, 2, 4, 1, 1},
		{Entry{Weight: 1, Dt: 1, Dl: -9}, 0, 1, 4, 1, 0},
	} {
		st, ln := c.e.Src(c.head, c.lane, c.lanes)
		if st != c.wantStep || ln != c.wantSrcLn {
			t.Errorf("%+v.Src(%d, %d, %d) = (%d, %d), want (%d, %d)",
				c.e, c.head, c.lane, c.lanes, st, ln, c.wantStep, c.wantSrcLn)
		}
	}
}

// TestInfiniteSpanBoundary checks the X<inf,15> range guard: a filter of
// exactly 1<<15 steps still fits Entry.Dt (its deepest promotion is
// Steps-1), one more step panics rather than truncating. Both the kernel
// and the reference path are held to it.
func TestInfiniteSpanBoundary(t *testing.T) {
	lastOnly := func(steps int) Filter {
		w := make([]int32, steps)
		w[steps-1] = 7
		return NewFilter(1, steps, w, nil)
	}
	paths := map[string]func([]Filter) []*Schedule{
		"kernel":    func(fs []Filter) []*Schedule { return ScheduleGroup(fs, X(), Algorithm1) },
		"reference": func(fs []Filter) []*Schedule { return ScheduleGroupReference(fs, X(), Algorithm1) },
	}
	for name, run := range paths {
		f := lastOnly(maxInfiniteSpan)
		s := run([]Filter{f})[0]
		if err := Verify(f, X(), s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Len() != 1 || s.Columns[0].Entries[0].Dt != maxInfiniteSpan-1 {
			t.Fatalf("%s: schedule %d columns, entry %+v; want one column promoting by %d",
				name, s.Len(), s.Columns[0].Entries[0], maxInfiniteSpan-1)
		}

		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: %d steps scheduled without a panic", name, maxInfiniteSpan+1)
				}
				if msg, _ := r.(string); !strings.Contains(msg, "int16") {
					t.Fatalf("%s: panic %v does not name the int16 bound", name, r)
				}
			}()
			run([]Filter{lastOnly(maxInfiniteSpan + 1)})
		}()
	}
}

// oneWeightFilter has a single effectual weight at (1, 2) of a 2×4 filter.
func oneWeightFilter() Filter {
	w := make([]int32, 2*4)
	w[1*4+2] = 5
	return NewFilter(4, 2, w, nil)
}

// oneColumn is a one-column schedule of oneWeightFilter whose lane 0
// carries the weight under the given offset.
func oneColumn(e Entry) *Schedule {
	ents := make([]Entry, 4)
	ents[0] = e
	return &Schedule{Lanes: 4, DenseSteps: 2,
		Columns: []Column{{Head: 0, Advance: 2, Entries: ents}}}
}

func TestVerifyRejectsCorruptOffsets(t *testing.T) {
	f, p := oneWeightFilter(), L(1, 2)
	if err := Verify(f, p, oneColumn(Entry{Weight: 5, Dt: 1, Dl: -2})); err != nil {
		t.Fatalf("valid lookaside rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		e    Entry
		want string
	}{
		{"Dt past the filter", Entry{Weight: 5, Dt: 2, Dl: -2}, "outside"},
		{"Dt at int16 max", Entry{Weight: 5, Dt: 1<<15 - 1}, "outside"},
		{"negative Dt", Entry{Weight: 5, Dt: -1, Dl: -2}, "outside"},
		// (1,+2) reaches the weight at (1,2) but is no edge of L<1,2>.
		{"off-pattern Dl", Entry{Weight: 5, Dt: 1, Dl: 2}, "not in pattern"},
	} {
		err := Verify(f, p, oneColumn(c.e))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Verify = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
