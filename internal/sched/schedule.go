package sched

import (
	"fmt"
)

// Filter is a single filter's dense schedule: Steps×Lanes weight codes in
// row-major order. Pad marks channel-padding slots (always-zero positions
// that exist only because the reduction is not a multiple of the lane
// count); it may be nil when no padding exists.
type Filter struct {
	Lanes, Steps int
	W            []int32
	Pad          []bool
}

// NewFilter wraps a weight matrix; it panics if the slice sizes disagree
// (construction bug, not a runtime condition).
func NewFilter(lanes, steps int, w []int32, pad []bool) Filter {
	if len(w) != lanes*steps {
		panic(fmt.Sprintf("sched: filter weights %d != %d steps × %d lanes", len(w), steps, lanes))
	}
	if pad != nil && len(pad) != lanes*steps {
		panic("sched: pad mask size mismatch")
	}
	return Filter{Lanes: lanes, Steps: steps, W: w, Pad: pad}
}

// At returns the weight at (step, lane).
func (f Filter) At(step, lane int) int32 { return f.W[step*f.Lanes+lane] }

// IsPad reports whether (step, lane) is a channel-padding slot.
func (f Filter) IsPad(step, lane int) bool {
	return f.Pad != nil && f.Pad[step*f.Lanes+lane]
}

// NNZ returns the number of effectual weights.
func (f Filter) NNZ() int {
	n := 0
	for _, v := range f.W {
		if v != 0 {
			n++
		}
	}
	return n
}

// Entry is one lane's work in one schedule column, stored the way the
// weight scratchpad stores it (internal/wsformat): the weight plus the
// promotion offset that drives the lane's activation multiplexer. A zero
// Weight means the lane idles that column.
//
// The entry is 8 bytes. The weight's dense-schedule position is not
// stored: it follows from the offset and the entry's place in the
// schedule (Src), exactly as the hardware derives it from the mux select.
type Entry struct {
	Weight int32
	// Dt, Dl record the promotion offset used ((0,0) for in-place
	// execution); they index the lane's activation multiplexer. Every
	// producer range-checks them before narrowing: Pattern.Validate bounds
	// pattern offsets, and the X<inf,15> path bounds the filter geometry.
	Dt, Dl int16
}

// Src locates the entry's weight in the dense schedule when the entry sits
// on lane of a column whose window head is head: (head+Dt, lane+Dl mod
// lanes). The paired activation at runtime is the one for that dense
// position.
func (e Entry) Src(head, lane, lanes int) (step, srcLane int) {
	return head + int(e.Dt), wrapLane(lane+int(e.Dl), lanes)
}

// Column is one schedule step emitted by the scheduler: what each lane
// multiplies, plus the ALC window advance that follows.
type Column struct {
	// Head is the dense step at the lookahead window's base when the column
	// issues.
	Head int
	// Advance is the ALC field: how many dense steps the window slides
	// after the column (≥ 1; > 1 skips fully-consumed or all-zero steps).
	Advance int
	Entries []Entry
}

// Schedule is the scheduler's output for one filter (or one filter of a
// jointly-scheduled group).
type Schedule struct {
	Lanes      int
	DenseSteps int
	Columns    []Column
}

// Len returns the schedule length in columns — the front-end execution time
// in the unit of "dense schedule columns".
func (s *Schedule) Len() int { return len(s.Columns) }

// SlotKind classifies one (column, lane) work slot for the Figure 9
// front-end breakdown.
type SlotKind int

const (
	// SlotUnpromoted: an effectual weight executed at its dense position.
	SlotUnpromoted SlotKind = iota
	// SlotLookahead: an effectual weight promoted in time only.
	SlotLookahead
	// SlotLookaside: an effectual weight promoted across lanes.
	SlotLookaside
	// SlotZero: an idle lane over a sparsity zero the scheduler could not
	// fill ("Zero Reads" in Figure 9).
	SlotZero
	// SlotPad: an idle lane over a channel-padding position.
	SlotPad
)

func (k SlotKind) String() string {
	switch k {
	case SlotUnpromoted:
		return "unpromoted"
	case SlotLookahead:
		return "lookahead"
	case SlotLookaside:
		return "lookaside"
	case SlotZero:
		return "zero"
	case SlotPad:
		return "padding"
	default:
		return fmt.Sprintf("SlotKind(%d)", int(k))
	}
}

// Stats is the front-end slot census of a schedule.
type Stats struct {
	Columns    int
	Slots      [5]int64 // indexed by SlotKind
	DenseSteps int
}

// Stats classifies every slot of the schedule against the filter.
func (s *Schedule) Stats(f Filter) Stats {
	st := Stats{Columns: s.Len(), DenseSteps: s.DenseSteps}
	for _, col := range s.Columns {
		for lane, e := range col.Entries {
			switch {
			case e.Weight == 0:
				if f.IsPad(col.Head, lane) {
					st.Slots[SlotPad]++
				} else {
					st.Slots[SlotZero]++
				}
			case e.Dt == 0 && e.Dl == 0:
				st.Slots[SlotUnpromoted]++
			case e.Dl == 0:
				st.Slots[SlotLookahead]++
			default:
				st.Slots[SlotLookaside]++
			}
		}
	}
	return st
}

// Verify checks every invariant the hardware depends on (DESIGN.md §5):
// each effectual weight scheduled exactly once; every promotion is an edge
// of the pattern; promoted weights stay inside the lookahead window; lanes
// hold at most one weight per column; the ALC advances monotonically and
// never abandons unexecuted weights; column count never exceeds dense steps.
// Each entry's source position is derived from its offset (Entry.Src) and
// must lie inside the dense schedule, so a corrupt offset is an error, not
// an index panic. An in-place entry references its own (head, lane) slot by
// construction.
func Verify(f Filter, p Pattern, s *Schedule) error {
	if s.Lanes != f.Lanes || s.DenseSteps != f.Steps {
		return fmt.Errorf("sched: verify: geometry mismatch")
	}
	if s.Len() > f.Steps && f.Steps > 0 {
		return fmt.Errorf("sched: verify: %d columns exceed %d dense steps", s.Len(), f.Steps)
	}
	edge := map[Offset]bool{}
	for _, o := range p.Offsets {
		edge[o] = true
	}
	seen := make(map[int]bool, f.NNZ())
	head := 0
	for ci, col := range s.Columns {
		if col.Head < head {
			return fmt.Errorf("sched: verify: column %d head %d moved backwards (prev %d)", ci, col.Head, head)
		}
		head = col.Head
		if col.Advance < 1 {
			return fmt.Errorf("sched: verify: column %d advance %d < 1", ci, col.Advance)
		}
		if len(col.Entries) != f.Lanes {
			return fmt.Errorf("sched: verify: column %d has %d entries", ci, len(col.Entries))
		}
		for lane, e := range col.Entries {
			if e.Weight == 0 {
				continue
			}
			step, srcLane := e.Src(col.Head, lane, f.Lanes)
			if step < 0 || step >= f.Steps {
				return fmt.Errorf("sched: verify: column %d lane %d: offset (%d,%d) at head %d reaches step %d outside the %d dense steps",
					ci, lane, e.Dt, e.Dl, col.Head, step, f.Steps)
			}
			pos := step*f.Lanes + srcLane
			if f.W[pos] != e.Weight {
				return fmt.Errorf("sched: verify: column %d lane %d claims weight %d at (%d,%d) but dense holds %d",
					ci, lane, e.Weight, step, srcLane, f.W[pos])
			}
			if seen[pos] {
				return fmt.Errorf("sched: verify: weight at (%d,%d) scheduled twice", step, srcLane)
			}
			seen[pos] = true
			if p.Infinite || (e.Dt == 0 && e.Dl == 0) {
				continue
			}
			if !edge[Offset{Dt: int(e.Dt), Dl: int(e.Dl)}] {
				return fmt.Errorf("sched: verify: promotion (%d,%d) not in pattern %s", e.Dt, e.Dl, p.Name)
			}
			if int(e.Dt) > p.H {
				return fmt.Errorf("sched: verify: promotion depth %d exceeds window %d", e.Dt, p.H)
			}
		}
	}
	// Completeness: every effectual weight executed.
	for step := 0; step < f.Steps; step++ {
		for lane := 0; lane < f.Lanes; lane++ {
			pos := step*f.Lanes + lane
			if f.W[pos] != 0 && !seen[pos] {
				return fmt.Errorf("sched: verify: weight at (%d,%d) never scheduled", step, lane)
			}
		}
	}
	return nil
}
