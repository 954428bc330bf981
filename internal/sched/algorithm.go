package sched

import (
	"fmt"
	"sort"
)

// Algorithm selects the promotion heuristic.
type Algorithm int

const (
	// Algorithm1 is the paper's scheduler (Section 4): at each window
	// position it counts, for every ineffectual slot, how many effectual
	// weights could be promoted into it, and fills the least-flexible
	// (ideally exclusive) slots first, avoiding the blocked-promotion
	// pathology of Figure 4.
	Algorithm1 Algorithm = iota
	// GreedySimple is the baseline scheduler of Figure 11b: lanes claim the
	// first reachable weight in fixed order, with no exclusivity analysis.
	GreedySimple
	// Matching fills each column with a maximum bipartite matching between
	// free lanes and reachable weights (Kuhn's augmenting paths) — the
	// per-column optimum, an upper bound on what Algorithm 1's
	// exclusive-first heuristic can achieve within a single column. It is
	// an extension beyond the paper, used to measure how close Algorithm 1
	// gets to column-optimal.
	Matching
)

func (a Algorithm) String() string {
	switch a {
	case GreedySimple:
		return "greedy"
	case Matching:
		return "matching"
	default:
		return "algorithm1"
	}
}

// scheduleGroupReference is the straightforward scheduler: it re-enumerates
// every lane's promotion candidates from scratch each column with fresh
// slices and sorts. It is kept as the executable specification the optimized
// kernel (kernel.go) is differentially fuzzed against, and as the fallback
// for patterns with more than 64 offsets (beyond the kernel's per-lane
// candidate bitset).
//
// All returned schedules have identical column counts, heads, and advances.
func scheduleGroupReference(filters []Filter, p Pattern, alg Algorithm) []*Schedule {
	return scheduleGroupRef(filters, p, alg)
}

// ScheduleGroupReference exposes the reference scheduler to differential
// tooling outside the package (the benchmark suite measures kernel vs
// reference); engine code must use ScheduleGroup or a Cache.
func ScheduleGroupReference(filters []Filter, p Pattern, alg Algorithm) []*Schedule {
	return scheduleGroupRef(filters, p, alg)
}

func scheduleGroupRef(filters []Filter, p Pattern, alg Algorithm) []*Schedule {
	if len(filters) == 0 {
		return nil
	}
	lanes, steps := filters[0].Lanes, filters[0].Steps
	for _, f := range filters {
		if f.Lanes != lanes || f.Steps != steps {
			panic(fmt.Sprintf("sched: group filters disagree on geometry (%dx%d vs %dx%d)",
				f.Steps, f.Lanes, steps, lanes))
		}
	}
	if p.Infinite {
		return scheduleInfinite(filters)
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}

	nf := len(filters)
	done := make([][]bool, nf)
	stepPending := make([][]int, nf)
	pending := 0
	for i, f := range filters {
		done[i] = make([]bool, steps*lanes)
		stepPending[i] = make([]int, steps)
		for st := 0; st < steps; st++ {
			for ln := 0; ln < lanes; ln++ {
				if f.W[st*lanes+ln] != 0 {
					stepPending[i][st]++
					pending++
				}
			}
		}
	}
	out := make([]*Schedule, nf)
	for i := range out {
		out[i] = &Schedule{Lanes: lanes, DenseSteps: steps}
	}

	stepClear := func(st int) bool {
		for i := range filters {
			if stepPending[i][st] != 0 {
				return false
			}
		}
		return true
	}

	head := 0
	for head < steps && stepClear(head) {
		head++ // skip leading all-ineffectual steps (ALC pre-advance)
	}
	for pending > 0 {
		for i, f := range filters {
			col := Column{Head: head, Entries: make([]Entry, lanes)}
			referenceBuildColumn(f, p, alg, done[i], stepPending[i], head, col.Entries)
			out[i].Columns = append(out[i].Columns, col)
		}
		// Count what each filter executed this column against pending.
		for i := range filters {
			cols := out[i].Columns
			for _, e := range cols[len(cols)-1].Entries {
				if e.Weight != 0 {
					pending--
				}
			}
		}
		// Shared ALC advance: slide past every fully-consumed step.
		adv := 0
		for head+adv < steps && stepClear(head+adv) {
			adv++
		}
		if adv == 0 {
			// Cannot happen: the head step is always consumed in-column.
			panic("sched: window failed to advance")
		}
		if pending == 0 {
			// Remaining steps (if any) are all ineffectual; the ALC skips
			// them outright.
			adv = steps - head
			if adv < 1 {
				adv = 1
			}
		}
		for i := range filters {
			out[i].Columns[len(out[i].Columns)-1].Advance = adv
		}
		head += adv
	}
	return out
}

// cand is a reachable promotion candidate for one lane.
type cand struct {
	off     Offset
	srcStep int
	srcLane int
}

// referenceBuildColumn fills entries for one filter at the given head,
// marking executed weights in done/stepPending. Returns the number of idle
// lanes. Every choice is fully deterministic: candidate order is the stable
// (srcStep, |Dl|, pattern-offset index) order, and lanes are visited in
// ascending index order — the exact tie-breaking contract the optimized
// kernel reproduces.
func referenceBuildColumn(f Filter, p Pattern, alg Algorithm, done []bool, stepPending []int, head int, entries []Entry) int {
	lanes, steps := f.Lanes, f.Steps
	take := func(lane, srcStep, srcLane, dt, dl int) {
		pos := srcStep*lanes + srcLane
		entries[lane] = Entry{Weight: f.W[pos], Dt: int16(dt), Dl: int16(dl)}
		done[pos] = true
		stepPending[srcStep]--
	}

	assigned := make([]bool, lanes)
	// Pass 1: effectual weights at the head execute in place.
	for ln := 0; ln < lanes; ln++ {
		pos := head*lanes + ln
		if f.W[pos] != 0 && !done[pos] {
			take(ln, head, ln, 0, 0)
			assigned[ln] = true
		}
	}

	candidatesOf := func(lane int) []cand {
		var cs []cand
		for _, o := range p.Offsets {
			u := head + o.Dt
			if u >= steps {
				continue
			}
			v := ((lane+o.Dl)%lanes + lanes) % lanes
			pos := u*lanes + v
			if f.W[pos] != 0 && !done[pos] {
				cs = append(cs, cand{off: o, srcStep: u, srcLane: v})
			}
		}
		return cs
	}

	idle := 0
	switch alg {
	case Matching:
		// Maximum bipartite matching between free lanes and reachable
		// weights; candidates are ordered earliest-step-first so augmenting
		// favors draining the window head. Lanes augment in ascending index
		// order so the matching (not just its size) is deterministic.
		laneCands := make([][]cand, lanes)
		posOwner := map[int]int{} // weight position -> lane
		for ln := 0; ln < lanes; ln++ {
			if assigned[ln] {
				continue
			}
			cs := candidatesOf(ln)
			sort.SliceStable(cs, func(a, b int) bool { return better(cs[a], cs[b]) })
			laneCands[ln] = cs
		}
		laneMatch := make([]*cand, lanes)
		var try func(ln int, visited map[int]bool) bool
		try = func(ln int, visited map[int]bool) bool {
			for i := range laneCands[ln] {
				c := laneCands[ln][i]
				pos := c.srcStep*lanes + c.srcLane
				if visited[pos] {
					continue
				}
				visited[pos] = true
				owner, taken := posOwner[pos]
				if !taken || try(owner, visited) {
					posOwner[pos] = ln
					laneMatch[ln] = &laneCands[ln][i]
					return true
				}
			}
			return false
		}
		for ln := 0; ln < lanes; ln++ {
			if !assigned[ln] {
				try(ln, map[int]bool{})
			}
		}
		for ln := 0; ln < lanes; ln++ {
			c := laneMatch[ln]
			if c == nil || posOwner[c.srcStep*lanes+c.srcLane] != ln {
				continue // unmatched, or displaced by an augmenting path
			}
			take(ln, c.srcStep, c.srcLane, c.off.Dt, c.off.Dl)
			assigned[ln] = true
		}
		for ln := 0; ln < lanes; ln++ {
			if !assigned[ln] {
				idle++
			}
		}
	case GreedySimple:
		for ln := 0; ln < lanes; ln++ {
			if assigned[ln] {
				continue
			}
			cs := candidatesOf(ln)
			if len(cs) == 0 {
				idle++
				continue
			}
			c := cs[0]
			take(ln, c.srcStep, c.srcLane, c.off.Dt, c.off.Dl)
			assigned[ln] = true
		}
	default: // Algorithm1
		for {
			type openSlot struct {
				lane int
				n    int // flexibility: how many candidates can fill the slot
				best cand
			}
			var open []openSlot
			for ln := 0; ln < lanes; ln++ {
				if assigned[ln] {
					continue
				}
				if cs := candidatesOf(ln); len(cs) > 0 {
					b := cs[0]
					for _, c := range cs[1:] {
						if better(c, b) {
							b = c
						}
					}
					open = append(open, openSlot{lane: ln, n: len(cs), best: b})
				}
			}
			if len(open) == 0 {
				break
			}
			// Fill the least-flexible slot first (exclusive promotions when
			// the minimum is 1), per Algorithm 1 lines 13–24. Ties go to the
			// slot whose best candidate moves the least (in-lane lookahead
			// before lane-crossing lookaside), then to the lowest lane
			// (implicit: open is built in ascending lane order).
			slot := open[0]
			for _, o := range open[1:] {
				if o.n < slot.n || (o.n == slot.n && abs(o.best.off.Dl) < abs(slot.best.off.Dl)) {
					slot = o
				}
			}
			take(slot.lane, slot.best.srcStep, slot.best.srcLane, slot.best.off.Dt, slot.best.off.Dl)
			assigned[slot.lane] = true
		}
		for ln := 0; ln < lanes; ln++ {
			if !assigned[ln] {
				idle++
			}
		}
	}
	return idle
}

// better orders promotion candidates: drain the earliest dense step first
// (maximizing the ALC advance), then prefer the shortest lane displacement
// (pure lookahead first, leaving lookaside reach for other lanes).
func better(a, b cand) bool {
	if a.srcStep != b.srcStep {
		return a.srcStep < b.srcStep
	}
	return abs(a.off.Dl) < abs(b.off.Dl)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// scheduleInfinite realizes the X<inf,15> upper bound: arbitrary promotion
// compacts each filter to ⌈nnz/L⌉ columns; the group pads to the slowest
// filter.
func scheduleInfinite(filters []Filter) []*Schedule {
	lanes, steps := filters[0].Lanes, filters[0].Steps
	checkInfiniteSpan(lanes, steps)
	maxCols := 0
	packed := make([][]int, len(filters)) // dense positions of effectual weights
	for i, f := range filters {
		var ps []int
		for pos, w := range f.W {
			if w != 0 {
				ps = append(ps, pos)
			}
		}
		packed[i] = ps
		if c := (len(ps) + lanes - 1) / lanes; c > maxCols {
			maxCols = c
		}
	}
	out := make([]*Schedule, len(filters))
	for i, ps := range packed {
		f := filters[i]
		s := &Schedule{Lanes: lanes, DenseSteps: steps}
		for c := 0; c < maxCols; c++ {
			col := Column{Head: min(c, steps-1), Advance: 1, Entries: make([]Entry, lanes)}
			for ln := 0; ln < lanes; ln++ {
				if k := c*lanes + ln; k < len(ps) {
					st, sl := ps[k]/lanes, ps[k]%lanes
					col.Entries[ln] = Entry{Weight: f.W[ps[k]], Dt: int16(st - col.Head), Dl: int16(sl - ln)}
				}
			}
			s.Columns = append(s.Columns, col)
		}
		if maxCols > 0 {
			s.Columns[maxCols-1].Advance = steps - s.Columns[maxCols-1].Head
			if s.Columns[maxCols-1].Advance < 1 {
				s.Columns[maxCols-1].Advance = 1
			}
		}
		out[i] = s
	}
	return out
}
