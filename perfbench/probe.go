package main

import (
	"time"

	"bittactical/internal/arch"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
)

// The probes time, from outside the engine, the calls the engine makes for
// the lookups a run performed: they replay the same public functions on
// the same inputs, one at a time on one goroutine. Their totals are
// estimates of the engine's time in those functions, not measurements
// inside it.

// modelProbe is the nn layer's cost of bringing up a set of models.
type modelProbe struct {
	models              int
	build, acts, lowerD time.Duration
}

func (m modelProbe) perModelMs() (build, acts, lower float64) {
	if m.models == 0 {
		return 0, 0, 0
	}
	n := float64(m.models)
	return ms(m.build) / n, ms(m.acts) / n, ms(m.lowerD) / n
}

// bringUp times building one model, synthesising its activations and
// lowering it to 16 lanes, recording one span per step under parent.
func bringUp(rec *recorder, trace, parent int, mp *modelProbe,
	build func() (*nn.Model, int64, error)) ([]*nn.Lowered, error) {
	t0 := time.Now()
	m, actSeed, err := build()
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	acts := m.GenerateActs(actSeed)
	t2 := time.Now()
	low, err := m.Lowered(16, acts)
	t3 := time.Now()
	if err != nil {
		return nil, err
	}
	rec.record(trace, parent, "nn.build", t0, t1)
	rec.record(trace, parent, "nn.acts", t1, t2)
	rec.record(trace, parent, "nn.lower", t2, t3)
	mp.models++
	mp.build += t1.Sub(t0)
	mp.acts += t2.Sub(t1)
	mp.lowerD += t3.Sub(t2)
	return low, nil
}

// lookup is one schedule-cache lookup the engine makes: one resident
// filter group [f0, f1) of one lowered layer under one front-end config.
type lookup struct {
	cfg    int
	lw     *nn.Lowered
	f0, f1 int
}

// lookupsOf lists the lookups one engine sweep of cfgs over the lowered
// layers makes, in the engine's order: every config with a front end,
// every layer, every group of FiltersPerTile filters.
func lookupsOf(cfgs []arch.Config, layers []*nn.Lowered) []lookup {
	var out []lookup
	for ci, cfg := range cfgs {
		if !cfg.HasFrontEnd() {
			continue
		}
		rows := cfg.FiltersPerTile
		for _, lw := range layers {
			for f0 := 0; f0 < lw.Filters; f0 += rows {
				out = append(out, lookup{cfg: ci, lw: lw, f0: f0, f1: min(f0+rows, lw.Filters)})
			}
		}
	}
	return out
}

// lookupProbe is the sched-side cost of a list of lookups: filter-row
// extraction, content hashing and schedule statistics for every lookup
// (timed on every stride-th one and scaled to all of them), and the miss
// path for each distinct group among the timed ones.
type lookupProbe struct {
	lookups, timed         int
	filterRows, hash, stat time.Duration
	fills                  int
	fill                   time.Duration
}

func (p lookupProbe) fillMsPerGroup() float64 {
	if p.fills == 0 {
		return 0
	}
	return ms(p.fill) / float64(p.fills)
}

// statsSink keeps the probed Stats calls from being optimised away.
var statsSink int

// probeLookups replays the lookups through the public sched and nn calls
// the engine uses (Lowered.FilterRowInto, sched.HashFilters, the cache's
// keyed lookup — a fill on first sight — and Schedule.Stats) against a
// private cache, so the shared cache's counters are untouched.
func probeLookups(cfgs []arch.Config, ls []lookup, stride int) lookupProbe {
	if stride < 1 {
		stride = 1
	}
	cache := sched.NewCache(1 << 20)
	keyers := make([]sched.Keyer, len(cfgs))
	for i, c := range cfgs {
		keyers[i] = cache.Keyer(c.Pattern, c.Scheduler)
	}
	type groupKey struct {
		h1, h2 uint64
		cfg    string
		alg    sched.Algorithm
	}
	seen := make(map[groupKey]bool)
	p := lookupProbe{lookups: len(ls)}
	var (
		weights []int32
		filters []sched.Filter
	)
	for i := 0; i < len(ls); i += stride {
		l := ls[i]
		lw, n := l.lw, l.f1-l.f0
		size := lw.Steps * lw.Lanes
		if cap(weights) < n*size {
			weights = make([]int32, n*size)
		}
		if cap(filters) < n {
			filters = make([]sched.Filter, n)
		}
		filters = filters[:n]
		pad := lw.PadMask()

		t0 := time.Now()
		for j := 0; j < n; j++ {
			lw.FilterRowInto(l.f0+j, weights[j*size:(j+1)*size])
		}
		t1 := time.Now()
		for j := 0; j < n; j++ {
			filters[j] = sched.NewFilter(lw.Lanes, lw.Steps, weights[j*size:(j+1)*size], pad)
		}
		t2 := time.Now()
		h1, h2 := sched.HashFilters(filters)
		t3 := time.Now()
		cfg := cfgs[l.cfg]
		k := groupKey{h1, h2, cfg.Pattern.Name, cfg.Scheduler}
		first := !seen[k]
		seen[k] = true
		t4 := time.Now()
		schedules := keyers[l.cfg].ScheduleGroup(h1, h2, filters)
		t5 := time.Now()
		for j, s := range schedules {
			statsSink += s.Stats(filters[j]).Columns
		}
		t6 := time.Now()

		p.timed++
		p.filterRows += t1.Sub(t0)
		p.hash += t3.Sub(t2)
		p.stat += t6.Sub(t5)
		if first {
			p.fills++
			p.fill += t5.Sub(t4)
		}
	}
	if p.timed > 0 {
		scale := float64(p.lookups) / float64(p.timed)
		p.filterRows = time.Duration(float64(p.filterRows) * scale)
		p.hash = time.Duration(float64(p.hash) * scale)
		p.stat = time.Duration(float64(p.stat) * scale)
	}
	return p
}

// checkLookups fails the run when the replayed lookup count differs from
// what the shared cache counted: the probes then no longer replay the
// engine's work, and the per-layer times they feed describe something
// else.
func checkLookups(r *report, what string, replayed, counted int64) {
	if replayed != counted {
		r.fail("%s probe replayed %d schedule lookups, the shared cache counted %d", what, replayed, counted)
	}
}
