package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"bittactical/internal/arch"
	"bittactical/internal/backend"
	"bittactical/internal/experiments"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
)

// figsDigest is the SHA-256 of the rendered fig8a and fig8b tables at the
// default seed and zoo, generated at parallelism 1 with
// `perfbench -gen-digest`. Every run at the default seed must reproduce it.
const figsDigest = "23e2b8c9b4edcde11526321bcc04dcd94f89259002159794e496da7f8741ed0b"

// figIDs are the figures one figs operation regenerates, in order.
var figIDs = []string{"fig8a", "fig8b"}

// actSeed maps the workload seed to the figures' activation seed.
// experiments treats 0 as its default (7), so seed 0 gets a seed of its own.
func actSeed(seed int64) int64 {
	if seed == 0 {
		return 1<<31 - 1
	}
	return seed
}

func expOptions(o options, parallelism int) experiments.Options {
	return experiments.Options{Zoo: o.zoo, ActSeed: actSeed(o.seed), Models: o.models, Parallelism: parallelism}
}

// isDefaultFigs reports whether o regenerates exactly what figsDigest pins.
func isDefaultFigs(o options) bool {
	d := defaultOptions()
	return o.seed == defaultSeed && o.zoo == d.zoo && strings.Join(o.models, ",") == strings.Join(d.models, ",")
}

// figRun is one figs operation: fig8a then fig8b. A figs-cold child sends
// it to the parent as JSON.
type figRun struct {
	SetupS  float64 `json:"setup_s,omitempty"` // figs-cold child: start to runner entry
	HeapMB  float64 `json:"heap_mb,omitempty"` // figs-cold child: live heap after the run
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	GCCPUS  float64 `json:"gc_cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
	GCs     float64 `json:"gc_cycles"`
	Digest  string  `json:"digest"`
	Err     string  `json:"err,omitempty"`

	SchedLookups, SchedMisses int64
	SchedEntries              int
	PlaneLookups, PlaneMisses int64
	GroupPlaneBuilds          int64
	PlaneMB                   float64
	FigS                      map[string]float64

	Spans []span     `json:"spans,omitempty"`
	Probe *figsProbe `json:"probe,omitempty"`
}

// runFigures regenerates the figures once at the given engine parallelism,
// recording a figs.run span with one child per figure under the given
// trace id.
func runFigures(o options, parallelism int, rec *recorder, trace int) figRun {
	eo := expOptions(o, parallelism)
	s0, p0 := sched.Shared.Stats(), sim.SharedPlanes.Stats()
	rt0 := sampleRuntime()
	root, endRoot := rec.open(trace, 0, "figs.run")
	fr := figRun{FigS: make(map[string]float64)}
	h := sha256.New()
	for _, id := range figIDs {
		t0 := time.Now()
		tab, err := experiments.Registry[id](eo)
		t1 := time.Now()
		rec.record(trace, root, "experiments."+id, t0, t1)
		fr.FigS[id] = t1.Sub(t0).Seconds()
		if err != nil {
			fr.Err = fmt.Sprintf("%s: %v", id, err)
			break
		}
		io.WriteString(h, tab.Render())
	}
	endRoot()
	d := rt0.to(sampleRuntime())
	s1, p1 := sched.Shared.Stats(), sim.SharedPlanes.Stats()
	fr.WallS, fr.CPUS, fr.GCCPUS, fr.AllocMB, fr.GCs = d.wallS, d.cpuS, d.gcCPUS, d.allocMB, d.gcCycles
	fr.Digest = hex.EncodeToString(h.Sum(nil))
	fr.SchedLookups = (s1.Hits + s1.Misses) - (s0.Hits + s0.Misses)
	fr.SchedMisses = s1.Misses - s0.Misses
	fr.SchedEntries = s1.Entries
	fr.PlaneLookups = (p1.Hits + p1.Misses) - (p0.Hits + p0.Misses)
	fr.PlaneMisses = p1.Misses - p0.Misses
	fr.GroupPlaneBuilds = p1.GroupBuilds - p0.GroupBuilds
	fr.PlaneMB = float64(p1.Bytes) / (1 << 20)
	return fr
}

// fig8Configs are the configurations fig8a and fig8b simulate, in the
// runners' order: Figure 8a's front-end sweep (lookahead-only and full per
// pattern; X<inf,15> has no lookahead-only form), then Figure 8b's TCLp
// and TCLe over <1,6>, <2,5> and <4,3>. The runners' own lists are
// unexported, so this is a copy. checkLookups fails a traced run whose
// replayed lookup count drifts from the engine's. It cannot catch a drift
// that keeps the count, such as another pattern in one configuration.
func fig8Configs() ([]arch.Config, error) {
	var out []arch.Config
	for _, name := range []string{"L4<1,2>", "L8<1,6>", "L8<2,5>", "L8<3,4>", "L8<4,3>",
		"L8<5,2>", "L8<6,1>", "T8<2,5>", "X<inf,15>"} {
		p, err := sched.ByName(name)
		if err != nil {
			return nil, err
		}
		if !p.Infinite {
			out = append(out, arch.FrontEndOnly(p.LookaheadOnly()))
		}
		out = append(out, arch.FrontEndOnly(p))
	}
	for _, be := range []string{"TCLp", "TCLe"} {
		impl, err := backend.Lookup(be)
		if err != nil {
			return nil, err
		}
		for _, name := range []string{"L8<1,6>", "T8<2,5>", "L8<4,3>"} {
			p, err := sched.ByName(name)
			if err != nil {
				return nil, err
			}
			out = append(out, arch.NewTCLBackend(p, impl))
		}
	}
	return out, nil
}

// figsProbe is the per-layer probe of one figs operation.
type figsProbe struct {
	Models                   int
	BuildMs, ActsMs, LowerMs float64 // per model
	Lookups                  int64
	FilterRowsMs, HashMs     float64 // per figure run
	StatsMs, FillMsPerGroup  float64
	Fills                    int
}

// probeFigs brings the workload's models up from outside (timing nn) and
// replays one figure run's schedule lookups (timing nn filter rows and
// sched).
func probeFigs(o options, rec *recorder) (*figsProbe, error) {
	const trace = 1 << 20 // probe spans get a trace id no run uses
	root, endRoot := rec.open(trace, 0, "probe")
	defer endRoot()
	cfgs, err := fig8Configs()
	if err != nil {
		return nil, err
	}
	var (
		mp     modelProbe
		layers []*nn.Lowered
	)
	for _, name := range o.models {
		low, err := bringUp(rec, trace, root, &mp, func() (*nn.Model, int64, error) {
			m, err := nn.BuildModel(name, o.zoo)
			return m, actSeed(o.seed), err
		})
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		layers = append(layers, low...)
	}
	t0 := time.Now()
	lp := probeLookups(cfgs, lookupsOf(cfgs, layers), probeStride)
	rec.record(trace, root, "probe.lookups", t0, time.Now())
	p := &figsProbe{Models: mp.models, Lookups: int64(lp.lookups), Fills: lp.fills,
		FilterRowsMs: ms(lp.filterRows), HashMs: ms(lp.hash), StatsMs: ms(lp.stat),
		FillMsPerGroup: lp.fillMsPerGroup()}
	p.BuildMs, p.ActsMs, p.LowerMs = mp.perModelMs()
	return p, nil
}

// figsRecord accumulates a figs workload's operations and checks each
// one's tables: byte-identical to the reference digest (the first run of
// the invocation, itself checked against figsDigest at the default seed).
type figsRecord struct {
	r      *report
	ref    string
	refBad bool // the reference itself differs from figsDigest
	runs   []figRun
	traced []bool
}

func (f *figsRecord) add(fr figRun, traced bool) {
	f.r.attempted++
	switch {
	case fr.Err != "":
		f.r.failed++
		f.r.fail("figure run %d: %s", f.r.attempted, fr.Err)
	case f.refBad:
		f.r.failed++
	case f.ref == "":
		f.ref = fr.Digest
	case fr.Digest != f.ref:
		f.r.failed++
		f.r.fail("figure run %d: tables differ from the invocation's first run (%s vs %s)",
			f.r.attempted, fr.Digest[:12], f.ref[:12])
	}
	f.runs = append(f.runs, fr)
	f.traced = append(f.traced, traced)
}

// more reports whether another operation fits in the window that started
// at w0: the first minOps always run, then each further one only while one
// more of the last one's length ends within --seconds.
func (f *figsRecord) more(o options, w0 time.Time) bool {
	if len(f.runs) < minOps {
		return true
	}
	last := f.runs[len(f.runs)-1].WallS
	return time.Since(w0).Seconds()+last <= o.seconds
}

// checkReference pins the invocation's reference tables to figsDigest.
func (f *figsRecord) checkReference(o options, digest string) {
	if isDefaultFigs(o) && digest != figsDigest {
		f.refBad = true
		f.r.fail("tables at the default seed differ from the committed digest (%s vs %s)", digest, figsDigest)
	}
}

// endToEnd sets the end-to-end metrics from the runs: latency from wall
// times, CPU per op.
func (f *figsRecord) endToEnd() {
	var walls, cpus []float64
	for _, fr := range f.runs {
		walls = append(walls, fr.WallS*1e3)
		cpus = append(cpus, fr.CPUS*1e3)
	}
	f.r.set("latency_p50_ms", median(walls))
	f.r.set("latency_p90_ms", tail(walls))
	f.r.set("cpu_ms_per_op", median(cpus))
	for _, id := range figIDs {
		var xs []float64
		for _, fr := range f.runs {
			xs = append(xs, fr.FigS[id])
		}
		f.r.note("experiments."+id+"_s", median(xs), "s")
	}
}

// perLayer sets the per-layer metrics from the runs' counter deltas and
// the probe. nnPerOp says whether each operation builds its models (cold)
// or finds them cached (warm).
func (f *figsRecord) perLayer(p *figsProbe, nnPerOp bool) {
	r := f.r
	var lookups, misses, plMiss, gpb, walls, cpus, gcs, gcCPU, allocs, tr, un []float64
	var sumLookups, sumMisses, sumPL, sumPM int64
	for i, fr := range f.runs {
		lookups = append(lookups, float64(fr.SchedLookups))
		misses = append(misses, float64(fr.SchedMisses))
		plMiss = append(plMiss, float64(fr.PlaneMisses))
		gpb = append(gpb, float64(fr.GroupPlaneBuilds))
		walls = append(walls, fr.WallS)
		cpus = append(cpus, fr.CPUS)
		gcs = append(gcs, fr.GCs)
		gcCPU = append(gcCPU, fr.GCCPUS*1e3)
		allocs = append(allocs, fr.AllocMB)
		sumLookups += fr.SchedLookups
		sumMisses += fr.SchedMisses
		sumPL += fr.PlaneLookups
		sumPM += fr.PlaneMisses
		if f.traced[i] {
			tr = append(tr, fr.WallS*1e3)
		} else {
			un = append(un, fr.WallS*1e3)
		}
	}
	last := f.runs[len(f.runs)-1]
	r.set("sched.lookups", median(lookups))
	r.set("sched.misses", median(misses))
	r.set("sched.hit_ratio", ratio(sumLookups-sumMisses, sumLookups))
	r.set("sched.entries", float64(last.SchedEntries))
	r.set("sim.plane_misses", median(plMiss))
	r.set("sim.plane_hit_ratio", ratio(sumPL-sumPM, sumPL))
	r.set("sim.group_plane_builds", median(gpb))
	r.set("sim.plane_mb", last.PlaneMB)
	r.set("runtime.gc_cycles", median(gcs))
	r.note("runtime.gc_cpu_ms", median(gcCPU), "ms")
	r.set("runtime.alloc_mb", median(allocs))
	r.set("runtime.par_eff", median(cpus)/(median(walls)*float64(workers())))
	r.set("bench.trace_overhead_ms", median(tr)-median(un))

	r.set("nn.build_ms", p.BuildMs)
	r.set("nn.acts_ms", p.ActsMs)
	r.set("nn.lower_ms", p.LowerMs)
	r.set("nn.filter_rows_ms", p.FilterRowsMs)
	r.set("sched.hash_ms", p.HashMs)
	r.set("sched.stats_ms", p.StatsMs)
	r.set("sched.fill_ms_per_group", p.FillMsPerGroup)
	probed := p.FilterRowsMs + p.HashMs + p.StatsMs + median(misses)*p.FillMsPerGroup
	if nnPerOp {
		probed += float64(p.Models) * (p.BuildMs + p.ActsMs + p.LowerMs)
	}
	r.set("sim.self_ms", median(cpus)*1e3-probed)
	r.note("sched.fill_ms", median(misses)*p.FillMsPerGroup, "ms")
	// Every run of one invocation does identical work, so its counters
	// must agree exactly; this shows when they do not.
	sm := sorted(misses)
	r.note("sched.misses_max_minus_min", sm[len(sm)-1]-sm[0], "count")
	checkLookups(r, "figs", p.Lookups, int64(median(lookups)))
}

// runFigsWarm times figure runs in one long-lived process after a run
// that fills the schedule, plane and workload caches.
func runFigsWarm(o options, stderr io.Writer) (*report, error) {
	start := time.Now()
	fill := runFigures(o, workers(), newRecorder(false), 0)
	if fill.Err != "" {
		return nil, fmt.Errorf("cache-filling run: %s", fill.Err)
	}
	r := &report{}
	r.set("setup_s", time.Since(start).Seconds())
	f := &figsRecord{r: r, ref: fill.Digest}
	f.checkReference(o, fill.Digest)

	rec := newRecorder(o.trace)
	w0 := time.Now()
	for i := 0; f.more(o, w0); i++ {
		traced := o.trace && i%2 == 0
		rr := rec
		if !traced {
			rr = newRecorder(false)
		}
		f.add(runFigures(o, workers(), rr, i+1), traced)
	}
	r.set("heap_mb", liveHeapMB())
	f.endToEnd()
	if o.trace {
		p, err := probeFigs(o, rec)
		if err != nil {
			return nil, err
		}
		f.perLayer(p, false)
		writeTrace(rec, o, r, stderr)
	}
	return r, nil
}

// runFigsCold times figure runs each in a fresh child process, so the
// schedule, plane and workload caches all start empty.
func runFigsCold(o options, stderr io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r := &report{}
	f := &figsRecord{r: r}
	rec := newRecorder(o.trace)
	var (
		setups, heaps []float64
		probe         *figsProbe
	)
	w0 := time.Now()
	for i := 0; f.more(o, w0); i++ {
		traced := o.trace && i%2 == 0
		fr, err := runChild(exe, o, traced, o.trace && i == 0, stderr)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			f.checkReference(o, fr.Digest)
		}
		setups = append(setups, fr.SetupS)
		heaps = append(heaps, fr.HeapMB)
		if fr.Probe != nil {
			probe = fr.Probe
		}
		rec.merge(fr.Spans, i*1000)
		f.add(fr, traced)
	}
	r.set("setup_s", median(setups))
	r.set("heap_mb", median(heaps))
	f.endToEnd()
	if o.trace {
		if probe == nil {
			return nil, fmt.Errorf("the probing child reported no probe")
		}
		f.perLayer(probe, true)
		writeTrace(rec, o, r, stderr)
	}
	return r, nil
}

// childSpec is everything a figs-cold child runs with. The parent passes
// it as JSON in the childEnv variable, so the zoo and models reach the
// child from the parent's options rather than from flags a user could set.
type childSpec struct {
	Seed    int64        `json:"seed"`
	Zoo     nn.ZooConfig `json:"zoo"`
	Models  []string     `json:"models"`
	Trace   bool         `json:"trace"`
	Probe   bool         `json:"probe"`
	StartNs int64        `json:"start_ns"` // the parent's clock when it started the child
}

// childEnv names the variable that carries a childSpec. Its presence makes
// the process (the benchmark binary, or a test binary re-executed by the
// smoke test) a figs-cold child.
const childEnv = "PERFBENCH_CHILD"

// runChild runs one figs-cold operation in a fresh process.
func runChild(exe string, o options, traced, probe bool, stderr io.Writer) (figRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	spec := childSpec{Seed: o.seed, Zoo: o.zoo, Models: o.models, Trace: traced, Probe: probe,
		StartNs: time.Now().UnixNano()}
	buf, err := json.Marshal(spec)
	if err != nil {
		return figRun{}, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(buf))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return figRun{}, fmt.Errorf("figs-cold child: %w", err)
	}
	var fr figRun
	if err := json.Unmarshal(out, &fr); err != nil {
		return figRun{}, fmt.Errorf("figs-cold child output: %w", err)
	}
	return fr, nil
}

// childMain is a figs-cold child: one figure run from empty caches, its
// live heap, and (for the probing child) the per-layer probe, printed as
// one JSON object.
func childMain(specJSON string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: bad %s: %v\n", childEnv, err)
		return 2
	}
	setup := time.Since(time.Unix(0, spec.StartNs))
	o := defaultOptions()
	o.seed, o.zoo, o.models, o.trace = spec.Seed, spec.Zoo, spec.Models, spec.Trace
	rec := newRecorder(o.trace)
	fr := runFigures(o, workers(), rec, 1)
	fr.SetupS = setup.Seconds()
	fr.HeapMB = liveHeapMB()
	if spec.Probe {
		p, err := probeFigs(o, rec)
		if err != nil {
			fr.Err = err.Error()
		}
		fr.Probe = p
	}
	fr.Spans = rec.snapshot()
	if err := json.NewEncoder(os.Stdout).Encode(fr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

// writeTrace writes the run's spans and notes where.
func writeTrace(rec *recorder, o options, r *report, stderr io.Writer) {
	path, err := rec.write(o.traceDir, o.workload, o.seed)
	if err != nil {
		r.fail("writing spans: %v", err)
		return
	}
	self := selfTimes(rec.snapshot())
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.note("self."+name+"_ms", ms(self[name]), "ms")
	}
	fmt.Fprintln(stderr, "spans written to", path)
}
