package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"sort"
	"sync"
	"time"

	"bittactical/internal/arch"
	"bittactical/internal/metrics"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/serve"
	"bittactical/internal/sim"
)

const (
	// sloLatency is serve-open's latency limit, from due time to full body.
	sloLatency = 500 * time.Millisecond
	// clientTimeout bounds one request; one that hits it is a failure.
	clientTimeout = 20 * time.Second
	// failedLatencyMs stands for "infinitely slow" in the latency
	// percentiles, which JSON cannot carry.
	failedLatencyMs = 1e6
	// hotPerTen is how many requests of each block of ten come from the hot
	// set; streamEvery puts one streaming request in each block of that
	// many.
	hotPerTen   = 7
	streamEvery = 4
	// setups is how many times serve-open sets up its server; setup_s is
	// their median.
	setups = 3
	// recheckUnique is how many unique requests are re-simulated directly
	// after the timed window.
	recheckUnique = 3
)

// entry is one distinct request of the catalogue.
type entry struct {
	req serve.SimulateRequest
	hot bool
}

// planned is one request of the open-loop schedule.
type planned struct {
	due    time.Duration // from the start of the timed window
	entry  int
	stream bool
}

// planServe derives serve-open's catalogue and arrival schedule from the
// seed. Arrivals are a Poisson process of the given rate conditioned on
// its count (sorted uniform times over the window). Work is stratified so
// every seed sends the same mix: in each block of ten requests exactly
// hotPerTen come from the hot set (cycling through it in a seeded order)
// and the rest each carry a fresh act_seed, cycling through uniqueModels;
// one request in each block of streamEvery streams NDJSON.
func planServe(o options) ([]entry, []planned) {
	rng := rand.New(rand.NewSource(o.seed))
	used := make(map[int64]bool)
	freshSeed := func() int64 {
		for {
			s := 1 + rng.Int63n(1<<40)
			if !used[s] {
				used[s] = true
				return s
			}
		}
	}
	spec := func(model string) serve.SimulateRequest {
		return serve.SimulateRequest{ModelSpec: serve.ModelSpec{Model: model,
			ChannelScale: o.serveScale[0], SpatialScale: o.serveScale[1], ActSeed: freshSeed()}}
	}
	var entries []entry
	for _, m := range o.serveModels {
		entries = append(entries, entry{req: spec(m), hot: true})
	}
	nHot := len(entries)

	n := max(1, int(math.Round(o.rate*o.seconds)))
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * o.seconds
	}
	sort.Float64s(dues)

	var hotOrder, modelOrder []int
	next := func(order *[]int, k int) int {
		if len(*order) == 0 {
			*order = rng.Perm(k)
		}
		v := (*order)[0]
		*order = (*order)[1:]
		return v
	}
	plan := make([]planned, n)
	var blockHot []bool
	var blockStream int
	for i := range plan {
		if i%10 == 0 {
			blockHot = make([]bool, 10)
			for _, j := range rng.Perm(10)[:hotPerTen] {
				blockHot[j] = true
			}
		}
		if i%streamEvery == 0 {
			blockStream = rng.Intn(streamEvery)
		}
		p := planned{due: time.Duration(dues[i] * float64(time.Second)), stream: i%streamEvery == blockStream}
		if blockHot[i%10] {
			p.entry = next(&hotOrder, nHot)
		} else {
			entries = append(entries, entry{req: spec(o.uniqueModels[next(&modelOrder, len(o.uniqueModels))])})
			p.entry = len(entries) - 1
		}
		plan[i] = p
	}
	return entries, plan
}

// server is one in-process tclserve on a loopback listener.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	reg  *metrics.Registry
	done chan struct{}
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	s := &server{
		srv:  serve.New(serve.Config{MaxInFlight: 4, Parallelism: workers(), Metrics: reg}),
		base: "http://" + ln.Addr().String(),
		reg:  reg,
		done: make(chan struct{}),
	}
	s.hs = &http.Server{Handler: s.srv.Routes()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return s, nil
}

// close stops the server and waits for its serve loop to exit.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close()
	}
	<-s.done
	s.srv.Close()
}

// counter reads one integer instrument from the server's registry.
func (s *server) counter(name string) int64 {
	v, _ := s.reg.Snapshot()[name].(int64)
	return v
}

func waitHealthy(client *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("server never answered /healthz")
}

// outcome is one request's measured result.
type outcome struct {
	late, wait, latency time.Duration
	err                 error
	status              int
	source, fp          string
	elapsedMs           float64
	digest              string
	bytes               int
	traced              bool
	body                []byte // dropped by drive once parsed
}

func (oc *outcome) ok() bool { return oc.err == nil && oc.status == http.StatusOK }

// canonical is the part of a response that must be identical for one
// fingerprint whatever the source and framing.
type canonical struct {
	Model       string                `json:"model"`
	Fingerprint string                `json:"fingerprint"`
	Configs     []serve.ConfigPayload `json:"configs"`
}

func (c canonical) digest() string {
	buf, _ := json.Marshal(c) // plain structs of strings and numbers
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// parseBody decodes a buffered or NDJSON response into its canonical form,
// source and server-reported elapsed time.
func parseBody(body []byte, stream bool) (canonical, string, float64, error) {
	if !stream {
		var resp serve.SimulateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return canonical{}, "", 0, err
		}
		return canonical{resp.Model, resp.Fingerprint, resp.Configs}, resp.Source, resp.ElapsedMs, nil
	}
	var (
		c       canonical
		source  string
		elapsed float64
		summary bool
	)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var line struct {
			Type        string          `json:"type"`
			Model       string          `json:"model"`
			Fingerprint string          `json:"fingerprint"`
			Source      string          `json:"source"`
			Configs     json.RawMessage `json:"configs"`
			Config      int             `json:"config"`
			Layer       int             `json:"layer"`
			Error       string          `json:"error"`
			ElapsedMs   float64         `json:"elapsed_ms"`
			serve.LayerPayload
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return c, "", 0, err
		}
		switch line.Type {
		case "header":
			var names []string
			if err := json.Unmarshal(line.Configs, &names); err != nil {
				return c, "", 0, err
			}
			c.Model, c.Fingerprint, source = line.Model, line.Fingerprint, line.Source
			c.Configs = make([]serve.ConfigPayload, len(names))
			for k, n := range names {
				c.Configs[k].Name = n
			}
		case "layer":
			if line.Config < 0 || line.Config >= len(c.Configs) || line.Layer < 0 {
				return c, "", 0, fmt.Errorf("layer line outside the header's grid")
			}
			cp := &c.Configs[line.Config]
			for len(cp.Layers) <= line.Layer {
				cp.Layers = append(cp.Layers, serve.LayerPayload{})
			}
			cp.Layers[line.Layer] = line.LayerPayload
		case "summary":
			var totals []serve.ConfigPayload
			if err := json.Unmarshal(line.Configs, &totals); err != nil {
				return c, "", 0, err
			}
			if len(totals) != len(c.Configs) {
				return c, "", 0, fmt.Errorf("summary has %d configs, header %d", len(totals), len(c.Configs))
			}
			for k, t := range totals {
				c.Configs[k].Cycles, c.Configs[k].DenseCycles, c.Configs[k].Speedup = t.Cycles, t.DenseCycles, t.Speedup
			}
			elapsed, summary = line.ElapsedMs, true
		case "error":
			return c, "", 0, fmt.Errorf("stream error: %s", line.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return c, "", 0, err
	}
	if !summary {
		return c, "", 0, errors.New("stream ended without a summary")
	}
	return c, source, elapsed, nil
}

// generator sends requests to one server over at most workers()
// connections.
type generator struct {
	client *http.Client
	base   string
	bodies [][2][]byte // per entry: buffered, streaming
	rec    *recorder
}

func newGenerator(base string, entries []entry, rec *recorder) (*generator, error) {
	tr := &http.Transport{MaxConnsPerHost: workers(), MaxIdleConnsPerHost: workers(), DisableCompression: true}
	g := &generator{client: &http.Client{Transport: tr}, base: base, rec: rec}
	for _, e := range entries {
		var b [2][]byte
		for k, stream := range []bool{false, true} {
			req := e.req
			req.Stream = stream
			buf, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			b[k] = buf
		}
		g.bodies = append(g.bodies, b)
	}
	return g, nil
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// send posts one request due at the given time and reads its whole body.
func (g *generator) send(entryIdx int, stream bool, due time.Time, trace int) outcome {
	oc := outcome{late: time.Since(due), traced: trace != 0}
	ctx, cancel := context.WithTimeout(context.Background(), clientTimeout)
	defer cancel()
	var gotConn, firstByte time.Time
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn:              func(httptrace.GotConnInfo) { gotConn = time.Now() },
		GotFirstResponseByte: func() { firstByte = time.Now() },
	})
	body := g.bodies[entryIdx][0]
	if stream {
		body = g.bodies[entryIdx][1]
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		oc.err = err
		return oc
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err == nil {
		oc.status = resp.StatusCode
		oc.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	oc.latency = end.Sub(due)
	oc.err = err
	if !gotConn.IsZero() {
		oc.wait = gotConn.Sub(due)
	}
	if trace != 0 && !gotConn.IsZero() && !firstByte.IsZero() {
		root := g.rec.record(trace, 0, "serve.request", due, end)
		g.rec.record(trace, root, "client.wait", due, gotConn)
		g.rec.record(trace, root, "http.response_head", gotConn, firstByte)
		g.rec.record(trace, root, "http.body", firstByte, end)
	}
	oc.bytes = len(oc.body)
	if oc.ok() {
		c, src, el, perr := parseBody(oc.body, stream)
		if perr != nil {
			oc.err = fmt.Errorf("decoding body: %w", perr)
		}
		oc.source, oc.fp, oc.elapsedMs, oc.digest = src, c.Fingerprint, el, c.digest()
	}
	return oc
}

// direct computes the canonical response for a request straight from the
// engine, the way the server's engine path does.
func direct(req serve.SimulateRequest) (canonical, error) {
	m, zoo, actSeed, err := req.ModelSpec.Build()
	if err != nil {
		return canonical{}, err
	}
	cfgs, err := serveConfigs(req)
	if err != nil {
		return canonical{}, err
	}
	results, err := sim.SimulateSweepContext(context.Background(), cfgs, m, m.GenerateActs(actSeed), sim.Options{Parallelism: workers()})
	if err != nil {
		return canonical{}, err
	}
	c := canonical{Model: m.Name, Fingerprint: serve.Fingerprint(m, zoo, actSeed, cfgs)}
	for _, res := range results {
		cp := serve.ConfigPayload{Name: res.Config, Speedup: 1}
		for _, l := range res.Layers {
			cp.Layers = append(cp.Layers, serve.LayerPayload{Name: l.Name, Cycles: l.Cycles, DenseCycles: l.DenseCycles, MACs: l.MACs})
			cp.Cycles += l.Cycles
			cp.DenseCycles += l.DenseCycles
		}
		if cp.Cycles > 0 {
			cp.Speedup = float64(cp.DenseCycles) / float64(cp.Cycles)
		}
		c.Configs = append(c.Configs, cp)
	}
	return c, nil
}

// serveConfigs resolves a request's configurations as the server does
// (the default sweep when it names none).
func serveConfigs(req serve.SimulateRequest) ([]arch.Config, error) {
	specs := req.Configs
	if len(specs) == 0 {
		specs = serve.DefaultConfigs()
	}
	cfgs := make([]arch.Config, len(specs))
	for i, s := range specs {
		var err error
		if cfgs[i], err = s.Build(); err != nil {
			return nil, err
		}
	}
	return cfgs, nil
}

// setUp starts a server from empty schedule and plane caches and warms the
// hot set through it, returning the server and each hot fingerprint's
// canonical digest.
func setUp(entries []entry) (*server, *generator, map[string]string, error) {
	sched.Shared.Reset()
	sim.SharedPlanes.Reset()
	s, err := startServer()
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := newGenerator(s.base, entries, newRecorder(false))
	if err == nil {
		err = waitHealthy(g.client, s.base)
	}
	ref := make(map[string]string)
	for i, e := range entries {
		if err != nil || !e.hot {
			continue
		}
		oc := g.send(i, false, time.Now(), 0)
		switch {
		case oc.err != nil:
			err = fmt.Errorf("warming %s: %w", e.req.Model, oc.err)
		case oc.status != http.StatusOK:
			err = fmt.Errorf("warming %s: status %d: %s", e.req.Model, oc.status, oc.body)
		default:
			ref[oc.fp] = oc.digest
		}
	}
	if err != nil {
		g.close()
		s.close()
		return nil, nil, nil, err
	}
	return s, g, ref, nil
}

// setUpTimed runs setUp `setups` times, closing all but the last server,
// and returns the last with the median set-up time.
func setUpTimed(entries []entry) (*server, *generator, map[string]string, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		s, g, ref, err := setUp(entries)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setups-1 {
			return s, g, ref, median(times), nil
		}
		g.close()
		s.close()
	}
}

// drive sends the plan open-loop: each request is dispatched at its due
// time whether or not earlier ones have finished. In a traced run every
// other request records spans.
func (g *generator) drive(plan []planned, traced bool) []outcome {
	outs := make([]outcome, len(plan))
	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range plan {
		due := start.Add(p.due)
		time.Sleep(time.Until(due))
		trace := 0
		if traced && i%2 == 0 {
			trace = i + 1
		}
		wg.Add(1)
		go func(i int, p planned, due time.Time, trace int) {
			defer wg.Done()
			outs[i] = g.send(p.entry, p.stream, due, trace)
			// The digest is all the checks need. Dropping the body keeps
			// the generator's copies out of heap_mb.
			outs[i].body = nil
		}(i, p, due, trace)
	}
	wg.Wait()
	return outs
}

// checkBodies marks the requests whose outcome is wrong: a transport
// error or non-200, a body differing from another body of its fingerprint
// or from the hot set's warm-up body, or — for a seeded sample of unique
// requests — from a direct sim.SimulateSweepContext run.
func checkBodies(r *report, seed int64, entries []entry, plan []planned, outs []outcome, ref map[string]string) ([]bool, error) {
	bad := make([]bool, len(outs))
	byFP := make(map[string]string)
	for fp, d := range ref {
		byFP[fp] = d
	}
	for i := range outs {
		oc := &outs[i]
		switch {
		case oc.err != nil:
			bad[i] = true
			r.fail("request %d: %v", i, oc.err)
			continue
		case oc.status != http.StatusOK:
			bad[i] = true
			r.fail("request %d: status %d", i, oc.status)
			continue
		}
		if want, seen := byFP[oc.fp]; !seen {
			byFP[oc.fp] = oc.digest
		} else if want != oc.digest {
			bad[i] = true
			r.fail("request %d (%s): body differs from another body of fingerprint %.12s", i, oc.source, oc.fp)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	checked := 0
	for _, i := range rng.Perm(len(outs)) {
		if checked == recheckUnique {
			break
		}
		if bad[i] || entries[plan[i].entry].hot {
			continue
		}
		checked++
		c, err := direct(entries[plan[i].entry].req)
		if err != nil {
			return nil, fmt.Errorf("direct re-simulation: %w", err)
		}
		if c.digest() != outs[i].digest {
			bad[i] = true
			r.fail("request %d: body differs from a direct sim.SimulateSweepContext run", i)
		}
	}
	return bad, nil
}

// serverCounters are the server-side tallies read around the window, with
// the detail name each delta is reported under.
var serverCounters = [][2]string{
	{"serve_requests_rejected_total", "serve.rejected"},
	{"serve_requests_timeout_total", "serve.timeouts"},
	{"serve_result_hits", "serve.cache_hits"},
	{"serve_coalesce_joined", "serve.coalesce_joined"},
}

// runServeOpen drives an in-process tclserve with open-loop Poisson
// arrivals and checks every body.
func runServeOpen(o options, stderr io.Writer) (*report, error) {
	entries, plan := planServe(o)
	r := &report{}
	s, g, ref, setupS, err := setUpTimed(entries)
	if err != nil {
		return nil, err
	}
	defer s.close()
	defer g.close()
	r.set("setup_s", setupS)
	rec := newRecorder(o.trace)
	g.rec = rec

	c0 := make([]int64, len(serverCounters))
	for k, c := range serverCounters {
		c0[k] = s.counter(c[0])
	}
	s0, p0 := sched.Shared.Stats(), sim.SharedPlanes.Stats()
	rt0 := sampleRuntime()
	outs := g.drive(plan, o.trace)
	win := rt0.to(sampleRuntime())
	s1, p1 := sched.Shared.Stats(), sim.SharedPlanes.Stats()
	r.set("heap_mb", liveHeapMB())
	for k, c := range serverCounters {
		r.note(c[1], float64(s.counter(c[0])-c0[k]), "count")
	}

	bad, err := checkBodies(r, o.seed, entries, plan, outs, ref)
	if err != nil {
		return nil, err
	}
	var lat, engineEl, cacheEl, overhead, waits, sizes, tr, un []float64
	var hits, inSLO int
	var lateMax time.Duration
	engineRuns := make(map[int]int) // catalogue entry -> engine runs
	for i, oc := range outs {
		r.attempted++
		waits = append(waits, ms(oc.wait))
		lateMax = max(lateMax, oc.late)
		if bad[i] {
			r.failed++
			lat = append(lat, failedLatencyMs)
			continue
		}
		l := ms(oc.latency)
		lat = append(lat, l)
		if oc.latency <= sloLatency {
			inSLO++
		}
		overhead = append(overhead, l-oc.elapsedMs)
		sizes = append(sizes, float64(oc.bytes)/1024)
		if oc.source == "engine" {
			engineRuns[plan[i].entry]++
			engineEl = append(engineEl, oc.elapsedMs)
		} else {
			hits++
			cacheEl = append(cacheEl, oc.elapsedMs)
		}
		if oc.traced {
			tr = append(tr, l)
		} else {
			un = append(un, l)
		}
	}
	n := float64(len(outs))
	r.set("latency_p50_ms", median(lat))
	r.set("latency_p90_ms", tail(lat))
	r.set("cpu_ms_per_op", win.cpuS*1e3/n)

	r.note("serve.requests", n, "count")
	r.note("serve.ok", n-float64(r.failed), "count")
	r.note("serve.engine_runs", float64(len(engineEl)), "count")
	r.note("serve.hit_share", float64(hits)/n, "ratio")
	r.note("serve.slo_share", float64(inSLO)/n, "ratio")
	r.note("serve.failed_share", float64(r.failed)/n, "ratio")
	r.note("serve.elapsed_ms_p50_engine", median(engineEl), "ms")
	r.note("serve.elapsed_ms_p50_cache", median(cacheEl), "ms")
	r.note("serve.overhead_ms_p50", median(overhead), "ms")
	r.note("serve.resp_kb", median(sizes), "KiB")
	r.note("serve.wait_ms_p90", tail(waits), "ms")
	r.note("serve.late_ms_max", ms(lateMax), "ms")
	r.note("runtime.gc_cpu_ms", win.gcCPUS*1e3/n, "ms")

	if !o.trace {
		return r, nil
	}
	// Per-layer: counter deltas per request, then the probes.
	lookups := (s1.Hits + s1.Misses) - (s0.Hits + s0.Misses)
	misses := s1.Misses - s0.Misses
	plLookups := (p1.Hits + p1.Misses) - (p0.Hits + p0.Misses)
	plMisses := p1.Misses - p0.Misses
	r.set("sched.lookups", float64(lookups)/n)
	r.set("sched.misses", float64(misses)/n)
	r.set("sched.hit_ratio", ratio(lookups-misses, lookups))
	r.set("sched.entries", float64(s1.Entries))
	r.set("sim.plane_misses", float64(plMisses)/n)
	r.set("sim.plane_hit_ratio", ratio(plLookups-plMisses, plLookups))
	r.set("sim.group_plane_builds", float64(p1.GroupBuilds-p0.GroupBuilds)/n)
	r.set("sim.plane_mb", float64(p1.Bytes)/(1<<20))
	r.set("runtime.gc_cycles", win.gcCycles/n)
	r.set("runtime.alloc_mb", win.allocMB/n)
	r.set("runtime.par_eff", win.cpuS/(win.wallS*float64(workers())))
	r.set("bench.trace_overhead_ms", median(tr)-median(un))
	if err := probeServe(r, g, entries, plan, engineRuns, lookups, misses, win.cpuS*1e3/n); err != nil {
		return nil, err
	}
	writeTrace(rec, o, r, stderr)
	return r, nil
}

// probeServe times, per catalogue model, the nn and sched calls the
// server's engine runs made, and serve's own fingerprint and encode steps.
// The encode step is timed on a cache-hit response captured from the
// server after the window.
func probeServe(r *report, g *generator, entries []entry, plan []planned, engineRuns map[int]int,
	lookups, misses int64, cpuMsPerOp float64) error {
	rec := newRecorder(false)
	type perModel struct {
		buildMs, actsMs, lowerMs float64
		lp                       lookupProbe
	}
	models := make(map[string]*perModel)
	var (
		mp             modelProbe
		fills          int
		fillDur        time.Duration
		fpMs, encodeMs []float64
	)
	const reps = 20
	for i, e := range entries {
		if !e.hot {
			continue
		}
		var (
			m   *nn.Model
			zoo nn.ZooConfig
			as  int64
		)
		before := mp
		low, err := bringUp(rec, 0, 0, &mp, func() (*nn.Model, int64, error) {
			var err error
			m, zoo, as, err = e.req.ModelSpec.Build()
			return m, as, err
		})
		if err != nil {
			return fmt.Errorf("probe %s: %w", e.req.Model, err)
		}
		cfgs, err := serveConfigs(e.req)
		if err != nil {
			return err
		}
		pm := &perModel{
			buildMs: ms(mp.build - before.build),
			actsMs:  ms(mp.acts - before.acts),
			lowerMs: ms(mp.lowerD - before.lowerD),
			lp:      probeLookups(cfgs, lookupsOf(cfgs, low), probeStride),
		}
		fills += pm.lp.fills
		fillDur += pm.lp.fill
		t0 := time.Now()
		for k := 0; k < reps; k++ {
			serve.Fingerprint(m, zoo, as, cfgs)
		}
		fpMs = append(fpMs, ms(time.Since(t0))/reps)
		models[e.req.Model] = pm

		oc := g.send(i, false, time.Now(), 0)
		if !oc.ok() {
			return fmt.Errorf("capturing %s: status %d: %v", e.req.Model, oc.status, oc.err)
		}
		var resp serve.SimulateResponse
		if err := json.Unmarshal(oc.body, &resp); err != nil {
			return fmt.Errorf("capturing %s: %w", e.req.Model, err)
		}
		t0 = time.Now()
		for k := 0; k < reps; k++ {
			if _, err := json.Marshal(resp); err != nil {
				return err
			}
		}
		encodeMs = append(encodeMs, ms(time.Since(t0))/reps)
	}
	n := float64(len(plan))
	var nnMs, rowsMs, hashMs, statsMs float64
	var replayed int64
	for _, p := range plan {
		nnMs += models[entries[p.entry].req.Model].buildMs // every request builds its model
	}
	for ei, runs := range engineRuns {
		pm := models[entries[ei].req.Model]
		k := float64(runs)
		nnMs += k * (pm.actsMs + pm.lowerMs)
		rowsMs += k * ms(pm.lp.filterRows)
		hashMs += k * ms(pm.lp.hash)
		statsMs += k * ms(pm.lp.stat)
		replayed += int64(runs * pm.lp.lookups)
	}
	build, acts, lower := mp.perModelMs()
	r.set("nn.build_ms", build)
	r.set("nn.acts_ms", acts)
	r.set("nn.lower_ms", lower)
	r.set("nn.filter_rows_ms", rowsMs/n)
	r.set("sched.hash_ms", hashMs/n)
	r.set("sched.stats_ms", statsMs/n)
	fillPerGroup := 0.0
	if fills > 0 {
		fillPerGroup = ms(fillDur) / float64(fills)
	}
	r.set("sched.fill_ms_per_group", fillPerGroup)
	probed := (nnMs + rowsMs + hashMs + statsMs + float64(misses)*fillPerGroup) / n
	r.set("sim.self_ms", cpuMsPerOp-probed)
	r.note("serve.fingerprint_ms", median(fpMs), "ms")
	r.note("serve.encode_ms", median(encodeMs), "ms")
	checkLookups(r, "serve", replayed, lookups)
	return nil
}
