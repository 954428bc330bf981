package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bittactical/internal/arch"
	"bittactical/internal/metrics"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/tensor"
)

// layerLatency records, per layer, the wall time from the first work item
// of that layer starting to its last filter group finishing — the quantity
// an operator of the evaluation service watches per request.
var layerLatency = metrics.Default.Histogram("sim_layer_latency")

// SimulateModel runs every layer of a model under the configuration with
// default engine options (GOMAXPROCS workers, shared schedule cache).
func SimulateModel(cfg arch.Config, m *nn.Model, acts []*tensor.T) (*Result, error) {
	return SimulateModelOpts(cfg, m, acts, Options{})
}

// SimulateModelOpts runs every layer of a model under the configuration,
// decomposed into independent (layer, filter-group) work items executed by
// the option's worker pool. Output is bit-identical at any Parallelism.
func SimulateModelOpts(cfg arch.Config, m *nn.Model, acts []*tensor.T, opts Options) (*Result, error) {
	return SimulateModelContext(context.Background(), cfg, m, acts, opts)
}

// SimulateModelContext is SimulateModelOpts under a context: when ctx is
// cancelled or its deadline passes, workers stop claiming (group,
// window-chunk) items — in-flight items finish first — and the call returns
// (nil, ctx.Err()) with no partial result. An uncancelled context yields
// output bit-identical to SimulateModelOpts.
func SimulateModelContext(ctx context.Context, cfg arch.Config, m *nn.Model, acts []*tensor.T, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lws, err := m.Lowered(cfg.Lanes, acts)
	if err != nil {
		return nil, err
	}
	layers, err := simulateLayers(ctx, cfg, lws, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Config: cfg.Name, Layers: layers}, nil
}

// SimulateLayer runs one lowered layer with default engine options.
//
// Mapping (Section 5.3): filters are assigned to tiles and PE rows; the
// serial back-ends process WindowsPerTile activation windows concurrently
// across PE columns. Layers with fewer windows than columns (CNN
// fully-connected layers) split the reduction across spare columns instead,
// combining partial sums over the per-row ring.
func SimulateLayer(cfg arch.Config, lw *nn.Lowered) LayerResult {
	return SimulateLayerOpts(cfg, lw, Options{})
}

// SimulateLayerOpts runs one lowered layer under the configuration and
// returns cycles, the Figure-9 censuses, and datapath activity.
func SimulateLayerOpts(cfg arch.Config, lw *nn.Lowered, opts Options) LayerResult {
	rs, err := simulateLayers(context.Background(), cfg, []*nn.Lowered{lw}, opts)
	if err != nil {
		// Unreachable: the background context never cancels.
		panic(err)
	}
	return rs[0]
}

// SimulateLayerContext is SimulateLayerOpts with the cancellation semantics
// of SimulateModelContext.
func SimulateLayerContext(ctx context.Context, cfg arch.Config, lw *nn.Lowered, opts Options) (LayerResult, error) {
	rs, err := simulateLayers(ctx, cfg, []*nn.Lowered{lw}, opts)
	if err != nil {
		return LayerResult{}, err
	}
	return rs[0], nil
}

// workItem is one unit of pool work: one window chunk [w0, w1) of one
// resident filter group of one layer of one sweep config. Most groups are a
// single chunk; when a load yields fewer filter groups than workers, groups
// split below the filter-group grain into contiguous window ranges (aligned
// to the tile's window-group size) so the pool stays busy on
// low-group-count layers — the fig8b scaling cliff.
type workItem struct {
	work         *configWork
	layer, group int
	f0, f1       int
	w0, w1       int
	chunk        int
}

// configWork is one sweep config's private slice of the shared pool run:
// its cost table, per-layer pad masks, lazily-resolved activation cost
// planes, and the per-group accumulators its chunks fold into. A sweep
// flattens every config's chunks into one queue, so independent configs
// overlap in the pool instead of executing back to back.
type configWork struct {
	idx    int // position in the sweep's config list (OnLayerResult's cfg)
	cfg    arch.Config
	lws    []*nn.Lowered
	ct     *costTable
	keyer  sched.Keyer // pre-keyed schedule-cache handle; valid iff hasKeyer
	hasKey bool
	layers []layerWork
}

// keyerPtr adapts the inline keyer to prepareGroupInto's nil-able view.
func (cw *configWork) keyerPtr() *sched.Keyer {
	if !cw.hasKey {
		return nil
	}
	return &cw.keyer
}

// layerWork is one layer's slice of a config's run state, kept in a single
// per-config array so engine entry costs one allocation for all of it.
type layerWork struct {
	pad    []bool
	planes layerPlanes
	accums []groupAccum
	// result is the layer's merged outcome, written by the worker that
	// finishes the layer's last group (and published to the caller by the
	// pool's WaitGroup barrier). Merging at completion time instead of
	// after the pool drains is what lets OnLayerResult stream a layer the
	// moment its shards fold; the merge consumes only the layer's own
	// complete accums, so the result is bit-identical either way.
	result LayerResult
	// Latency tracking: first-touch timestamp (CAS once) and a countdown
	// of unfinished groups; the worker finishing the layer's last group
	// observes the span.
	start     atomic.Int64
	remaining atomic.Int32
}

// planeSlot resolves one (layer, act group) activation cost plane at most
// once per run, whichever chunk worker gets there first; concurrent
// chunks of other groups of the same layer wait on the Once instead of
// duplicating the cache lookup (and, through the cache's own
// single-flight, the build).
type planeSlot struct {
	once  sync.Once
	plane *costPlane
}

// layerPlanes is one layer's plane slots, one per act group (a single
// slot for row-invariant layers).
type layerPlanes struct {
	slots []planeSlot
}

// planeFor returns the cost plane of layer li's act group, from the cache
// when one is configured, built privately otherwise. Only called under a
// serial back-end — the path the plane layout is defined for.
func (cw *configWork) planeFor(li, actGroup int, pc *PlaneCache) *costPlane {
	lp := &cw.layers[li].planes
	s := &lp.slots[actGroup]
	s.once.Do(func() {
		lw := cw.lws[li]
		if pc == nil {
			s.plane = buildPlane(lw, cw.ct, actGroup)
			return
		}
		key := planeKeyOf(lw, cw.cfg.Backend, cw.cfg.Width)
		if len(lp.slots) > 1 {
			key.group = actGroup
		}
		s.plane = pc.getKeyed(key, lw, cw.ct, actGroup)
	})
	return s.plane
}

// groupAccum coordinates the chunks of one filter group. The first chunk
// worker to arrive prepares the shared group context (schedules, column
// references, window-independent censuses) under the Once; the last chunk to
// finish folds the window partials into the group's result shard and drops
// the context, keeping peak memory at the pre-chunking level. Every partial
// is a plain integer sum, so the fold is exact regardless of chunk count or
// completion order — parallel output stays bit-identical to serial at any
// worker count. The context lives inline (ctxStore) so group turnover
// costs no allocation; its pooled buffers return to the arena when the
// fold releases them.
type groupAccum struct {
	once      sync.Once
	ctx       *groupCtx
	ctxStore  groupCtx
	partials  []windowPartial
	remaining atomic.Int32
	result    groupResult
}

// layerChunks is the sweep's work-splitting arithmetic for one (config,
// layer): how many window chunks each filter group splits into, the
// layer's dense group count, and its window-group count. Sub-group
// splitting engages only when whole groups — across the whole sweep —
// cannot occupy the pool, and only for the serial back-ends whose
// per-window evaluation dominates (the bit-parallel path is already
// window-independent and cheap). Chunks stay aligned to the tile's
// window-group size so each chunk sees whole window groups (the unit the
// PE-total accumulation is indexed by).
func layerChunks(cfg arch.Config, lw *nn.Lowered, totalGroups, workers int) (nChunks, denseGroups, windowGroups int) {
	denseGroups = (lw.Filters + cfg.FiltersPerTile - 1) / cfg.FiltersPerTile
	windowGroups = (lw.WindowCount + cfg.WindowsPerTile - 1) / cfg.WindowsPerTile
	chunksPerGroup := 1
	if cfg.Serial() && totalGroups > 0 && totalGroups < workers {
		chunksPerGroup = (workers + totalGroups - 1) / totalGroups
	}
	nChunks = min(chunksPerGroup, windowGroups)
	if nChunks < 1 {
		nChunks = 1
	}
	return nChunks, denseGroups, windowGroups
}

// simulateLayers runs one config — the single-entry case of the sweep core.
func simulateLayers(ctx context.Context, cfg arch.Config, lws []*nn.Lowered, opts Options) ([]LayerResult, error) {
	rs, err := simulateSweep(ctx, []arch.Config{cfg}, [][]*nn.Lowered{lws}, opts)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// simulateSweep is the engine core shared by the layer, model, and sweep
// entry points: it flattens every config's (layer, filter group) work into
// one queue (splitting groups into window chunks when groups alone cannot
// fill the pool), executes the chunks on the option's pool, and merges each
// config's shards in (layer, group) order so no result depends on execution
// interleaving — per config, output is bit-identical to a serial run at any
// Parallelism and any sweep composition. A cancelled ctx stops the pool
// from claiming further chunks and returns (nil, ctx.Err()) — never a
// partial merge.
func simulateSweep(ctx context.Context, cfgs []arch.Config, lwss [][]*nn.Lowered, opts Options) ([][]LayerResult, error) {
	cache := opts.cache()
	planeCache := opts.planeCache()
	workers := opts.workers()
	onLayer := opts.OnLayerResult

	totalGroups := 0
	totalLayers := 0
	for k, cfg := range cfgs {
		totalLayers += len(lwss[k])
		for _, lw := range lwss[k] {
			if lw.Lanes != cfg.Lanes {
				panic(fmt.Sprintf("sim: lowered lanes %d != config lanes %d", lw.Lanes, cfg.Lanes))
			}
			totalGroups += (lw.Filters + cfg.FiltersPerTile - 1) / cfg.FiltersPerTile
		}
	}

	// Exact working-set sizes up front — chunking only expands the queue
	// when groups alone cannot fill the pool, and the expansion factor
	// depends on totalGroups, so this needs its own pass. layerChunks is
	// the single source of the per-layer chunk arithmetic the build loop
	// reuses. The totals size the pooled sweepState carves below: the
	// experiment drivers invoke the engine once per (config, layer), so
	// without the pool every invocation re-allocated this entire assembly.
	totalItems, totalAccums, totalPartials, totalSlots := 0, 0, 0, 0
	for k, cfg := range cfgs {
		for _, lw := range lwss[k] {
			nChunks, denseGroups, _ := layerChunks(cfg, lw, totalGroups, workers)
			totalItems += denseGroups * nChunks
			totalAccums += denseGroups
			totalPartials += denseGroups * nChunks
			if cfg.Serial() {
				totalSlots += lw.ActGroups()
			}
		}
	}

	st := sweepStatePool.Get().(*sweepState)
	defer sweepStatePool.Put(st)
	st.carve(len(cfgs), totalLayers, totalAccums, totalPartials, totalSlots, totalItems)
	items := st.items
	layerOff, accumOff, partialOff, slotOff := 0, 0, 0, 0
	for k, cfg := range cfgs {
		lws := lwss[k]
		cw := &st.works[k]
		cw.idx = k
		cw.cfg = cfg
		cw.lws = lws
		cw.ct = costTableFor(cfg.Backend, cfg.Width)
		cw.layers = st.layers[layerOff : layerOff+len(lws)]
		layerOff += len(lws)
		if cache != nil && cfg.HasFrontEnd() {
			// Key the cache once per (config): the pattern key and algorithm
			// tag are shared by every group lookup below, so per-group calls
			// hash only filter contents.
			cw.keyer = cache.Keyer(cfg.Pattern, cfg.Scheduler)
			cw.hasKey = true
		}
		rows := cfg.FiltersPerTile
		for li, lw := range lws {
			lwk := &cw.layers[li]
			lwk.pad = padMask(lw)
			if cfg.Serial() {
				lwk.planes.slots = st.slots[slotOff : slotOff+lw.ActGroups()]
				slotOff += lw.ActGroups()
			}
			nChunks, denseGroups, windowGroups := layerChunks(cfg, lw, totalGroups, workers)
			lwk.accums = st.accums[accumOff : accumOff+denseGroups]
			accumOff += denseGroups
			lwk.remaining.Store(int32(denseGroups))
			if denseGroups == 0 {
				// A layer with no filter groups never enters the pool; merge
				// its (empty) result here so callers and callbacks still see
				// every (config, layer) cell.
				lwk.result = mergeLayer(cfg, lw, nil)
				if onLayer != nil {
					onLayer(k, li, lwk.result)
				}
				continue
			}
			// One flat partial range per layer; each group views its chunk
			// range, so the per-group slice costs nothing.
			layerPartials := st.partials[partialOff : partialOff+denseGroups*nChunks]
			partialOff += denseGroups * nChunks
			for g := 0; g < denseGroups; g++ {
				f0 := g * rows
				f1 := min(f0+rows, lw.Filters)
				ga := &lwk.accums[g]
				ga.partials = layerPartials[g*nChunks : (g+1)*nChunks]
				ga.remaining.Store(int32(nChunks))
				for c := 0; c < nChunks; c++ {
					// Even split of window groups across chunks, in window units.
					wg0 := windowGroups * c / nChunks
					wg1 := windowGroups * (c + 1) / nChunks
					items = append(items, workItem{
						work: cw, layer: li, group: g, f0: f0, f1: f1,
						w0:    wg0 * cfg.WindowsPerTile,
						w1:    min(wg1*cfg.WindowsPerTile, lw.WindowCount),
						chunk: c,
					})
				}
			}
		}
	}
	wstates := st.workerStates(workers)
	completed := runPool(ctx.Done(), workers, len(items), func(w, i int) {
		ws := &wstates[w]
		it := items[i]
		cw := it.work
		lw := cw.lws[it.layer]
		lwk := &cw.layers[it.layer]
		if lwk.start.Load() == 0 {
			lwk.start.CompareAndSwap(0, time.Now().UnixNano())
		}
		ga := &lwk.accums[it.group]
		ga.once.Do(func() {
			prepareGroupInto(&ga.ctxStore, cw.cfg, lw, cw.ct, lwk.pad, it.f0, it.f1, len(ga.partials), cw.keyerPtr(), ws)
			ga.ctx = &ga.ctxStore
			if ga.ctx.needsWindows {
				// Resolve each PE row's act-group plane once per group; a
				// resident group of a grouped/depthwise layer can straddle an
				// act-group boundary, so rows index their own plane.
				for ri := range ga.ctx.rowPlanes {
					ga.ctx.rowPlanes[ri] = cw.planeFor(it.layer, lw.ActGroupOf(it.f0+ri), planeCache)
				}
			}
		})
		var wp windowPartial
		if ga.ctx.needsWindows {
			wp = ga.ctx.evalWindows(cw.cfg, ga.ctx.rowPlanes, it.w0, it.w1, ga.ctx.peChunk(it.chunk))
		}
		ga.partials[it.chunk] = wp
		if ga.remaining.Add(-1) == 0 {
			ga.result = finishGroup(cw.cfg, ga.ctx, ga.partials, ws)
			ga.ctx = nil
			if lwk.remaining.Add(-1) == 0 {
				lwk.result = mergeLayer(cw.cfg, lw, lwk.accums)
				layerLatency.Observe(time.Duration(time.Now().UnixNano() - lwk.start.Load()))
				if onLayer != nil {
					onLayer(cw.idx, it.layer, lwk.result)
				}
			}
		}
	})
	if !completed {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Unreachable: the pool only stops early when ctx is done.
		return nil, context.Canceled
	}
	// The results escape to the caller, so they cannot come from the pooled
	// state: two flat allocations cover the whole sweep. Each layer was
	// merged by the worker that finished it; the pool's WaitGroup barrier
	// publishes those writes.
	flat := make([]LayerResult, totalLayers)
	out := make([][]LayerResult, len(cfgs))
	off := 0
	for k := range st.works {
		cw := &st.works[k]
		out[k] = flat[off : off+len(cw.lws) : off+len(cw.lws)]
		off += len(cw.lws)
		for li := range cw.lws {
			out[k][li] = cw.layers[li].result
		}
	}
	return out, nil
}

// mergeLayer folds the per-group shards into one LayerResult, in group
// order, reproducing exactly the accumulation the serial engine performs.
func mergeLayer(cfg arch.Config, lw *nn.Lowered, accums []groupAccum) LayerResult {
	r := LayerResult{Name: lw.Name, MACs: lw.Layer().MACs()}

	rows := cfg.FiltersPerTile
	steps, F, W := lw.Steps, lw.Filters, lw.WindowCount

	// Dense baseline reference (DaDianNao++ shares the rows/lanes geometry).
	denseGroups := (F + rows - 1) / rows
	denseRounds := (denseGroups + cfg.Tiles - 1) / cfg.Tiles
	r.DenseCycles = int64(denseRounds) * int64(steps) * int64(W)

	// Reduction-split factor for window-poor layers on multi-column tiles.
	split := 1
	if W < cfg.WindowsPerTile {
		split = cfg.WindowsPerTile / W
		if split < 1 {
			split = 1
		}
	}

	// Activation scratchpad fetches are value-agnostic and identical across
	// the design family: every input activation is buffered once per kernel
	// row (row-buffer reuse along x) in each tile that consumes the layer.
	rowsPerAct := int64(1)
	if l := lw.Layer(); l.Kind != nn.FC && l.Stride > 0 {
		rowsPerAct = int64((l.R + l.Stride - 1) / l.Stride)
	}
	tilesUsed := denseGroups
	if tilesUsed > cfg.Tiles {
		tilesUsed = cfg.Tiles
	}
	r.Activity.ActReads = int64(len(lw.Input().Data)) * rowsPerAct * int64(tilesUsed)

	// Tile counts are single digits in every modeled design; spill to the
	// heap only past 16.
	var ttBuf [16]int64
	tileTime := ttBuf[:]
	if cfg.Tiles <= len(ttBuf) {
		tileTime = ttBuf[:cfg.Tiles]
	} else {
		tileTime = make([]int64, cfg.Tiles)
	}
	for g := range accums {
		gr := &accums[g].result
		groupCycles := gr.cycles
		if split > 1 {
			groupCycles = (groupCycles + int64(split) - 1) / int64(split)
		}
		tileTime[g%cfg.Tiles] += groupCycles
		r.FrontEnd.Columns += gr.frontEnd.Columns
		r.FrontEnd.DenseSteps += gr.frontEnd.DenseSteps
		for k := range gr.frontEnd.Slots {
			r.FrontEnd.Slots[k] += gr.frontEnd.Slots[k]
		}
		r.BackEnd.Add(gr.backEnd)
		r.Activity.SerialLaneCycles += gr.activity.SerialLaneCycles
		r.Activity.ParallelMACs += gr.activity.ParallelMACs
		r.Activity.WSColumnReads += gr.activity.WSColumnReads
		r.Activity.MuxSelects += gr.activity.MuxSelects
		r.Activity.PsumAccesses += gr.activity.PsumAccesses
		r.Activity.OffsetEncodes += gr.activity.OffsetEncodes
	}
	for _, t := range tileTime {
		if t > r.Cycles {
			r.Cycles = t
		}
	}
	return r
}

// padMask is the channel-padding mask of the dense schedule, or nil when
// the layer has none — memoized on the lowering, shared across configs.
func padMask(lw *nn.Lowered) []bool {
	return lw.PadMask()
}

// groupResult is one filter group's private accumulation shard: everything
// simulateGroup learns about the group, free of shared state so groups can
// execute on any worker in any order.
type groupResult struct {
	cycles   int64
	frontEnd sched.Stats
	backEnd  Breakdown
	activity Activity
}

// groupCtx is the window-independent state of one filter group, built once
// per group (under the groupAccum's Once) and shared read-only by every
// window chunk of that group. Its grids live in one pooled arena
// (groupBufs), flattened by (column, row) cell cr = ci*nrows+ri:
// refs[cr*lanes:(cr+1)*lanes] are the activation sources of the cell's
// lanes, each a step*lanes+lane offset into the dense schedule (and so the
// row index of a cost plane) — the promoted weight's dense position for
// effectual lanes, the window head for idle ones. A cell lists its nEff[cr]
// effectual lanes first, in lane order, then its idle lanes in reverse
// lane order: the census and column max depend only on which class a lane
// is in, not on its position.
type groupCtx struct {
	f0, f1       int
	nrows, cols  int
	needsWindows bool // serial back-ends walk windows; bit-parallel is done at prepare
	refs         []int32
	nEff         []int32
	// rowPlanes[ri] is PE row ri's activation cost plane (rows of one act
	// group share a plane; row-invariant layers share one across all
	// rows). Resolved by the engine under the groupAccum Once.
	rowPlanes []*costPlane
	// peTotals is the engine's pre-zeroed per-chunk accumulator arena
	// (nChunks strides of peStride = nrows*WindowsPerTile); peChunk hands
	// each chunk its stride. Test-built contexts leave it nil and
	// evalWindows allocates per call.
	peTotals []int64
	peStride int
	bufs     *groupBufs // backing arena, returned to the pool at release
	gate     bool
	base     groupResult // window-independent accumulations (full result when !needsWindows)
}

// peChunk is window chunk c's view of the group's PE-total arena.
func (ctx *groupCtx) peChunk(c int) []int64 {
	if ctx.peTotals == nil {
		return nil
	}
	return ctx.peTotals[c*ctx.peStride : (c+1)*ctx.peStride]
}

// windowPartial is one chunk's contribution: per-(row, PE column) cycle
// totals plus the lane census and serial-cycle count over the chunk's
// windows. All fields are exact integer sums, so chunk partials fold
// element-wise into precisely the serial engine's accumulators.
type windowPartial struct {
	peTotals []int64
	backEnd  Breakdown
	serial   int64
}

// prepareGroup is prepareGroupInto for a fresh single-chunk context — the
// differential tests' entry point.
func prepareGroup(cfg arch.Config, lw *nn.Lowered, ct *costTable, pad []bool, f0, f1 int, keyer *sched.Keyer) *groupCtx {
	ctx := new(groupCtx)
	prepareGroupInto(ctx, cfg, lw, ct, pad, f0, f1, 1, keyer, nil)
	return ctx
}

// prepareGroupInto builds one resident filter group's shared context:
// schedules, the front-end census, datapath activity that depends only on
// column structure, and the per-column lane references the window walk
// consumes. For the bit-parallel back-end the group's full result is
// computed here (its cost model is window-independent). [f0, f1) must be a
// dense group: f0 a multiple of FiltersPerTile, f1 = min(f0 +
// FiltersPerTile, Filters).
//
// With a schedule cache, the group's content digest is memoised on the
// lowering (nn.Lowered.GroupDigest), so a lookup after the first is a
// cache probe by digest that touches no weight: filter rows are
// materialized only to compute a digest the lowering has not seen, or to
// fill a miss. They go into the worker's private scratch arena (handed out
// at pool spin-up; the shared sync.Pool is the ws == nil fallback for
// tests) and are recycled before returning — safe because schedules never
// retain their filters (sched.NewFilter wraps the row slice, and both the
// cache and the kernel copy entry data, not weights). The context's own
// grids carve from a second arena (the worker's freelist, or the shared
// pool) held until finishGroup releases it.
func prepareGroupInto(ctx *groupCtx, cfg arch.Config, lw *nn.Lowered, ct *costTable, pad []bool, f0, f1, nChunks int, keyer *sched.Keyer, ws *workerState) {
	lanes, rows, wg := cfg.Lanes, cfg.FiltersPerTile, cfg.WindowsPerTile
	steps, W := lw.Steps, lw.WindowCount
	nrows := f1 - f0
	*ctx = groupCtx{f0: f0, f1: f1, nrows: nrows}
	r := &ctx.base

	var sc *groupScratch
	if ws != nil {
		sc = ws.scratch()
	} else {
		sc = groupScratchPool.Get().(*groupScratch)
		defer groupScratchPool.Put(sc)
	}
	filters := func() []sched.Filter {
		sc.weights = grow(sc.weights, nrows*steps*lanes)
		sc.filters = grow(sc.filters, nrows)
		for i := range sc.filters {
			row := sc.weights[i*steps*lanes : (i+1)*steps*lanes]
			lw.FilterRowInto(f0+i, row)
			sc.filters[i] = sched.NewFilter(lanes, steps, row, pad)
		}
		return sc.filters
	}
	var schedules []*sched.Schedule
	switch {
	case !cfg.HasFrontEnd():
		schedules = denseSchedules(sc, filters())
	case keyer != nil:
		memo := lw.GroupDigest(rows, f0/rows)
		if h1, h2, ok := memo.Load(); ok {
			if schedules, ok = keyer.Lookup(h1, h2); !ok {
				schedules = keyer.Fill(h1, h2, filters())
			}
		} else {
			fs := filters()
			h1, h2 := sched.HashFilters(fs)
			memo.Store(h1, h2)
			schedules = keyer.ScheduleGroup(h1, h2, fs)
		}
	default:
		// Cache disabled: schedule in the scratch's own arena-mode kernel;
		// the schedules are read below and dropped, so arena reuse on the
		// next prepare is safe.
		if sc.sched == nil {
			sc.sched = sched.NewScheduler()
		}
		schedules = sc.sched.ScheduleGroup(filters(), cfg.Pattern, cfg.Scheduler)
	}
	cols := 0
	if nrows > 0 {
		cols = schedules[0].Len()
	}
	ctx.cols = cols

	if cfg.Serial() {
		// Serial back-ends: column structure is window-independent; the
		// census walk below also lays out per-cell lane references and
		// effectual-lane counts once, shared by every chunk. All grids
		// carve from one pooled arena: refs, nEff and rowPlanes are rebuilt
		// wholesale (reused dirty); the +=-folded PE totals are zeroed at
		// carve.
		if lanes > arch.MaxLanes {
			panic(fmt.Sprintf("sim: %d lanes exceed the window kernel's %d", lanes, arch.MaxLanes))
		}
		ctx.needsWindows = true
		ctx.gate = cfg.HasFrontEnd()
		var b *groupBufs
		if ws != nil {
			b = ws.getBufs()
		} else {
			b = groupBufsPool.Get().(*groupBufs)
		}
		ctx.bufs = b
		b.refs = grow(b.refs, cols*nrows*lanes)
		ctx.refs = b.refs[:cols*nrows*lanes]
		b.nEff = grow(b.nEff, cols*nrows)
		ctx.nEff = b.nEff[:cols*nrows]
		b.planes = grow(b.planes, nrows)
		ctx.rowPlanes = b.planes[:nrows]
		clear(ctx.rowPlanes)
		ctx.peStride = nrows * wg
		b.peTotals = grow(b.peTotals, nChunks*ctx.peStride)
		ctx.peTotals = b.peTotals[:nChunks*ctx.peStride]
		clear(ctx.peTotals)
	}

	// One walk over every schedule entry: the front-end slot census
	// (sched.Schedule.Stats against the layer's pad mask), the effectual
	// count behind mux selects and MACs, and — serial back-ends — the lane
	// references, effectual lanes first.
	fe := &r.frontEnd
	var effectual int64
	for ri, s := range schedules {
		fe.Columns += s.Len()
		fe.DenseSteps += s.DenseSteps
		for ci, col := range s.Columns {
			cr := ci*nrows + ri
			var refs []int32
			if ctx.needsWindows {
				refs = ctx.refs[cr*lanes : (cr+1)*lanes]
			}
			nEff, idle := 0, lanes
			head := col.Head * lanes
			for ln, e := range col.Entries {
				if e.Weight == 0 {
					if pad != nil && pad[head+ln] {
						fe.Slots[sched.SlotPad]++
					} else {
						fe.Slots[sched.SlotZero]++
					}
					if refs != nil {
						idle--
						refs[idle] = int32(head + ln)
					}
					continue
				}
				effectual++
				switch {
				case e.Dt == 0 && e.Dl == 0:
					fe.Slots[sched.SlotUnpromoted]++
				case e.Dl == 0:
					fe.Slots[sched.SlotLookahead]++
				default:
					fe.Slots[sched.SlotLookaside]++
				}
				if refs != nil {
					st, sl := e.Src(col.Head, ln, lanes)
					refs[nEff] = int32(st*lanes + sl)
					nEff++
				}
			}
			if refs != nil {
				ctx.nEff[cr] = int32(nEff)
			}
		}
	}
	// Filter-count padding: PE rows beyond the layer's filters idle.
	fe.Slots[sched.SlotPad] += int64(rows-nrows) * int64(cols) * int64(lanes)

	numWGroups := (W + wg - 1) / wg
	r.activity.WSColumnReads += int64(cols) * ceilDiv64(int64(numWGroups), int64(cfg.PsumRegsPerPE))
	if cfg.HasFrontEnd() {
		// One activation-mux select per effectual entry per window.
		r.activity.MuxSelects += effectual * int64(W)
	}
	r.activity.PsumAccesses += int64(nrows) * int64(cols) * int64(W)

	if !cfg.Serial() {
		macs := effectual
		if !cfg.HasFrontEnd() {
			// The dense baseline multiplies every lane every cycle.
			macs = int64(nrows) * int64(lanes) * int64(cols)
		}
		r.activity.ParallelMACs += macs * int64(W)
		r.cycles = int64(cols) * int64(W)
		return
	}
	if cfg.Backend.OffsetEncoder() {
		r.activity.OffsetEncodes += int64(cols) * int64(lanes) * int64(W)
	}
}

// evalWindows walks the serial back-end over the window range [wLo, wHi)
// — always whole window groups — and returns the chunk's partial sums.
// planes[ri] is PE row ri's activation cost plane (rows of one act group
// share a plane).
//
// Lanes within a PE are lockstep every column (they feed one adder
// tree), so a PE's column duration is the max lane cost ("Column
// Sync"). PEs of a tile run decoupled — buffered weight columns and the
// per-PE psum registers absorb rate differences across windows and rows
// — and synchronize when the resident filter group completes ("implicit
// synchronization at the end of each group of concurrently processed
// activations", charged as "Tile Sync"). Each PE grid column owns the
// windows congruent to its position.
//
// The walk is cell-major and window-minor: for each (column, row) cell it
// evaluates eight windows per word (see kernel.go). The cell's effectual
// lanes (refs[:nEff]) fold first, joining the column max pm; the idle
// lanes join it only when no front-end gates them out. Every bucket is
// then a word-wide sum over the block, with sumE/sumI the classes' cost
// sums, nz the per-window count of a class's non-zero lanes, and
// Σ(nz·pm) their dot product:
//
//	Useful     = ΣsumE
//	ColumnSync = Σ(nzE·pm) − ΣsumE
//	AZero      = nEff·Σpm − Σ(nzE·pm)
//	WZero      = Σ(nzI·pm)
//	BothZero   = (lanes−nEff)·Σpm − Σ(nzI·pm)
//
// and serial cycles are ΣsumE, plus ΣsumI when ungated (idle lanes still
// spend cycles when they join the column). pm's bytes land on their PE
// grid columns, (w−wLo) mod WindowsPerTile; wLo is a multiple of
// WindowsPerTile. Every partial is an exact integer sum, so the loop order
// and any split of the range into chunks leave the result unchanged.
func (ctx *groupCtx) evalWindows(cfg arch.Config, planes []*costPlane, wLo, wHi int, dst []int64) windowPartial {
	lanes, wg := cfg.Lanes, cfg.WindowsPerTile
	nrows, cols, gate := ctx.nrows, ctx.cols, ctx.gate
	if dst == nil {
		dst = make([]int64, nrows*wg)
	}
	var sumE, sumI, dotE, dotI, baseE, baseI int
	for ci := 0; ci < cols; ci++ {
		for ri := 0; ri < nrows; ri++ {
			cr := ci*nrows + ri
			refs := ctx.refs[cr*lanes : (cr+1)*lanes]
			nEff := int(ctx.nEff[cr])
			data, W := planes[ri].data, planes[ri].windows
			pe := dst[ri*wg : (ri+1)*wg]
			pos, cellPM := 0, 0
			for w := wLo; w < wHi; w += 8 {
				valid := windowMask(min(8, wHi-w))
				pm, sE, nzE := foldLanes(data, refs[:nEff], W, w, valid, valid&swarOnes)
				var nzI uint64
				if gate {
					nzI = countLanes(data, refs[nEff:], W, w, valid)
				} else {
					var sI int
					pm, sI, nzI = foldLanes(data, refs[nEff:], W, w, valid, pm)
					sumI += sI
				}
				pmLo, pmHi := pm&swarPairs, pm>>8&swarPairs
				sumE += sE
				dotE += fieldDot(pmLo, nzE&swarPairs) + fieldDot(pmHi, nzE>>8&swarPairs)
				dotI += fieldDot(pmLo, nzI&swarPairs) + fieldDot(pmHi, nzI>>8&swarPairs)
				cellPM += byteSum(pm)
				// pm is zero past the block's valid windows, so a full
				// eight-byte scatter is exact.
				for j := 0; j < 8; j++ {
					pe[pos] += int64(pm >> (8 * uint(j)) & 0xff)
					if pos++; pos == wg {
						pos = 0
					}
				}
			}
			baseE += nEff * cellPM
			baseI += (lanes - nEff) * cellPM
		}
	}
	wp := windowPartial{peTotals: dst, serial: int64(sumE)}
	if !gate {
		wp.serial += int64(sumI)
	}
	wp.backEnd.Useful = int64(sumE)
	wp.backEnd.ColumnSync = int64(dotE - sumE)
	wp.backEnd.AZero = int64(baseE - dotE)
	wp.backEnd.WZero = int64(dotI)
	wp.backEnd.BothZero = int64(baseI - dotI)
	return wp
}

// finishGroup folds the chunk partials into the group's result shard. The
// fold order over chunks never matters: peTotals merge by element-wise
// addition and the census fields are sums, so the max/sync pass below sees
// exactly the accumulators the serial single-chunk walk would have built.
// The group's buffers return to the finishing worker's freelist (ws may be
// nil on test paths, which fall back to the shared pool).
func finishGroup(cfg arch.Config, ctx *groupCtx, partials []windowPartial, ws *workerState) groupResult {
	r := ctx.base
	if !ctx.needsWindows {
		ctx.releaseTo(ws)
		return r
	}
	lanes, rows, wg := cfg.Lanes, cfg.FiltersPerTile, cfg.WindowsPerTile
	defer ctx.releaseTo(ws)
	// Fold destructively into chunk 0's stride: the strides are disjoint
	// views of the group's arena, and nothing reads a chunk partial after
	// the fold.
	peTotals := partials[0].peTotals
	var serial int64
	for pi, wp := range partials {
		if pi > 0 {
			for i, t := range wp.peTotals {
				peTotals[i] += t
			}
		}
		r.backEnd.Add(wp.backEnd)
		serial += wp.serial
	}
	// Filter-group duration: the slowest PE of the tile.
	var groupCycles int64
	for _, t := range peTotals {
		if t > groupCycles {
			groupCycles = t
		}
	}
	// Tile-sync deficit for the PEs that carried work. PE columns with no
	// windows of their own are either serving reduction slices (the W < wg
	// split path — their lane time is already accounted on the owning
	// column) or idled by a partial final window group; neither is a sync
	// loss, so the census skips them. Absent rows burn the whole duration.
	for _, t := range peTotals {
		if t > 0 {
			r.backEnd.TileSync += (groupCycles - t) * int64(lanes)
		}
	}
	r.backEnd.WZero += int64(rows-ctx.nrows) * int64(wg) * int64(lanes) * groupCycles
	r.activity.SerialLaneCycles += serial
	r.cycles = groupCycles
	return r
}

// ceilDiv64 is ceil(a/b) for non-negative a. A non-positive divisor can
// only come from a misconfigured architecture parameter (e.g. a hand-built
// Config with PsumRegsPerPE = 0); returning a quietly would dress the
// misconfiguration up as a plausible cycle count, so it panics instead. The
// quotient-plus-remainder form cannot overflow for any a, unlike
// (a+b-1)/b.
func ceilDiv64(a, b int64) int64 {
	if b <= 0 {
		panic(fmt.Sprintf("sim: ceilDiv64: non-positive divisor %d (misconfigured arch parameter?)", b))
	}
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}
