// The executable specification of the serial back-end's window walk, and
// the differential tests that pin the window-parallel kernel (evalWindows)
// to it.
package sim

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
)

// laneCostFunc returns the serial cost of the activation PE row ri's lane
// reference flat (a step*lanes+lane dense-schedule offset) sees in window
// w.
type laneCostFunc func(ri, w, flat int) uint8

// actCost fetches every cost through lw.Act with the row's own filter
// index and prices it through the cost table: no plane involved.
func actCost(lw *nn.Lowered, ct *costTable, f0 int) laneCostFunc {
	return func(ri, w, flat int) uint8 {
		return ct.costU8(lw.Act(f0+ri, w, flat/lw.Lanes, flat%lw.Lanes))
	}
}

// planeCost reads costs out of per-row planes, for synthetic planes no
// lowering stands behind (fuzzed and saturated bytes).
func planeCost(planes []*costPlane) laneCostFunc {
	return func(ri, w, flat int) uint8 {
		p := planes[ri]
		return p.data[flat*p.windows+w]
	}
}

// evalWindowsRef is the reference window walk: one window at a time, it
// gathers each (column, row) cell's lane costs, takes the lane-parallel
// column max over the participating lanes (the effectual ones when
// gated, every lane otherwise) and folds the per-window lane census.
func (ctx *groupCtx) evalWindowsRef(cfg arch.Config, cost laneCostFunc, wLo, wHi int) windowPartial {
	lanes, wg := cfg.Lanes, cfg.WindowsPerTile
	wp := windowPartial{peTotals: make([]int64, ctx.nrows*wg)}
	laneCost := make([]uint8, padLanes(lanes))
	all := fullLaneMask(lanes)
	for w := wLo; w < wHi; w++ {
		for ci := 0; ci < ctx.cols; ci++ {
			for ri := 0; ri < ctx.nrows; ri++ {
				cr := ci*ctx.nrows + ri
				refs := ctx.refs[cr*lanes : (cr+1)*lanes]
				nEff := int(ctx.nEff[cr])
				eff := make([]uint64, laneWords(lanes))
				copy(eff, fullLaneMask(nEff))
				mask := all
				if ctx.gate {
					mask = eff
				}
				for ln, flat := range refs {
					laneCost[ln] = cost(ri, w, int(flat))
				}
				peMax := columnMax(laneCost, mask)
				wp.peTotals[ri*wg+(w-wLo)%wg] += int64(peMax)
				wp.census(laneCost, eff, maskLanes(eff), lanes, peMax, ctx.gate)
			}
		}
	}
	return wp
}

// census folds one PE column's lane census into the partial, word-wide.
// cost is the column's padLanes-sized lane-cost buffer (zero past lanes,
// every byte <= maxLaneCost), eff its effectual-lane mask with nEff lanes
// set, and peMax the column's duration. Per lane, by weight and cost:
//
//	effectual, cost c > 0:  Useful += c, ColumnSync += peMax-c, serial += c
//	effectual, cost 0:      AZero += peMax
//	idle, cost c > 0:       WZero += peMax (serial += c when ungated)
//	idle, cost 0:           BothZero += peMax
//
// so each bucket needs only a masked byte sum and a count of non-zero
// bytes on each side of the mask. An ungated config (no front-end) still
// spends serial cycles on its idle lanes, since they join the column.
func (wp *windowPartial) census(cost []uint8, eff []uint64, nEff, lanes, peMax int, gate bool) {
	var sumE, nzE, sumI, nzI int
	for i, m := range eff {
		c := binary.LittleEndian.Uint64(cost[i*8:])
		sumE += byteSum(c & m)
		nzE += nonZeroBytes(c & m)
		sumI += byteSum(c &^ m)
		nzI += nonZeroBytes(c &^ m)
	}
	pm := int64(peMax)
	wp.backEnd.Useful += int64(sumE)
	wp.backEnd.ColumnSync += int64(nzE)*pm - int64(sumE)
	wp.backEnd.AZero += int64(nEff-nzE) * pm
	wp.backEnd.WZero += int64(nzI) * pm
	wp.backEnd.BothZero += int64(lanes-nEff-nzI) * pm
	wp.serial += int64(sumE)
	if !gate {
		wp.serial += int64(sumI)
	}
}

// nonZeroBytes counts the non-zero bytes of a word of bytes <= 127.
func nonZeroBytes(x uint64) int {
	return bits.OnesCount64((x + swarLow7) & swarHigh)
}

// maskLanes counts the lanes a 0x00/0xFF byte mask selects.
func maskLanes(mask []uint64) int {
	n := 0
	for _, m := range mask {
		n += bits.OnesCount64(m)
	}
	return n / 8
}

// fullLaneMask returns the participation mask with the first `lanes` lanes
// set — the mask every PE row shares when the config has no front-end
// (nothing gates ineffectual lanes out of the column sync).
func fullLaneMask(lanes int) []uint64 {
	mask := make([]uint64, laneWords(lanes))
	for ln := 0; ln < lanes; ln++ {
		mask[ln>>3] |= 0xff << (8 * uint(ln&7))
	}
	return mask
}

// foldPartials adds chunk partials the way finishGroup does.
func foldPartials(nrows, wg int, parts []windowPartial) windowPartial {
	out := windowPartial{peTotals: make([]int64, nrows*wg)}
	for _, p := range parts {
		for i, t := range p.peTotals {
			out.peTotals[i] += t
		}
		out.backEnd.Add(p.backEnd)
		out.serial += p.serial
	}
	return out
}

// evalChunked runs the kernel over [0, W) split at the given window-group
// cut points and folds the chunk partials.
func (ctx *groupCtx) evalChunked(cfg arch.Config, planes []*costPlane, W int, cuts []int) windowPartial {
	wg := cfg.WindowsPerTile
	var parts []windowPartial
	lo := 0
	for _, c := range append(append([]int(nil), cuts...), (W+wg-1)/wg) {
		hi := min(c*wg, W)
		parts = append(parts, ctx.evalWindows(cfg, planes, lo, hi, nil))
		lo = hi
	}
	return foldPartials(ctx.nrows, wg, parts)
}

// groupCuts returns every way to split n window groups into at most four
// chunks of whole groups, as interior cut points.
func groupCuts(n int) [][]int {
	out := [][]int{nil}
	var rec func(from int, cur []int)
	rec = func(from int, cur []int) {
		for c := from; c < n; c++ {
			next := append(append([]int(nil), cur...), c)
			out = append(out, next)
			if len(next) < 3 {
				rec(c+1, next)
			}
		}
	}
	rec(1, nil)
	return out
}

// rowPlanes resolves each PE row's act-group plane, building each group's
// plane once.
func rowPlanes(lw *nn.Lowered, ct *costTable, f0, f1 int, byGroup []*costPlane) []*costPlane {
	rp := make([]*costPlane, f1-f0)
	for ri := range rp {
		g := lw.ActGroupOf(f0 + ri)
		if byGroup[g] == nil {
			byGroup[g] = buildPlane(lw, ct, g)
		}
		rp[ri] = byGroup[g]
	}
	return rp
}

// TestWindowKernelEdgeCases compares the window kernel with the reference
// walk where its word-parallel bookkeeping could slip: window counts off
// the word size and below it (a W = 1 FC layer), both tile widths (16 and
// 8 windows per tile), gated configs and an ungated one with an empty
// pattern, grouped and depthwise per-act-group planes, and every split of
// [0, W) into one to four whole-window-group chunks folded together.
func TestWindowKernelEdgeCases(t *testing.T) {
	cfgs := []arch.Config{
		arch.NewTCL(sched.T(2, 5), arch.TCLe),
		arch.NewTCL(sched.L(1, 6), arch.TCLp),
		arch.NewTCL(sched.Pattern{}, arch.TCLe),
		arch.NewTCL(sched.T(2, 5), arch.TCLp).WithWidth(fixed.W8),
		arch.NewTCL(sched.Pattern{}, arch.TCLe).WithWidth(fixed.W8),
	}
	for _, lw := range []*nn.Lowered{
		testConv(t, 61, 20, 24, 3, 3, 6, 0.6, 0.4), // W = 36
		testFC(t, 62, 20, 40, 1, 0.7),              // W = 1
		testFC(t, 63, 20, 40, 5, 0.5),              // W = 5
		testFC(t, 64, 33, 24, 18, 0.5),             // W = 18
		testGroupedConv(t, 65, 2),                  // W = 25, 2 act groups
		testDW(t, 66, 20, 3),                       // W = 9, depthwise
	} {
		W := lw.WindowCount
		for _, cfg := range cfgs {
			ct := newCostTable(cfg.Backend, cfg.Width)
			pad := padMask(lw)
			byGroup := make([]*costPlane, lw.ActGroups())
			cuts := groupCuts((W + cfg.WindowsPerTile - 1) / cfg.WindowsPerTile)
			for f0 := 0; f0 < lw.Filters; f0 += cfg.FiltersPerTile {
				f1 := min(f0+cfg.FiltersPerTile, lw.Filters)
				ctx := prepareGroup(cfg, lw, ct, pad, f0, f1, nil)
				planes := rowPlanes(lw, ct, f0, f1, byGroup)
				want := ctx.evalWindowsRef(cfg, actCost(lw, ct, f0), 0, W)
				for _, c := range cuts {
					if got := ctx.evalChunked(cfg, planes, W, c); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s W=%d %s group [%d,%d) cuts %v: kernel %+v\nreference %+v",
							lw.Name, W, cfg.Name, f0, f1, c, got, want)
					}
				}
				ctx.release()
			}
		}
	}
}

// TestWindowKernelSaturated fills every plane byte with maxLaneCost, the
// largest cost the byte compares and widened sums must carry, up to
// arch.MaxLanes lanes (the most the per-window byte counts hold), in gated
// and ungated form.
func TestWindowKernelSaturated(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, gate := range []bool{true, false} {
		for _, lanes := range []int{16, 64, arch.MaxLanes} {
			cfg := arch.Config{Lanes: lanes, WindowsPerTile: 16}
			const steps, W = 3, 37
			p := &costPlane{windows: W, data: make([]uint8, steps*lanes*W)}
			for i := range p.data {
				p.data[i] = maxLaneCost
			}
			ctx := randGroupCtx(rng, 3, 5, lanes, steps, gate)
			planes := []*costPlane{p, p, p}
			want := ctx.evalWindowsRef(cfg, planeCost(planes), 0, W)
			if got := ctx.evalWindows(cfg, planes, 0, W, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("gate=%v lanes=%d: kernel %+v\nreference %+v", gate, lanes, got, want)
			}
		}
	}
}

// randGroupCtx builds a group context by hand: random in-range lane
// references and a random effectual-lane count per cell.
func randGroupCtx(rng *rand.Rand, nrows, cols, lanes, steps int, gate bool) *groupCtx {
	ctx := &groupCtx{nrows: nrows, cols: cols, needsWindows: true, gate: gate,
		refs: make([]int32, cols*nrows*lanes), nEff: make([]int32, cols*nrows)}
	for i := range ctx.refs {
		ctx.refs[i] = int32(rng.Intn(steps * lanes))
	}
	for i := range ctx.nEff {
		ctx.nEff[i] = int32(rng.Intn(lanes + 1))
	}
	return ctx
}

// FuzzWindowKernel pins the window kernel to the reference walk over
// random plane bytes (0..127), lane references, effectual-lane counts,
// 1-64 lanes, 1-40 windows, 1-16 windows per tile, gated and ungated
// cells, rows on one or two planes, and a random split of [0, W) into
// whole-window-group chunks.
func FuzzWindowKernel(f *testing.F) {
	f.Add(int64(1), uint8(15), uint8(35), uint8(15), false, uint8(0))
	f.Add(int64(2), uint8(63), uint8(0), uint8(7), true, uint8(5))
	f.Add(int64(3), uint8(4), uint8(39), uint8(11), true, uint8(0xff))
	f.Fuzz(func(t *testing.T, seed int64, lanesB, wB, wgB uint8, gate bool, cutBits uint8) {
		lanes, W, wg := 1+int(lanesB)%64, 1+int(wB)%40, 1+int(wgB)%16
		rng := rand.New(rand.NewSource(seed))
		nrows, cols, steps := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(3)
		var pl [2]*costPlane
		for i := range pl {
			pl[i] = &costPlane{windows: W, data: make([]uint8, steps*lanes*W)}
			for j := range pl[i].data {
				pl[i].data[j] = uint8(rng.Intn(maxLaneCost + 1))
			}
		}
		planes := make([]*costPlane, nrows)
		for ri := range planes {
			planes[ri] = pl[rng.Intn(2)]
		}
		ctx := randGroupCtx(rng, nrows, cols, lanes, steps, gate)
		cfg := arch.Config{Lanes: lanes, WindowsPerTile: wg}
		groups := (W + wg - 1) / wg
		var cuts []int
		for g := 1; g < groups && len(cuts) < 3; g++ {
			if cutBits>>(g%8)&1 != 0 {
				cuts = append(cuts, g)
			}
		}
		want := ctx.evalWindowsRef(cfg, planeCost(planes), 0, W)
		if got := ctx.evalChunked(cfg, planes, W, cuts); !reflect.DeepEqual(got, want) {
			t.Fatalf("lanes=%d W=%d wg=%d gate=%v cuts=%v: kernel %+v\nreference %+v",
				lanes, W, wg, gate, cuts, got, want)
		}
	})
}

// TestPlaneBytes pins the plane layout: exactly WindowCount*Steps*Lanes
// bytes, no padding or load slack (slack moved the resident heap across
// allocation size classes), with slot (step, lane, window) at
// (step*Lanes+lane)*WindowCount+window holding the activation's cost
// under the act group's representative filter.
func TestPlaneBytes(t *testing.T) {
	ct := newCostTable(arch.TCLe.Impl(), fixed.W16)
	for _, lw := range []*nn.Lowered{
		testConv(t, 68, 20, 24, 3, 3, 6, 0.6, 0.4),
		testFC(t, 69, 20, 40, 1, 0.7),
		testGroupedConv(t, 70, 4),
	} {
		W := lw.WindowCount
		for g := 0; g < lw.ActGroups(); g++ {
			p := buildPlane(lw, ct, g)
			if got, want := p.sizeBytes(), int64(W*lw.Steps*lw.Lanes); got != want || int64(cap(p.data)) != want {
				t.Fatalf("%s group %d: %d bytes (cap %d), want %d", lw.Name, g, got, cap(p.data), want)
			}
			rep := lw.ActGroupRep(g)
			for st := 0; st < lw.Steps; st++ {
				for ln := 0; ln < lw.Lanes; ln++ {
					for w := 0; w < W; w++ {
						if got, want := p.data[(st*lw.Lanes+ln)*W+w], ct.costU8(lw.Act(rep, w, st, ln)); got != want {
							t.Fatalf("%s group %d slot (%d, %d, %d): %d, want %d", lw.Name, g, st, ln, w, got, want)
						}
					}
				}
			}
		}
	}
}
