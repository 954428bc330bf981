package sim

import (
	"context"
	"reflect"
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/backend"
	"bittactical/internal/backend/dstripes"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
)

// serialConfigs are the back-end configurations that walk windows — the
// paths the plane and SWAR kernels serve — covering gated (front-end) and
// ungated variants at both widths.
func serialConfigs() []arch.Config {
	return []arch.Config{
		arch.NewTCL(sched.T(2, 5), arch.TCLp),
		arch.NewTCL(sched.T(2, 5), arch.TCLe),
		arch.NewTCL(sched.L(1, 6), arch.TCLe),
		arch.NewTCL(sched.Pattern{}, arch.TCLe), // no front-end: ungated masks
		arch.NewTCL(sched.Pattern{}, arch.TCLp),
		arch.NewTCL(sched.T(2, 5), arch.TCLp).WithWidth(fixed.W8),
		arch.NewTCL(sched.T(2, 5), arch.TCLe).WithWidth(fixed.W8),
	}
}

// TestPlaneMatchesPerRowRecompute is the differential test of the plane
// kernel: for row-invariant layers, evalWindows over the precomputed plane
// must produce windowPartials identical to the reference walk
// (evalWindowsRef) that re-fetches every cost through lw.Act with the
// row's own filter index — across every filter group, not just the one the
// plane was built from (the ActRowInvariant guarantee).
func TestPlaneMatchesPerRowRecompute(t *testing.T) {
	for _, lw := range []*nn.Lowered{
		testConv(t, 21, 20, 24, 3, 3, 6, 0.6, 0.4),
		testFC(t, 22, 20, 40, 18, 0.7),
		testFC(t, 23, 33, 64, 1, 0.5),
	} {
		if !lw.ActRowInvariant() {
			t.Fatalf("%s: expected row-invariant layer", lw.Name)
		}
		for _, cfg := range serialConfigs() {
			ct := newCostTable(cfg.Backend, cfg.Width)
			plane := buildPlane(lw, ct, 0)
			pad := padMask(lw)
			for f0 := 0; f0 < lw.Filters; f0 += cfg.FiltersPerTile {
				f1 := min(f0+cfg.FiltersPerTile, lw.Filters)
				ctx := prepareGroup(cfg, lw, ct, pad, f0, f1, nil)
				if !ctx.needsWindows {
					t.Fatalf("%s/%s: serial config did not need windows", lw.Name, cfg.Name)
				}
				rp := make([]*costPlane, f1-f0)
				for i := range rp {
					rp[i] = plane
				}
				got := ctx.evalWindows(cfg, rp, 0, lw.WindowCount, nil)
				want := ctx.evalWindowsRef(cfg, actCost(lw, ct, f0), 0, lw.WindowCount)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s group [%d,%d): plane partial differs from per-row recompute\nplane: %+v\nref:   %+v",
						lw.Name, cfg.Name, f0, f1, got, want)
				}
			}
		}
	}
}

// TestDepthwiseNotRowInvariant pins the legality gate: the engine must
// never build a plane for a layer whose activation fetch depends on the
// filter row.
func TestDepthwiseNotRowInvariant(t *testing.T) {
	if lw := testDW(t, 24, 20, 5); lw.ActRowInvariant() {
		t.Fatal("depthwise layer reported row-invariant")
	}
}

// TestPlaneCacheSharing exercises the cache across the dimensions of its
// key: same (layer, back-end, width) hits; different back-end, width, or
// activations miss — including a plugin back-end the engine packages never
// name, which must key distinct planes at the same width.
func TestPlaneCacheSharing(t *testing.T) {
	c := NewPlaneCache(0)
	lw := testFC(t, 25, 20, 40, 18, 0.7)
	lw2 := testFC(t, 26, 20, 40, 18, 0.7) // same geometry, different values
	beE, beP := arch.TCLe.Impl(), arch.TCLp.Impl()
	beSM := backend.MustLookup(dstripes.Name)
	ctE := newCostTable(beE, fixed.W16)
	ctP := newCostTable(beP, fixed.W16)
	ctE8 := newCostTable(beE, fixed.W8)
	ctSM := newCostTable(beSM, fixed.W16)

	p1 := c.get(lw, beE, fixed.W16, ctE)
	p2 := c.get(lw, beE, fixed.W16, ctE)
	if p1 != p2 {
		t.Fatal("identical key returned distinct planes")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after repeat get: %+v, want 1 hit / 1 miss", st)
	}
	c.get(lw, beP, fixed.W16, ctP)  // back-end differs
	c.get(lw, beE, fixed.W8, ctE8)  // width differs
	c.get(lw2, beE, fixed.W16, ctE) // activations differ
	pSM := c.get(lw, beSM, fixed.W16, ctSM)
	if pP := c.get(lw, beP, fixed.W16, ctP); pSM == pP {
		t.Fatal("plugin back-end collided with TCLp at identical width")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 5 || st.Entries != 5 {
		t.Fatalf("after distinct keys: %+v, want 2 hits / 5 misses / 5 entries", st)
	}
	if st.Bytes == 0 {
		t.Fatal("cache reports zero resident bytes")
	}

	c.Reset()
	if st := c.Stats(); st != (PlaneCacheStats{}) {
		t.Fatalf("after Reset: %+v, want zero stats", st)
	}
}

// TestPlaneCacheEviction forces the byte budget: the overflow drop keeps
// only the inserting entry and counts the rest as evictions.
func TestPlaneCacheEviction(t *testing.T) {
	lw := testFC(t, 27, 20, 40, 18, 0.7)
	beE, beP := arch.TCLe.Impl(), arch.TCLp.Impl()
	ct := newCostTable(beE, fixed.W16)
	one := buildPlane(lw, ct, 0).sizeBytes()
	c := NewPlaneCache(one + one/2) // fits one plane, not two
	c.get(lw, beE, fixed.W16, ct)
	c.get(lw, beP, fixed.W16, newCostTable(beP, fixed.W16))
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("after overflow: %+v, want 1 eviction / 1 resident entry", st)
	}
	if st.Bytes != one {
		t.Fatalf("after overflow: %d resident bytes, want %d", st.Bytes, one)
	}
}

// TestSimulateUsesSharedPlaneCache pins the default wiring: a model run
// populates SharedPlanes with one plane per (row-invariant layer,
// back-end, width), and a second config sharing those dimensions hits.
func TestSimulateUsesSharedPlaneCache(t *testing.T) {
	SharedPlanes.Reset()
	defer SharedPlanes.Reset()
	lw := testFC(t, 28, 20, 40, 18, 0.7)
	SimulateLayerOpts(arch.NewTCL(sched.T(2, 5), arch.TCLe), lw, Options{})
	if st := SharedPlanes.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after first run: %+v, want 1 miss / 1 entry", st)
	}
	// Different pattern, same back-end and width: must reuse the plane.
	SimulateLayerOpts(arch.NewTCL(sched.L(1, 6), arch.TCLe), lw, Options{})
	if st := SharedPlanes.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after second run: %+v, want 1 hit / 1 miss", st)
	}
	// A plugin back-end at the same width must key its own plane, not hit
	// the TCLe entry.
	SimulateLayerOpts(arch.NewTCLBackend(sched.T(2, 5), backend.MustLookup(dstripes.Name)), lw, Options{})
	if st := SharedPlanes.Stats(); st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("after plugin run: %+v, want 1 hit / 2 misses / 2 entries", st)
	}
}

// TestSweepMatchesIndividualRuns pins the sweep core's bit-identity
// guarantee: one SimulateSweepContext over several configs must reproduce
// each config's standalone SimulateModelContext result exactly, at every
// parallelism and with or without the plane cache.
func TestSweepMatchesIndividualRuns(t *testing.T) {
	zoo := nn.DefaultZoo()
	zoo.ChannelScale = 0.1
	zoo.SpatialScale = 0.25
	m, err := nn.BuildModel("AlexNet-ES", zoo)
	if err != nil {
		t.Fatal(err)
	}
	acts := m.GenerateActs(7)
	cfgs := []arch.Config{
		arch.DaDianNaoPP(),
		arch.NewTCL(sched.T(2, 5), arch.TCLp),
		arch.NewTCL(sched.T(2, 5), arch.TCLe),
		arch.NewTCL(sched.L(1, 6), arch.TCLe),
	}
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := SimulateModelContext(context.Background(), cfg, m, acts, Options{Parallelism: 1, DisablePlaneCache: true})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for _, par := range []int{1, 4} {
		for _, disable := range []bool{false, true} {
			opts := Options{Parallelism: par, DisablePlaneCache: disable}
			if !disable {
				opts.PlaneCache = NewPlaneCache(0)
			}
			got, err := SimulateSweepContext(context.Background(), cfgs, m, acts, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cfgs {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("par=%d disablePlanes=%v config %s: sweep result differs from standalone run",
						par, disable, cfgs[i].Name)
				}
			}
		}
	}
}
