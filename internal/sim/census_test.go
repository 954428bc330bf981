package sim

import (
	"math/rand"
	"sync"
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/backend"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
)

// censusScalar is the reference lane census: the per-lane switch the
// window walk ran before the word-wide census, classifying each lane by
// its weight (effectual iff its mask byte is set) and its cost.
func censusScalar(wp *windowPartial, cost []uint8, eff []uint64, lanes, peMax int, gate bool) {
	for ln := 0; ln < lanes; ln++ {
		weight := eff[ln>>3]>>(8*uint(ln&7))&0xff != 0
		c := int(cost[ln])
		switch {
		case weight && c > 0:
			wp.backEnd.Useful += int64(c)
			wp.backEnd.ColumnSync += int64(peMax - c)
			wp.serial += int64(c)
		case weight:
			wp.backEnd.AZero += int64(peMax)
		case c > 0:
			wp.backEnd.WZero += int64(peMax)
			if !gate {
				wp.serial += int64(c)
			}
		default:
			wp.backEnd.BothZero += int64(peMax)
		}
	}
}

// TestCensusMatchesScalar pins the word-wide census to the scalar switch
// over random costs in the full 0..127 range (and saturated columns, whose
// byte sums overflow a byte), lane counts on and off the word size, gated
// and ungated columns, and all-idle, all-effectual and random masks. The
// column max comes from the same participation mask the engine uses: the
// effectual mask when gated, every lane otherwise.
func TestCensusMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, lanes := range []int{1, 5, 8, 13, 16, 24, 64} {
		for _, gate := range []bool{false, true} {
			for _, maskKind := range []string{"random", "idle", "effectual"} {
				for trial := 0; trial < 300; trial++ {
					cost, eff := randColumn(rng, lanes)
					switch maskKind {
					case "idle":
						clear(eff)
					case "effectual":
						copy(eff, fullLaneMask(lanes))
					}
					if trial%10 == 0 {
						for ln := 0; ln < lanes; ln++ {
							cost[ln] = maxLaneCost
						}
					}
					part := eff
					if !gate {
						part = fullLaneMask(lanes)
					}
					peMax := columnMax(cost, part)
					var got, want windowPartial
					got.census(cost, eff, maskLanes(eff), lanes, peMax, gate)
					censusScalar(&want, cost, eff, lanes, peMax, gate)
					if got.backEnd != want.backEnd || got.serial != want.serial {
						t.Fatalf("lanes=%d gate=%v mask=%s trial=%d: census %+v serial %d, scalar %+v serial %d (cost=%v eff=%x)",
							lanes, gate, maskKind, trial, got.backEnd, got.serial, want.backEnd, want.serial, cost, eff)
					}
				}
			}
		}
	}
}

func TestByteSumWidens(t *testing.T) {
	for _, tc := range []struct {
		x    uint64
		want int
	}{
		{0, 0},
		{0x7f7f7f7f7f7f7f7f, 8 * 127}, // past 255: the sum must not wrap
		{0x0000000000000001, 1},
		{0x0100000000000000, 1},
		{0x0102030405060708, 36},
	} {
		if got := byteSum(tc.x); got != tc.want {
			t.Errorf("byteSum(%#x) = %d, want %d", tc.x, got, tc.want)
		}
	}
	if got := nonZeroBytes(0x7f00010000007f00); got != 3 {
		t.Errorf("nonZeroBytes = %d, want 3", got)
	}
	if got := maskLanes(fullLaneMask(13)); got != 13 {
		t.Errorf("maskLanes(13 lanes) = %d", got)
	}
}

// TestGroupDigestConcurrentFirstUse races every worker's first prepare of
// the same filter groups on a fresh lowering (run under -race): the group
// digests are computed and memoised concurrently, and every worker must
// get the same group result, the memo must hold exactly HashFilters of the
// group, and the cache must count one lookup per prepare.
func TestGroupDigestConcurrentFirstUse(t *testing.T) {
	m, err := nn.BuildModel("AlexNet-ES", nn.DefaultZoo())
	if err != nil {
		t.Fatal(err)
	}
	lws, err := m.Lowered(16, m.GenerateActs(1))
	if err != nil {
		t.Fatal(err)
	}
	lw := lws[2]
	cfg := arch.NewTCLBackend(sched.T(2, 5), backend.MustLookup("TCLe"))
	ct := costTableFor(cfg.Backend, cfg.Width)
	rows := cfg.FiltersPerTile
	groups := (lw.Filters + rows - 1) / rows
	cache := sched.NewCache(0)
	keyer := cache.Keyer(cfg.Pattern, cfg.Scheduler)

	const workers = 8
	got := make([][]groupResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for g := 0; g < groups; g++ {
				f0 := g * rows
				ctx := prepareGroup(cfg, lw, ct, lw.PadMask(), f0, min(f0+rows, lw.Filters), &keyer)
				got[w] = append(got[w], ctx.base)
				ctx.release()
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for g := range got[w] {
			if got[w][g] != got[0][g] {
				t.Fatalf("worker %d group %d: %+v, worker 0: %+v", w, g, got[w][g], got[0][g])
			}
		}
	}
	for g := 0; g < groups; g++ {
		f0 := g * rows
		var filters []sched.Filter
		for f := f0; f < min(f0+rows, lw.Filters); f++ {
			filters = append(filters, sched.NewFilter(lw.Lanes, lw.Steps, lw.FilterRow(f), lw.PadMask()))
		}
		w1, w2 := sched.HashFilters(filters)
		h1, h2, ok := lw.GroupDigest(rows, g).Load()
		if !ok || h1 != w1 || h2 != w2 {
			t.Fatalf("group %d memo (%x, %x, %v), want HashFilters (%x, %x)", g, h1, h2, ok, w1, w2)
		}
	}
	if st := cache.Stats(); st.Hits+st.Misses != int64(workers*groups) {
		t.Fatalf("%d hits + %d misses, want one lookup per prepare (%d)", st.Hits, st.Misses, workers*groups)
	}
}

// TestPrepareCensusMatchesStats pins the one-walk front-end census of
// prepareGroupInto to sched.Schedule.Stats summed over the group's
// schedules (plus the idle PE rows' padding), and the folded effectual
// count to the mux selects and MACs it feeds, for the cached, uncached and
// dense schedule paths.
func TestPrepareCensusMatchesStats(t *testing.T) {
	m, err := nn.BuildModel("MobileNet", nn.DefaultZoo())
	if err != nil {
		t.Fatal(err)
	}
	lws, err := m.Lowered(16, m.GenerateActs(1))
	if err != nil {
		t.Fatal(err)
	}
	cache := sched.NewCache(0)
	for _, cfg := range []arch.Config{
		arch.FrontEndOnly(sched.T(2, 5)),
		arch.NewTCLBackend(sched.L(1, 6), backend.MustLookup("TCLp")),
		arch.DaDianNaoPP(),
	} {
		for _, keyed := range []bool{false, true} {
			var keyer *sched.Keyer
			if keyed {
				k := cache.Keyer(cfg.Pattern, cfg.Scheduler)
				keyer = &k
			}
			ct := costTableFor(cfg.Backend, cfg.Width)
			for _, lw := range lws[:4] {
				rows, pad := cfg.FiltersPerTile, lw.PadMask()
				for f0 := 0; f0 < lw.Filters; f0 += rows {
					f1 := min(f0+rows, lw.Filters)
					ctx := prepareGroup(cfg, lw, ct, pad, f0, f1, keyer)
					var filters []sched.Filter
					for f := f0; f < f1; f++ {
						filters = append(filters, sched.NewFilter(lw.Lanes, lw.Steps, lw.FilterRow(f), pad))
					}
					var schedules []*sched.Schedule
					if cfg.HasFrontEnd() {
						schedules = sched.ScheduleGroup(filters, cfg.Pattern, cfg.Scheduler)
					} else {
						schedules = denseSchedules(new(groupScratch), filters)
					}
					var want sched.Stats
					var effectual int64
					for i, s := range schedules {
						st := s.Stats(filters[i])
						want.Columns += st.Columns
						want.DenseSteps += st.DenseSteps
						for k := range st.Slots {
							want.Slots[k] += st.Slots[k]
						}
						effectual += st.Slots[sched.SlotUnpromoted] + st.Slots[sched.SlotLookahead] + st.Slots[sched.SlotLookaside]
					}
					want.Slots[sched.SlotPad] += int64(rows-(f1-f0)) * int64(schedules[0].Len()) * int64(lw.Lanes)
					got := ctx.base
					if got.frontEnd != want {
						t.Fatalf("%s %s group %d: census %+v, Stats %+v", cfg.Name, lw.Name, f0/rows, got.frontEnd, want)
					}
					W := int64(lw.WindowCount)
					wantMux := int64(0)
					if cfg.HasFrontEnd() {
						wantMux = effectual * W
					}
					if got.activity.MuxSelects != wantMux {
						t.Fatalf("%s %s group %d: mux selects %d, want %d", cfg.Name, lw.Name, f0/rows, got.activity.MuxSelects, wantMux)
					}
					if !cfg.Serial() && cfg.HasFrontEnd() && got.activity.ParallelMACs != effectual*W {
						t.Fatalf("%s %s group %d: MACs %d, want %d", cfg.Name, lw.Name, f0/rows, got.activity.ParallelMACs, effectual*W)
					}
					ctx.release()
				}
			}
		}
	}
}
