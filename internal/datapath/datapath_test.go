package datapath

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bittactical/internal/arch"
	"bittactical/internal/bits"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sparsity"
	"bittactical/internal/tensor"
)

// mkLowered builds a pruned conv layer with realistic activations.
func mkLowered(t *testing.T, seed int64, k, c, in int, wSp float64) *nn.Lowered {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := &nn.Layer{Name: "c", Kind: nn.Conv, K: k, C: c, R: 3, S: 3, Stride: 1, Pad: 1, InH: in, InW: in}
	l.Weights = tensor.New(k, c, 3, 3)
	sparsity.WeightModel{Sigma: 300}.FillPruned(rng, l.Weights, fixed.W16, wSp)
	act := tensor.New(1, c, in, in)
	sparsity.ActModel{ZeroFrac: 0.4, MeanLog2: 8, SigmaLog2: 2, NegFrac: 0.2, SigBits: 5}.
		FillTensor(rng, act, fixed.W16)
	lw, err := nn.Lower(l, act, 16)
	if err != nil {
		t.Fatal(err)
	}
	return lw
}

// runOne schedules filter f of the lowered layer under cfg and executes it
// structurally for the window.
func runOne(t *testing.T, cfg arch.Config, lw *nn.Lowered, f, win int) (int64, Stats) {
	t.Helper()
	filter := sched.NewFilter(lw.Lanes, lw.Steps, lw.FilterRow(f), nil)
	var s *sched.Schedule
	if cfg.HasFrontEnd() {
		s = sched.ScheduleFilter(filter, cfg.Pattern, cfg.Scheduler)
		if err := sched.Verify(filter, cfg.Pattern, s); err != nil {
			t.Fatal(err)
		}
	} else {
		s = denseSchedule(filter)
	}
	src := func(w, step, lane int) int32 { return lw.Act(f, w, step, lane) }
	psum, stats, err := RunFilter(cfg, filter, s, src, win)
	if err != nil {
		t.Fatal(err)
	}
	return psum, stats
}

// denseSchedule builds the value-agnostic one-column-per-step schedule.
func denseSchedule(f sched.Filter) *sched.Schedule {
	s := &sched.Schedule{Lanes: f.Lanes, DenseSteps: f.Steps}
	for st := 0; st < f.Steps; st++ {
		col := sched.Column{Head: st, Advance: 1, Entries: make([]sched.Entry, f.Lanes)}
		for ln := 0; ln < f.Lanes; ln++ {
			if w := f.At(st, ln); w != 0 {
				col.Entries[ln] = sched.Entry{Weight: w}
			}
		}
		s.Columns = append(s.Columns, col)
	}
	return s
}

func TestStructuralMatchesReference(t *testing.T) {
	lw := mkLowered(t, 1, 4, 24, 6, 0.6)
	for _, cfg := range []arch.Config{
		arch.DaDianNaoPP(),
		arch.FrontEndOnly(sched.T(2, 5)),
		arch.NewTCL(sched.T(2, 5), arch.TCLp),
		arch.NewTCL(sched.T(2, 5), arch.TCLe),
		arch.NewTCL(sched.L(4, 3), arch.TCLe),
	} {
		for f := 0; f < lw.Filters; f++ {
			for win := 0; win < lw.WindowCount; win += 7 {
				psum, _ := runOne(t, cfg, lw, f, win)
				want := lw.ReferenceOutput(f, win)
				if psum != want {
					t.Fatalf("%s: filter %d window %d: structural %d != reference %d",
						cfg.Name, f, win, psum, want)
				}
			}
		}
	}
}

func TestStructuralCyclesMatchSimCostModel(t *testing.T) {
	// Per column the structural duration must equal the analytic cost
	// model's: max over lanes of the per-activation serial cost. Check the
	// filter-total: Σ columns max-lane-cost == structural PE cycles.
	lw := mkLowered(t, 2, 2, 20, 5, 0.5)
	for _, be := range []arch.BackEnd{arch.TCLp, arch.TCLe} {
		cfg := arch.NewTCL(sched.T(2, 5), be)
		filter := sched.NewFilter(lw.Lanes, lw.Steps, lw.FilterRow(0), nil)
		s := sched.ScheduleFilter(filter, cfg.Pattern, cfg.Scheduler)
		win := 3
		var want int64
		for _, col := range s.Columns {
			peMax := 1
			for ln, e := range col.Entries {
				if e.Weight == 0 {
					continue
				}
				st, sl := e.Src(col.Head, ln, s.Lanes)
				a := lw.Act(0, win, st, sl)
				var c int
				if be == arch.TCLe {
					c = bits.OneffsetCount(a, fixed.W16)
				} else {
					c = bits.ValuePrecision(a, fixed.W16).Bits()
				}
				if c > peMax {
					peMax = c
				}
			}
			want += int64(peMax)
		}
		src := func(w, step, lane int) int32 { return lw.Act(0, w, step, lane) }
		_, stats, err := RunFilter(cfg, filter, s, src, win)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Cycles != want {
			t.Errorf("%s: structural cycles %d != analytic %d", be, stats.Cycles, want)
		}
	}
}

func TestASUSlideReusesABRs(t *testing.T) {
	loads := 0
	src := func(win, step, lane int) int32 { loads++; return int32(step*16 + lane) }
	asu := NewASU(16, 2, 0, src)
	asu.SlideTo(0, 100)
	if asu.Loads != 3 {
		t.Fatalf("initial fill loaded %d ABRs, want 3", asu.Loads)
	}
	// Advance by 1: exactly one ABR refills; two survive in place.
	asu.SlideTo(1, 100)
	if asu.Loads != 4 {
		t.Errorf("slide-by-1 loaded %d total, want 4", asu.Loads)
	}
	if asu.Rotations != 1 {
		t.Errorf("rotations = %d, want 1", asu.Rotations)
	}
	// Values follow the logical order after rotation.
	for dt := 0; dt <= 2; dt++ {
		v, err := asu.Select(dt, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want := int32((1+dt)*16 + 5); v != want {
			t.Errorf("Select(%d, 5) = %d, want %d", dt, v, want)
		}
	}
	// Advance beyond the window: everything refills.
	before := asu.Loads
	asu.SlideTo(50, 100)
	if asu.Loads != before+3 {
		t.Errorf("long jump loaded %d, want 3 fresh ABRs", asu.Loads-before)
	}
}

func TestASUSelectErrors(t *testing.T) {
	asu := NewASU(16, 1, 0, func(win, step, lane int) int32 { return 1 })
	asu.SlideTo(0, 0) // only step 0 exists; lookahead slot is invalid
	if _, err := asu.Select(1, 0); err == nil {
		t.Error("Select beyond maxStep should fail")
	}
	if _, err := asu.Select(5, 0); err == nil {
		t.Error("Select outside window should fail")
	}
	if _, err := asu.Select(0, 3); err != nil {
		t.Errorf("valid select failed: %v", err)
	}
}

func TestTermsForSemantics(t *testing.T) {
	// TCLe: terms reconstruct the value; count == oneffsets.
	for _, v := range []int32{0x008F, -5, 1, 32767, -32767} {
		ts := termsFor(v, arch.TCLe.Impl(), fixed.W16)
		var sum int64
		for _, x := range ts {
			sum += x.Factor
		}
		if sum != int64(v) {
			t.Errorf("TCLe terms of %d sum to %d", v, sum)
		}
		if len(ts) != bits.OneffsetCount(v, fixed.W16) {
			t.Errorf("TCLe term count %d != oneffsets", len(ts))
		}
	}
	// TCLp: stream length == precision bits; factors reconstruct.
	for _, v := range []int32{0x008E, -6, 255, -32767} {
		ts := termsFor(v, arch.TCLp.Impl(), fixed.W16)
		if len(ts) != bits.ValuePrecision(v, fixed.W16).Bits() {
			t.Errorf("TCLp stream of %d has %d steps, want %d",
				v, len(ts), bits.ValuePrecision(v, fixed.W16).Bits())
		}
		var sum int64
		for _, x := range ts {
			sum += x.Factor
		}
		if sum != int64(v) {
			t.Errorf("TCLp terms of %d sum to %d", v, sum)
		}
	}
	// Zero costs nothing serially (column sync supplies the floor).
	if len(termsFor(0, arch.TCLe.Impl(), fixed.W16)) != 0 || len(termsFor(0, arch.TCLp.Impl(), fixed.W16)) != 0 {
		t.Error("zero activation must stream no terms")
	}
	// Bit-parallel: exactly one step.
	if len(termsFor(1234, arch.BitParallel.Impl(), fixed.W16)) != 1 {
		t.Error("bit-parallel must take one step")
	}
}

func TestStructuralProperty(t *testing.T) {
	// Random filters and activations: structural psum == direct dot
	// product, for both serial back-ends.
	f := func(seed int64, sp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		steps := 4 + rng.Intn(6)
		w := sparsity.RandomSparseFilter(rng, steps, 16, float64(sp%10)/10)
		for i := range w {
			if rng.Intn(2) == 0 {
				w[i] = -w[i]
			}
		}
		filter := sched.NewFilter(16, steps, w, nil)
		acts := make([]int32, steps*16)
		for i := range acts {
			acts[i] = int32(rng.Intn(2001) - 1000)
		}
		src := func(win, step, lane int) int32 { return acts[step*16+lane] }
		var want int64
		for st := 0; st < steps; st++ {
			for ln := 0; ln < 16; ln++ {
				want += int64(w[st*16+ln]) * int64(acts[st*16+ln])
			}
		}
		for _, be := range []arch.BackEnd{arch.TCLp, arch.TCLe} {
			cfg := arch.NewTCL(sched.T(2, 5), be)
			s := sched.ScheduleFilter(filter, cfg.Pattern, cfg.Scheduler)
			got, _, err := RunFilter(cfg, filter, s, src, 0)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestRunFilterRejectsX(t *testing.T) {
	filter := sched.NewFilter(16, 2, make([]int32, 32), nil)
	cfg := arch.FrontEndOnly(sched.X())
	s := sched.ScheduleFilter(filter, sched.X(), sched.Algorithm1)
	if _, _, err := RunFilter(cfg, filter, s, func(int, int, int) int32 { return 0 }, 0); err == nil {
		t.Error("X<inf,15> must be rejected: it has no physical datapath")
	}
}

func TestABRLoadCountTracksALCSkips(t *testing.T) {
	// A schedule that skips fully-ineffectual steps loads fewer ABRs than
	// one that walks them: ALC jumps save activation-buffer energy.
	rng := rand.New(rand.NewSource(9))
	steps := 40
	w := sparsity.RandomSparseFilter(rng, steps, 16, 0.9)
	filter := sched.NewFilter(16, steps, w, nil)
	cfg := arch.NewTCL(sched.T(2, 5), arch.TCLe)
	s := sched.ScheduleFilter(filter, cfg.Pattern, cfg.Scheduler)
	src := func(win, step, lane int) int32 { return 1 }
	_, stats, err := RunFilter(cfg, filter, s, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ABRLoads > int64(steps)+int64(cfg.Pattern.H) {
		t.Errorf("ABR loads %d exceed the dense walk %d", stats.ABRLoads, steps)
	}
	if stats.ABRRotations == 0 {
		t.Error("no ABR rotations recorded")
	}
}
