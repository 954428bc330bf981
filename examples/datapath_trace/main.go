// Datapath trace: drive the structural register-transfer-level model of a
// TCL processing element — WSU column issue, ABR circular-queue slides,
// shuffling-mux selects, serial shift-adds — over one scheduled filter, and
// show that the analytic simulator, the structural model, and the reference
// convolution all agree.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"bittactical/internal/arch"
	"bittactical/internal/bits"
	"bittactical/internal/datapath"
	"bittactical/internal/fixed"
	"bittactical/internal/sched"
	"bittactical/internal/sparsity"
)

func main() {
	const lanes, steps = 16, 12
	rng := rand.New(rand.NewSource(7))

	// A 70%-sparse filter and its activation stream.
	w := sparsity.RandomSparseFilter(rng, steps, lanes, 0.7)
	acts := make([]int32, steps*lanes)
	law := sparsity.ActModel{ZeroFrac: 0.35, MeanLog2: 9, SigmaLog2: 1.8, SigBits: 5}
	for i := range acts {
		acts[i] = law.Sample(rng, fixed.W16)
	}
	src := func(win, step, lane int) int32 { return acts[step*lanes+lane] }

	filter := sched.NewFilter(lanes, steps, w, nil)
	pattern := sched.T(2, 5)
	schedule := sched.ScheduleFilter(filter, pattern, sched.Algorithm1)
	if err := sched.Verify(filter, pattern, schedule); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("filter: %d/%d weights effectual; schedule %d columns (dense %d)\n\n",
		filter.NNZ(), steps*lanes, schedule.Len(), steps)

	// Column-by-column trace: window slides, promotions, serial durations.
	fmt.Println("col  head adv | promotions (dt,dl)            | TCLe serial cycles")
	for ci, col := range schedule.Columns {
		var promos []string
		peMax := 1
		for ln, e := range col.Entries {
			if e.Weight == 0 {
				continue
			}
			if e.Dt != 0 || e.Dl != 0 {
				promos = append(promos, fmt.Sprintf("(%d,%+d)", e.Dt, e.Dl))
			}
			st, sl := e.Src(col.Head, ln, lanes)
			if c := bits.OneffsetCount(src(0, st, sl), fixed.W16); c > peMax {
				peMax = c
			}
		}
		fmt.Printf("%3d  %4d %3d | %-30s | %d\n", ci, col.Head, col.Advance,
			fmt.Sprint(promos), peMax)
	}

	// Execute structurally under TCLe and cross-check everything.
	cfg := arch.NewTCL(pattern, arch.TCLe)
	psum, stats, err := datapath.RunFilter(cfg, filter, schedule, src, 0)
	if err != nil {
		log.Fatal(err)
	}
	var want int64
	for st := 0; st < steps; st++ {
		for ln := 0; ln < lanes; ln++ {
			want += int64(w[st*lanes+ln]) * int64(acts[st*lanes+ln])
		}
	}
	fmt.Printf("\nstructural psum %d == reference %d: %v\n", psum, want, psum == want)
	fmt.Printf("structural run: %d serial cycles, %d ABR rotations, %d ABR loads "+
		"(dense walk would load %d), %d shift-adds, %d tree reductions\n",
		stats.Cycles, stats.ABRRotations, stats.ABRLoads, steps, stats.ShiftOps, stats.TreeReductions)
}
