// Command tclsim regenerates the paper's tables and figures.
//
// Usage:
//
//	tclsim -exp fig8a                 # one experiment
//	tclsim -exp all                   # everything (writes the full report)
//	tclsim -exp fig12 -models AlexNet-ES,ResNet50-SS
//	tclsim -exp table1 -cscale 0.5 -sscale 0.5   # larger instantiation
//	tclsim -exp fig8b -j 8 -cpuprofile cpu.out   # bounded parallelism + pprof
//	tclsim -exp all -schedstats       # report schedule-cache effectiveness
//	tclsim -backend dstripes-sm       # ad-hoc sweep of one registered back-end
//	tclsim -backend dstripes-sm -models AlexNet-ES,GoogLeNet-ES
//	tclsim -exp attn-fig8 -batch 4    # transformer-era zoo at batch 4
//	tclsim -list                      # experiment ids, back-end and model names
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bittactical/internal/backend"
	_ "bittactical/internal/backend/dstripes" // register the plugin back-end
	"bittactical/internal/experiments"
	"bittactical/internal/metrics"
	"bittactical/internal/nn"
	"bittactical/internal/profiling"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		beName  = flag.String("backend", "", "run an ad-hoc speedup sweep of one registered back-end, e.g. dstripes-sm (see -list)")
		models  = flag.String("models", "", "comma-separated model subset")
		cscale  = flag.Float64("cscale", 0.25, "channel scale of the model zoo")
		sscale  = flag.Float64("sscale", 0.5, "spatial scale of the model zoo")
		seed    = flag.Int64("seed", 1, "weight seed")
		batch   = flag.Int("batch", 1, "sequence batch size (FC token windows multiply)")
		aseed   = flag.Int64("actseed", 7, "activation seed")
		trials  = flag.Int("trials", 100, "filters per point for fig11")
		par     = flag.Int("j", 0, "worker parallelism (0 = GOMAXPROCS)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		sstats  = flag.Bool("schedstats", false, "print schedule-cache hit/miss stats on exit")
		pstats  = flag.Bool("planestats", false, "print activation-plane-cache hit/miss stats on exit")
		mstats  = flag.Bool("metrics", false, "dump the engine metrics snapshot (JSON) after the run")
		csvDir  = flag.String("csv", "", "also write each table as CSV into this directory")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		fmt.Println("back-ends (for -backend):", strings.Join(backend.Names(), ", "))
		fmt.Println("models (for -models):", strings.Join(nn.Names(), ", "))
		return
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tclsim:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "tclsim:", err)
		}
	}()

	zoo := nn.DefaultZoo()
	zoo.ChannelScale, zoo.SpatialScale, zoo.Seed = *cscale, *sscale, *seed
	zoo.Batch = *batch
	opts := experiments.Options{Zoo: zoo, ActSeed: *aseed, Trials: *trials, Parallelism: *par}
	if *models != "" {
		opts.Models = strings.Split(*models, ",")
	}

	type runner struct {
		id  string
		run func(experiments.Options) (*experiments.Table, error)
	}
	var runs []runner
	if *beName != "" {
		name := *beName
		runs = []runner{{"backend:" + name, func(o experiments.Options) (*experiments.Table, error) {
			return experiments.BackendSpeedup(o, name)
		}}}
	} else {
		ids := []string{*exp}
		if *exp == "all" {
			ids = experiments.IDs()
		}
		for _, id := range ids {
			run, ok := experiments.Registry[id]
			if !ok {
				fmt.Fprintf(os.Stderr, "tclsim: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			runs = append(runs, runner{id, run})
		}
	}
	for _, r := range runs {
		id := r.id
		start := time.Now()
		tab, err := r.run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tclsim: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(tab.Render())
		fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, tab); err != nil {
				fmt.Fprintf(os.Stderr, "tclsim: %s: %v\n", id, err)
				os.Exit(1)
			}
		}
	}
	if *sstats {
		st := sched.Shared.Stats()
		total := st.Hits + st.Misses
		var rate float64
		if total > 0 {
			rate = 100 * float64(st.Hits) / float64(total)
		}
		fmt.Printf("schedule cache: %d hits / %d misses (%.1f%% hit rate), %d evictions, %d resident entries (%.1f MiB)\n",
			st.Hits, st.Misses, rate, st.Evictions, st.Entries, float64(st.Bytes)/(1<<20))
	}
	if *pstats {
		st := sim.SharedPlanes.Stats()
		total := st.Hits + st.Misses
		var rate float64
		if total > 0 {
			rate = 100 * float64(st.Hits) / float64(total)
		}
		fmt.Printf("plane cache: %d hits / %d misses (%.1f%% hit rate), %d evictions, %d resident entries (%.1f MiB)\n",
			st.Hits, st.Misses, rate, st.Evictions, st.Entries, float64(st.Bytes)/(1<<20))
		fmt.Printf("grouped planes: %d builds / %d hits / %d evictions\n",
			st.GroupBuilds, st.GroupHits, st.GroupEvictions)
	}
	if *mstats {
		if err := metrics.Default.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tclsim:", err)
			os.Exit(1)
		}
	}
}

// writeCSV stores the table as <dir>/<id>.csv for plotting. Flush and Close
// errors are the ones a full disk actually surfaces — the buffered writes
// almost always succeed — so both are checked and the file is removed
// rather than left truncated.
func writeCSV(dir string, tab *experiments.Table) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, tab.ID+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(path)
		}
	}()
	w := csv.NewWriter(f)
	if err := w.Write(tab.Header); err != nil {
		return err
	}
	for _, r := range tab.Rows {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
