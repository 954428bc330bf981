// Command perfbench is the repository benchmark: it regenerates the paper's
// Figure 8 cold and warm, and drives an in-process tclserve with open-loop
// Poisson traffic, printing every metric by name with its unit. See
// README.md for the workloads, the metrics and what each should move.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	perfbench --workload figs-cold|figs-warm|serve-open --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 0.01, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (catalogue in metrics.go). A human-readable breakdown,
// including the workload-specific detail, goes to standard error, and the
// traced run's spans are written as JSON under --trace-dir.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"bittactical/internal/nn"
)

// defaultSeed is the seed whose figure tables are pinned by figsDigest.
const defaultSeed = 7

// options is one invocation's settings. The flags set only the workload,
// seed, window and tracing; the zoo, models and traffic are fixed by
// defaultOptions, and only tests (and a figs-cold parent, for its child)
// change them.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string

	// figs-* zoo: the tclbench zoo over the paper's seven networks.
	zoo    nn.ZooConfig
	models []string
	// serve-open traffic: the hot set holds one request per serveModels
	// entry; unique requests cycle through uniqueModels.
	rate         float64 // requests per second
	serveModels  []string
	uniqueModels []string
	serveScale   [2]float64 // channel, spatial
}

const (
	// probeStride times every probeStride-th schedule lookup in the
	// per-layer probes and scales the sums to all lookups.
	probeStride = 4
	// minOps is the fewest timed operations a figs run makes, however short
	// --seconds is.
	minOps = 3
)

func defaultOptions() options {
	z := nn.DefaultZoo()
	z.ChannelScale, z.SpatialScale = 0.125, 0.35
	return options{
		seed:        defaultSeed,
		seconds:     35,
		traceDir:    ".bench_build/traces",
		zoo:         z,
		models:      nn.ModelNames,
		rate:        20,
		serveModels: []string{"AlexNet-ES", "ResNet50-SS", "MobileNet", "BERT-Attn", "ConvNeXt-DW"},
		// ResNet50-SS is hot-set only: its engine run costs about three
		// times the others', so its misses would form a 6% mode of their
		// own just above the p90 and the p90 would sit on that mode's edge.
		uniqueModels: []string{"AlexNet-ES", "MobileNet", "BERT-Attn", "ConvNeXt-DW"},
		serveScale:   [2]float64{0.1, 0.25},
	}
}

// workers is the engine parallelism every workload runs at: the host's
// processor count.
func workers() int { return runtime.NumCPU() }

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back: outcome counts, every metric it
// measured (end-to-end and per-layer, keyed by catalogue name), and
// workload-specific detail that only goes to standard error.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	detail            []kv
}

type kv struct {
	name  string
	value float64
	unit  string
}

func (r *report) set(name string, v float64) {
	if r.values == nil {
		r.values = make(map[string]float64)
	}
	r.values[name] = v
}

func (r *report) note(name string, v float64, unit string) {
	r.detail = append(r.detail, kv{name, v, unit})
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// finish projects a report onto the result line for the chosen mode. A
// catalogue metric the workload did not set is a bug in the workload and
// makes the result incorrect rather than silently absent.
func finish(r *report, traced bool) result {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	for _, d := range catalogue(traced) {
		v, ok := r.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s was not measured (%v)", d.Name, v)
			continue
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	res.Correct = len(r.problems) == 0 && r.failed == 0 && r.attempted > 0
	return res
}

func run(o options, stderr io.Writer) (*report, error) {
	switch o.workload {
	case "figs-cold":
		return runFigsCold(o, stderr)
	case "figs-warm":
		return runFigsWarm(o, stderr)
	case "serve-open":
		return runServeOpen(o, stderr)
	}
	return nil, fmt.Errorf("unknown workload %q (want figs-cold, figs-warm or serve-open)", o.workload)
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	o := defaultOptions()
	var (
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		genDigest = flag.Bool("gen-digest", false, "print the figure-table digest for --seed at parallelism 1 and exit")
	)
	flag.StringVar(&o.workload, "workload", "", "figs-cold, figs-warm or serve-open")
	flag.Int64Var(&o.seed, "seed", o.seed, "workload seed: activations of the figures, traffic and catalogue of serve-open")
	flag.Float64Var(&o.seconds, "seconds", o.seconds, "length of the timed window")
	flag.StringVar(&o.traceDir, "trace-dir", o.traceDir, "directory the traced run writes its spans to")
	flag.Parse()
	o.trace = *trace == 1

	if *genDigest {
		fr := runFigures(o, 1, newRecorder(false), 0)
		if fr.Err != "" {
			fmt.Fprintln(os.Stderr, "perfbench:", fr.Err)
			os.Exit(1)
		}
		fmt.Println(fr.Digest)
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	r, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := finish(r, o.trace)
	printDetail(os.Stderr, o, r)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printDetail writes the human-readable breakdown: problems, every metric
// measured, and the workload-specific detail.
func printDetail(w io.Writer, o options, r *report) {
	fmt.Fprintf(w, "== perfbench %s seed=%d trace=%v: %d attempted, %d failed ==\n",
		o.workload, o.seed, o.trace, r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
	for _, d := range catalogue(o.trace) {
		if v, ok := r.values[d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	for _, d := range r.detail {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", d.name, d.value, d.unit)
	}
}
