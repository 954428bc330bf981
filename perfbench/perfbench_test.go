package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// figs-cold smoke test re-executes it as a child.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

func TestPlanServeDeterministic(t *testing.T) {
	o := defaultOptions()
	o.seconds = 10
	e1, p1 := planServe(o)
	e2, p2 := planServe(o)
	if !reflect.DeepEqual(e1, e2) || !reflect.DeepEqual(p1, p2) {
		t.Fatal("same seed gave a different catalogue or schedule")
	}
	o.seed++
	e3, p3 := planServe(o)
	if reflect.DeepEqual(e1, e3) {
		t.Error("a different seed gave the same catalogue")
	}
	if reflect.DeepEqual(p1, p3) {
		t.Error("a different seed gave the same schedule")
	}
}

func TestPlanServeMix(t *testing.T) {
	o := defaultOptions()
	o.seconds = 10
	entries, plan := planServe(o)
	if want := int(o.rate * o.seconds); len(plan) != want {
		t.Fatalf("%d requests planned, want %d", len(plan), want)
	}
	var hot, stream int
	seen := make(map[int]bool)
	for i, p := range plan {
		if i > 0 && p.due < plan[i-1].due {
			t.Fatalf("request %d is due before request %d", i, i-1)
		}
		if p.due < 0 || p.due > time.Duration(o.seconds*float64(time.Second)) {
			t.Fatalf("request %d due at %v, outside the window", i, p.due)
		}
		if entries[p.entry].hot {
			hot++
		} else if seen[p.entry] {
			t.Fatalf("unique entry %d requested twice", p.entry)
		}
		seen[p.entry] = true
		if p.stream {
			stream++
		}
	}
	if hot != len(plan)*hotPerTen/10 {
		t.Errorf("%d hot requests of %d, want exactly %d per ten", hot, len(plan), hotPerTen)
	}
	if stream != len(plan)/streamEvery {
		t.Errorf("%d streaming requests of %d, want one per %d", stream, len(plan), streamEvery)
	}
	acts := make(map[int64]bool)
	for _, e := range entries {
		if acts[e.req.ActSeed] {
			t.Fatalf("act_seed %d used by two catalogue entries", e.req.ActSeed)
		}
		acts[e.req.ActSeed] = true
	}
}

func TestActSeed(t *testing.T) {
	if actSeed(0) == actSeed(defaultSeed) {
		t.Error("seed 0 maps onto the default seed's activations")
	}
	if actSeed(3) == actSeed(4) {
		t.Error("different seeds share activations")
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("bad metric %+v", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}

	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalogue %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 100 - 50 - 10, "a": 30 - 5, "b": 30, "c": 30, "d": 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// tinyOptions shrink every workload to a smoke-test size.
func tinyOptions(workload string, traced bool) options {
	o := defaultOptions()
	o.workload, o.trace = workload, traced
	o.zoo.ChannelScale, o.zoo.SpatialScale = 0.05, 0.2
	o.models = []string{"AlexNet-ES", "MobileNet"}
	o.serveModels = []string{"AlexNet-ES", "MobileNet"}
	o.uniqueModels = o.serveModels
	o.serveScale = [2]float64{0.05, 0.2}
	o.rate = 40
	o.seconds = 0.5
	return o
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"figs-cold", "figs-warm", "serve-open"} {
		for _, traced := range []bool{false, true} {
			o := tinyOptions(w, traced)
			o.traceDir = t.TempDir()
			r, err := run(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			res := finish(r, traced)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w, traced, res.Correct, res.Attempted, res.Failed, r.problems)
			}
			if n := len(catalogue(traced)); len(res.Metrics) != n {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(res.Metrics), n)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: %v", w, traced, err)
			}
		}
	}
}

// TestWrongTablesFail checks that a figs run whose tables differ from the
// reference counts as a failed operation.
func TestWrongTablesFail(t *testing.T) {
	f := &figsRecord{r: &report{}}
	f.add(figRun{Digest: "aaaaaaaaaaaaaaaa"}, false)
	f.add(figRun{Digest: "bbbbbbbbbbbbbbbb"}, false)
	if f.r.attempted != 2 || f.r.failed != 1 {
		t.Errorf("attempted %d failed %d, want 2 and 1", f.r.attempted, f.r.failed)
	}
	if res := finish(f.r, false); res.Correct {
		t.Error("a run with differing tables reported correct")
	}
}

func TestParseBodyStreamMatchesBuffered(t *testing.T) {
	buffered := []byte(`{"model":"M","fingerprint":"fp","source":"engine","configs":[` +
		`{"name":"A","cycles":3,"dense_cycles":6,"speedup":2,"layers":[{"name":"l0","cycles":1,"dense_cycles":2,"macs":5},{"name":"l1","cycles":2,"dense_cycles":4,"macs":7}]}],"elapsed_ms":1.5}`)
	stream := []byte(`{"type":"header","model":"M","fingerprint":"fp","source":"cache","configs":["A"]}
{"type":"layer","config":0,"layer":1,"name":"l1","cycles":2,"dense_cycles":4,"macs":7}
{"type":"layer","config":0,"layer":0,"name":"l0","cycles":1,"dense_cycles":2,"macs":5}
{"type":"summary","configs":[{"name":"A","cycles":3,"dense_cycles":6,"speedup":2}],"elapsed_ms":0.1}
`)
	b, src, _, err := parseBody(buffered, false)
	if err != nil || src != "engine" {
		t.Fatalf("buffered: %v %q", err, src)
	}
	s, src, _, err := parseBody(stream, true)
	if err != nil || src != "cache" {
		t.Fatalf("stream: %v %q", err, src)
	}
	if b.digest() != s.digest() {
		t.Errorf("stream %+v and buffered %+v bodies differ", s, b)
	}
	if _, _, _, err := parseBody(stream[:len(stream)-80], true); err == nil {
		t.Error("a stream cut before its summary parsed")
	}
}

// TestLookupDriftFails checks that a probe replaying a different number of
// lookups than the engine made turns the traced result incorrect.
func TestLookupDriftFails(t *testing.T) {
	r := &report{attempted: 1}
	checkLookups(r, "figs", 10, 10)
	if len(r.problems) != 0 {
		t.Fatalf("matching counts reported problems: %v", r.problems)
	}
	checkLookups(r, "figs", 10, 11)
	if res := finish(r, false); res.Correct {
		t.Error("a replayed-vs-counted lookup mismatch reported correct")
	}
}
