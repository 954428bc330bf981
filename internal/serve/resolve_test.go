package serve

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"bittactical/internal/nn"
)

// countedBuilds counts builds of the "Counted-AlexNet" workload, registered
// once per test binary (Register panics on a duplicate, and -count reruns
// the tests in one process).
var (
	countedBuilds   atomic.Int64
	countedRegister sync.Once
)

func registerCounted(t *testing.T) {
	t.Helper()
	countedRegister.Do(func() {
		alex, err := nn.Lookup("AlexNet-ES")
		if err != nil {
			t.Fatal(err)
		}
		nn.Register(nn.Entry{
			Name: "Counted-AlexNet",
			Build: func(z nn.ZooConfig) *nn.Model {
				countedBuilds.Add(1)
				return alex.Build(z)
			},
			WeightSparsity: alex.WeightSparsity,
			Act:            alex.Act,
		})
	})
}

// TestSimulateCacheHitBuildsNoModel: a request is resolved and fingerprinted
// without building its model, so a result-cache hit builds nothing — only
// the engine run (the leader) does — and its body matches the engine run's
// byte for byte.
func TestSimulateCacheHitBuildsNoModel(t *testing.T) {
	registerCounted(t)
	h := testServer(t, 2).Routes()
	body := `{"model":"counted-alexnet","channel_scale":0.1,"spatial_scale":0.25,"configs":[{"backend":"tclp","pattern":"T8<2,5>"}]}`

	before := countedBuilds.Load()
	first := postJSON(t, h, "/v1/simulate", body)
	if first.Code != http.StatusOK {
		t.Fatalf("first simulate = %d: %s", first.Code, first.Body.String())
	}
	if n := countedBuilds.Load() - before; n != 1 {
		t.Fatalf("engine run built the model %d times, want 1", n)
	}
	second := postJSON(t, h, "/v1/simulate", body)
	if second.Code != http.StatusOK {
		t.Fatalf("repeat simulate = %d: %s", second.Code, second.Body.String())
	}
	if n := countedBuilds.Load() - before; n != 1 {
		t.Errorf("cache hit built the model: %d builds in total, want 1", n)
	}
	var a, b SimulateResponse
	if err := json.Unmarshal(first.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if b.Source != string(SourceCache) {
		t.Fatalf("repeat source = %q, want cache", b.Source)
	}
	if a.Model != "Counted-AlexNet" || b.Model != a.Model {
		t.Errorf("models %q / %q, want the registered display name", a.Model, b.Model)
	}
	// Byte-identical bodies apart from source and timing.
	a.Source, b.Source, a.ElapsedMs, b.ElapsedMs = "", "", 0, 0
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Errorf("cache-hit body differs from the engine run:\n%s\nvs\n%s", aj, bj)
	}
}

// TestResolveMatchesBuild: Resolve yields exactly the canonical values
// Build returns, and the pre-build fingerprint equals Fingerprint over the
// built model, so resolving first cannot split or alias cache keys.
func TestResolveMatchesBuild(t *testing.T) {
	for _, ms := range []ModelSpec{
		{Model: "alexnet-es"},
		{Model: "MobileNet", ChannelScale: 0.1, SpatialScale: 0.25, Seed: 3, ActSeed: 9},
		{Model: "bi-lstm", Batch: 2},
	} {
		rm, err := ms.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		m, zoo, actSeed, err := ms.Build()
		if err != nil {
			t.Fatal(err)
		}
		if rm.Name != m.Name || rm.Zoo != zoo || rm.ActSeed != actSeed {
			t.Errorf("%+v: Resolve = %+v, Build = (%s, %+v, %d)", ms, rm, m.Name, zoo, actSeed)
		}
		cfgs, err := buildConfigs(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fingerprint(rm.Name, rm.Zoo, rm.ActSeed, cfgs), Fingerprint(m, zoo, actSeed, cfgs); got != want {
			t.Errorf("%+v: pre-build fingerprint %s != Fingerprint %s", ms, got, want)
		}
	}
	if _, err := (ModelSpec{Model: "NotANet"}).Resolve(); err == nil {
		t.Error("Resolve accepted an unknown model")
	}
}
