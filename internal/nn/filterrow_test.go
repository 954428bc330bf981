package nn_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"bittactical/internal/nn"
	_ "bittactical/internal/workloads/attention" // grouped conv lives in this zoo
)

// filterRowRef is the reference FilterRowInto: one Weight lookup (dense
// coordinates resolved through the lowering's coords) per slot — the loop
// the strided per-kind copy replaced.
func filterRowRef(lw *nn.Lowered, f int, out []int32) {
	for st := 0; st < lw.Steps; st++ {
		for ln := 0; ln < lw.Lanes; ln++ {
			out[st*lw.Lanes+ln] = lw.Weight(f, st, ln)
		}
	}
}

// layerKind names a lowering's FilterRowInto path.
func layerKind(lw *nn.Lowered) string {
	l := lw.Layer()
	switch {
	case lw.Kind == nn.Depthwise:
		return "depthwise"
	case lw.Kind == nn.FC:
		return "fc"
	case l.Groups > 1:
		return "grouped"
	case l.GroupChannels() < lw.Lanes:
		return "folded"
	default:
		return "conv"
	}
}

// TestFilterRowIntoMatchesReference pins the strided FilterRowInto to the
// per-slot reference on every filter of every compute layer of every
// registered workload, at the paper's 16 lanes and at lane counts that
// leave channel padding and fold differently. It also checks that every
// kind the copy distinguishes was exercised.
func TestFilterRowIntoMatchesReference(t *testing.T) {
	zoo := nn.DefaultZoo()
	zoo.ChannelScale, zoo.SpatialScale = 0.125, 0.25
	seen := map[string]bool{}
	for _, name := range nn.Names() {
		m, err := nn.BuildModel(name, zoo)
		if err != nil {
			t.Fatal(err)
		}
		acts := m.GenerateActs(1)
		for _, lanes := range []int{16, 8, 5} {
			lws, err := m.Lowered(lanes, acts)
			if err != nil {
				t.Fatal(err)
			}
			for _, lw := range lws {
				seen[layerKind(lw)] = true
				n := lw.Steps * lw.Lanes
				got, want := make([]int32, n), make([]int32, n)
				for f := 0; f < lw.Filters; f++ {
					// Dirty storage: every slot, padding included, must be written.
					for i := range got {
						got[i] = -1
					}
					lw.FilterRowInto(f, got)
					filterRowRef(lw, f, want)
					if !slices.Equal(got, want) {
						t.Fatalf("%s/%s lanes=%d filter %d (%s): strided row differs from reference",
							name, lw.Name, lanes, f, layerKind(lw))
					}
				}
			}
		}
	}
	for _, k := range []string{"conv", "folded", "grouped", "depthwise", "fc"} {
		if !seen[k] {
			t.Errorf("no %s layer in the registered zoo: the differential test lost coverage", k)
		}
	}
}

// TestDigestMemoConcurrentFirstUse races many goroutines to the first use
// of the same group and input digests: every caller must read back the one
// digest, whichever goroutine stored it (run under -race).
func TestDigestMemoConcurrentFirstUse(t *testing.T) {
	m, err := nn.BuildModel("AlexNet-ES", nn.DefaultZoo())
	if err != nil {
		t.Fatal(err)
	}
	lws, err := m.Lowered(16, m.GenerateActs(1))
	if err != nil {
		t.Fatal(err)
	}
	lw := lws[1]
	digest := func(g int) (uint64, uint64) { return uint64(g)*0x9e3779b97f4a7c15 + 1, uint64(g) + 7 }
	const workers = 16
	groups := (lw.Filters + 15) / 16
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for g := 0; g < groups; g++ {
				// Half the goroutines key the group at size 16, half at 8
				// (two concurrent table creations), all the input digest.
				rows := 16 - 8*(w%2)
				gi := g * 16 / rows
				memo := lw.GroupDigest(rows, gi)
				h1, h2, ok := memo.Load()
				if !ok {
					h1, h2 = digest(gi)
					memo.Store(h1, h2)
				}
				in := lw.InputDigest()
				if _, _, ok := in.Load(); !ok {
					in.Store(99, 100)
				}
				i1, i2, _ := in.Load()
				got[w] = append(got[w], fmt.Sprintf("%d/%d:%x,%x|%x,%x", rows, gi, h1, h2, i1, i2))
			}
		}(w)
	}
	wg.Wait()
	for w := 2; w < workers; w++ {
		if !slices.Equal(got[w], got[w%2]) {
			t.Fatalf("worker %d read %v, worker %d read %v", w, got[w], w%2, got[w%2])
		}
	}
	for g := 0; g < groups; g++ {
		h1, h2, ok := lw.GroupDigest(16, g).Load()
		if w1, w2 := digest(g); !ok || h1 != w1 || h2 != w2 {
			t.Fatalf("group %d memo = (%x, %x, %v), want (%x, %x)", g, h1, h2, ok, w1, w2)
		}
	}
}
