// Activation cost planes. The serial cost of an activation value — dynamic
// precision bits for TCLp, Booth oneffsets for TCLe — depends only on the
// value and the datapath width, and the activation behind a (window, step,
// lane) slot depends on the PE row's filter index only through the
// filter's act group (nn.Lowered.ActGroups): not at all for FC and
// ungrouped conv (one group), through the input-channel slice for grouped
// conv (one group per filter group), and through the channel itself for
// depthwise (one group per filter). A costPlane precomputes that cost for
// every slot of one (layer, act group) exactly once, so the window kernel
// loads eight windows' costs per word instead of re-deriving each cost
// through an Act fetch and a costTable mask for every (column, row,
// window, lane) tuple — work that would otherwise repeat per filter group,
// per window chunk, and per sweep config, and for row-variant layers per
// PE row.
//
// A plane is a pure function of (activations, lowering geometry, act
// group, back-end, width). It does not depend on the front-end pattern,
// the scheduling algorithm, tile geometry, or the weights, which is why
// one plane is shared across every config of a sweep that fixes the
// back-end and width (PlaneCache).
package sim

import (
	"bittactical/internal/nn"
)

// costPlane stores each activation's serial cost for one (lowered layer,
// act group) at one (back-end, width): a packed
// [Steps][Lanes][WindowCount]uint8, window innermost. A lane reference
// flat = step*Lanes+lane (the dense-schedule coordinate the group
// context's refs hold) addresses the byte row data[flat*windows:], so the
// window kernel loads one lane's cost in eight consecutive windows as one
// little-endian word. The plane holds exactly WindowCount*Steps*Lanes
// bytes — no per-row padding and no load slack; the kernel reads the last
// partial word of the plane with a bounds-checked byte loop instead.
// Planes are immutable after build and shared read-only across
// goroutines, groups, chunks, and configs.
type costPlane struct {
	windows int
	data    []uint8
}

// buildPlane evaluates one act group's activation costs once per slot,
// writing each (step, lane) row of windows contiguously. The fetch uses
// the group's representative filter index, which ActGroupRep guarantees
// is representative of every PE row whose filter falls in the group.
func buildPlane(lw *nn.Lowered, ct *costTable, actGroup int) *costPlane {
	W := lw.WindowCount
	rep := lw.ActGroupRep(actGroup)
	p := &costPlane{
		windows: W,
		data:    make([]uint8, lw.Steps*lw.Lanes*W),
	}
	i := 0
	for st := 0; st < lw.Steps; st++ {
		for ln := 0; ln < lw.Lanes; ln++ {
			for win := 0; win < W; win++ {
				p.data[i] = ct.costU8(lw.Act(rep, win, st, ln))
				i++
			}
		}
	}
	return p
}

// sizeBytes is the plane's resident size, the unit the PlaneCache budget is
// accounted in.
func (p *costPlane) sizeBytes() int64 { return int64(len(p.data)) }
