package arch

import (
	"fmt"
	"math"
	"testing"

	"bittactical/internal/fixed"
	"bittactical/internal/sched"
)

func TestDaDianNaoPPDefaults(t *testing.T) {
	c := DaDianNaoPP()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Tiles != 4 || c.FiltersPerTile != 16 || c.Lanes != 16 || c.WindowsPerTile != 1 {
		t.Errorf("geometry %+v disagrees with Table 2", c)
	}
	if c.HasFrontEnd() {
		t.Error("baseline must not have a front-end")
	}
	if c.Backend.Name() != "bit-parallel" || c.Serial() {
		t.Error("baseline back-end must be bit-parallel")
	}
	// Table 2: 2 TOPS peak.
	if math.Abs(c.PeakTOPS()-2.048) > 0.05 {
		t.Errorf("peak = %v TOPS", c.PeakTOPS())
	}
}

func TestNewTCLWindows(t *testing.T) {
	e := NewTCL(sched.T(2, 5), TCLe)
	if e.WindowsPerTile != 16 {
		t.Errorf("serial back-end needs 16 windows, got %d", e.WindowsPerTile)
	}
	if !e.HasFrontEnd() {
		t.Error("TCL config must have a front-end")
	}
	if e.ActBufBanks != 3 {
		t.Errorf("activation buffer banks = %d, want h+1 = 3", e.ActBufBanks)
	}
	fe := FrontEndOnly(sched.T(2, 5))
	if fe.WindowsPerTile != 1 || fe.Serial() {
		t.Error("front-end-only keeps the bit-parallel single-window tile")
	}
}

func TestPeakThroughputParity(t *testing.T) {
	// The serial tiles' peak dense-equivalent throughput matches the
	// bit-parallel baseline (Section 5.2: 16 windows compensate 16b serial).
	base := DaDianNaoPP().PeakMACsPerCycle()
	for _, be := range []BackEnd{TCLp, TCLe} {
		c := NewTCL(sched.T(2, 5), be)
		if got := c.PeakMACsPerCycle(); got != base {
			t.Errorf("%s peak %d != baseline %d", be, got, base)
		}
		c8 := c.WithWidth(fixed.W8)
		if c8.WindowsPerTile != 8 {
			t.Errorf("8b %s windows = %d, want 8", be, c8.WindowsPerTile)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	c := DaDianNaoPP()
	c.Tiles = 0
	if c.Validate() == nil {
		t.Error("accepted zero tiles")
	}
	c = DaDianNaoPP()
	c.Width = 13
	if c.Validate() == nil {
		t.Error("accepted invalid width")
	}
	c = NewTCL(sched.T(2, 5), TCLe)
	c.WindowsPerTile = 2
	if c.Validate() == nil {
		t.Error("accepted starved serial tile")
	}
	c = NewTCL(sched.T(2, 5), TCLe)
	c.Lanes = MaxLanes + 1
	if c.Validate() == nil {
		t.Error("accepted more lanes than the window kernel counts")
	}
	c.Lanes = MaxLanes
	if err := c.Validate(); err != nil {
		t.Errorf("rejected MaxLanes lanes: %v", err)
	}
	bad := NewTCL(sched.Pattern{Name: "x", H: 1, Offsets: []sched.Offset{{Dt: 9}}}, TCLe)
	if bad.Validate() == nil {
		t.Error("accepted invalid pattern")
	}
}

func TestBackEndString(t *testing.T) {
	for be, want := range map[BackEnd]string{BitParallel: "bit-parallel", TCLp: "TCLp", TCLe: "TCLe"} {
		if be.String() != want {
			t.Errorf("%d.String() = %q", int(be), be.String())
		}
	}
	// Default branch: values outside the historical enum format as
	// BackEnd(n), never a registered name.
	for _, be := range []BackEnd{BackEnd(-1), BackEnd(3), BackEnd(42)} {
		want := fmt.Sprintf("BackEnd(%d)", int(be))
		if got := be.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(be), got, want)
		}
	}
}

func TestBackEndImpl(t *testing.T) {
	for be, want := range map[BackEnd]string{BitParallel: "bit-parallel", TCLp: "TCLp", TCLe: "TCLe"} {
		if got := be.Impl().Name(); got != want {
			t.Errorf("%v.Impl().Name() = %q, want %q", be, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Impl() on an out-of-range enum value did not panic")
		}
	}()
	BackEnd(42).Impl()
}

func TestValidateRejectsNilBackend(t *testing.T) {
	c := DaDianNaoPP()
	c.Backend = nil
	if c.Validate() == nil {
		t.Error("accepted nil back-end")
	}
}

func TestConfigNames(t *testing.T) {
	if n := NewTCL(sched.T(2, 5), TCLe).Name; n != "TCLe/T8<2,5>" {
		t.Errorf("name = %q", n)
	}
	if n := FrontEndOnly(sched.L(1, 6)).Name; n != "TCL-FE/L8<1,6>" {
		t.Errorf("name = %q", n)
	}
}

func TestTotalFilterRows(t *testing.T) {
	if got := DaDianNaoPP().TotalFilterRows(); got != 64 {
		t.Errorf("TotalFilterRows = %d, want 64", got)
	}
}
