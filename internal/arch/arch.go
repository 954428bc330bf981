// Package arch describes the hardware configurations of the paper's Table 2:
// the DaDianNao++ dense baseline and the TCL variants (front-end pattern ×
// back-end kind), plus the tile geometry every timing model shares.
package arch

import (
	"fmt"

	"bittactical/internal/backend"
	"bittactical/internal/fixed"
	"bittactical/internal/sched"
)

// BackEnd selects how a processing element consumes activations.
//
// Deprecated: the enum survives only so the Table-2 constructors keep their
// historical signatures. New code should resolve a backend.Backend through
// the registry (backend.Lookup) and build configs with NewTCLBackend.
type BackEnd int

const (
	// BitParallel multiplies a full activation per cycle (DaDianNao++-style
	// back-end; also the "front-end only" TCL rows of Figure 8a).
	BitParallel BackEnd = iota
	// TCLp streams activations bit-serially over their per-group dynamic
	// precision window (Dynamic-Stripes-style, Section 5.2).
	TCLp
	// TCLe streams activations serially over their Booth-encoded effectual
	// terms (Pragmatic-style oneffsets, Section 5.2).
	TCLe
)

// legacyNames maps the enum values onto their registry names.
var legacyNames = map[BackEnd]string{
	BitParallel: "bit-parallel",
	TCLp:        "TCLp",
	TCLe:        "TCLe",
}

func (b BackEnd) String() string {
	if s, ok := legacyNames[b]; ok {
		return s
	}
	return fmt.Sprintf("BackEnd(%d)", int(b))
}

// Impl resolves the enum value to its registered backend implementation.
// It panics on a value outside the historical enum — those were undefined
// behavior under the switch dispatch this shim replaces.
func (b BackEnd) Impl() backend.Backend {
	return backend.MustLookup(b.String())
}

// Config is one accelerator configuration (Table 2).
type Config struct {
	Name string
	// Tiles in the chip grid (4 in the evaluation, matching SCNN's 1K
	// multipliers).
	Tiles int
	// FiltersPerTile is the number of PE rows (filters resident) per tile.
	FiltersPerTile int
	// Lanes is the number of weight lanes (multipliers) per PE.
	Lanes int
	// WindowsPerTile is the number of PE columns — activation windows
	// processed concurrently. 1 for the bit-parallel baseline; 16 for the
	// serial back-ends (needed to exceed bit-parallel throughput).
	WindowsPerTile int
	// Width is the datapath width.
	Width fixed.Width
	// Pattern is the front-end connectivity; zero-valued (no offsets, H=0)
	// means no weight skipping (the dense baseline).
	Pattern sched.Pattern
	// Backend is the activation consumption model: per-value serial cost,
	// reference arithmetic, serial term stream, and energy/area coefficients
	// (see internal/backend). Any registered back-end drops in here.
	Backend backend.Backend
	// Scheduler is the software scheduling heuristic.
	Scheduler sched.Algorithm
	// PsumRegsPerPE is the number of output partial-sum registers (4 in the
	// studied configurations), enabling temporal reuse.
	PsumRegsPerPE int
	// FrequencyGHz is the clock (1 GHz in the paper).
	FrequencyGHz float64

	// ASBytesPerTile and WSBytesPerTile size the on-chip scratchpads
	// (Table 2: 32 KB × 32 banks AS, 2 KB × 32 banks WS per tile).
	ASBytesPerTile int
	WSBytesPerTile int
	// ActBufBanks is h+1: the per-tile activation buffer banks feeding the
	// ABRs.
	ActBufBanks int
}

// HasFrontEnd reports whether the config performs weight skipping.
func (c Config) HasFrontEnd() bool {
	return c.Pattern.Infinite || len(c.Pattern.Offsets) > 0
}

// TotalFilterRows is the number of filters resident at once chip-wide.
func (c Config) TotalFilterRows() int { return c.Tiles * c.FiltersPerTile }

// Serial reports whether the configured back-end streams activations over
// multiple cycles (false for a nil back-end, like the zero Config).
func (c Config) Serial() bool {
	return c.Backend != nil && c.Backend.Serial()
}

// PeakMACsPerCycle is the chip's dense-equivalent multiply bandwidth.
func (c Config) PeakMACsPerCycle() int64 {
	per := int64(c.Tiles) * int64(c.FiltersPerTile) * int64(c.Lanes) * int64(c.WindowsPerTile)
	if c.Serial() {
		// A serial lane needs Width cycles for a full-precision activation.
		per /= int64(c.Width)
	}
	return per
}

// PeakTOPS is peak tera-operations (MAC = 2 ops) per second.
func (c Config) PeakTOPS() float64 {
	return float64(2*c.PeakMACsPerCycle()) * c.FrequencyGHz / 1e3
}

// MaxLanes bounds Lanes: the serial back-end's window kernel counts a
// column's non-zero lanes per window in one byte.
const MaxLanes = 255

// Validate checks structural sanity.
func (c Config) Validate() error {
	if c.Tiles <= 0 || c.FiltersPerTile <= 0 || c.Lanes <= 0 || c.WindowsPerTile <= 0 {
		return fmt.Errorf("arch: %s: non-positive geometry", c.Name)
	}
	if c.Lanes > MaxLanes {
		return fmt.Errorf("arch: %s: %d lanes exceed %d", c.Name, c.Lanes, MaxLanes)
	}
	if !c.Width.Valid() {
		return fmt.Errorf("arch: %s: invalid width %d", c.Name, int(c.Width))
	}
	if c.Backend == nil {
		return fmt.Errorf("arch: %s: nil back-end (build configs through the arch constructors or set Backend explicitly)", c.Name)
	}
	if c.Serial() && c.WindowsPerTile < int(c.Width)/2 {
		return fmt.Errorf("arch: %s: serial back-end with %d windows cannot reach baseline throughput",
			c.Name, c.WindowsPerTile)
	}
	return c.Pattern.Validate()
}

// base returns the common Table 2 skeleton.
func base() Config {
	return Config{
		Tiles:          4,
		FiltersPerTile: 16,
		Lanes:          16,
		WindowsPerTile: 1,
		Width:          fixed.W16,
		PsumRegsPerPE:  4,
		FrequencyGHz:   1.0,
		ASBytesPerTile: 32 * 1024 * 32,
		WSBytesPerTile: 2 * 1024 * 32,
		ActBufBanks:    1,
		Backend:        backend.MustLookup("bit-parallel"),
	}
}

// DaDianNaoPP is the dense bit-parallel baseline all results normalize to.
func DaDianNaoPP() Config {
	c := base()
	c.Name = "DaDianNao++"
	return c
}

// FrontEndOnly is a TCL configuration with weight skipping but a
// bit-parallel back-end (the subject of Figure 8a).
func FrontEndOnly(p sched.Pattern) Config {
	c := base()
	c.Name = "TCL-FE/" + p.Name
	c.Pattern = p
	c.ActBufBanks = p.H + 1
	return c
}

// NewTCL builds a full TCL configuration with the given pattern and serial
// back-end; serial back-ends process 16 windows concurrently (Section 5.2).
//
// Deprecated: NewTCL keeps the enum-based signature for the Table-2 call
// sites; it delegates to NewTCLBackend.
func NewTCL(p sched.Pattern, be BackEnd) Config {
	return NewTCLBackend(p, be.Impl())
}

// NewTCLBackend builds a full TCL configuration with the given pattern and
// any registered back-end implementation.
func NewTCLBackend(p sched.Pattern, be backend.Backend) Config {
	c := base()
	c.Pattern = p
	c.Backend = be
	c.ActBufBanks = p.H + 1
	if be.Serial() {
		c.WindowsPerTile = 16
	}
	c.Name = fmt.Sprintf("%s/%s", be.Name(), p.Name)
	return c
}

// WithWidth returns a copy of the config at a different data width. Serial
// back-ends provision one PE column per data bit — the count that matches
// the bit-parallel baseline's peak throughput at full precision — so an
// 8-bit TCL tile has 8 window columns where the 16-bit tile has 16.
func (c Config) WithWidth(w fixed.Width) Config {
	c.Width = w
	if c.Serial() {
		c.WindowsPerTile = int(w)
	}
	return c
}
