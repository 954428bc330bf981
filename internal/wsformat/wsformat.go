// Package wsformat defines the binary artifact Bit-Tactical's scheduling
// middleware hands to the hardware: the weight-scratchpad image. Each
// schedule column is stored exactly as the WS delivers it to a PE row
// (Section 5.1, Figure 5b) — a column of N (weight, ws) pairs plus the ALC
// field:
//
//	header:  magic "TCLW", version, lanes, dense steps, column count,
//	         pattern mux inputs, lookahead depth, data width, initial head
//	         (the ALC pre-advance past leading all-ineffectual steps)
//	columns: per column: [alcBits ALC] then per lane:
//	         [width-bit weight][selBits ws mux select]
//
// The ws select is the multiplexer input index: 0 = the dense "stay" input,
// 1..len(offsets) = the pattern's promotion edges in declaration order. The
// decoder reconstructs a sched.Schedule given the same pattern, and a
// verification pass proves the round trip preserves every entry — the
// contract between the software scheduler and the silicon.
package wsformat

import (
	"encoding/binary"
	"errors"
	"fmt"

	"bittactical/internal/compress"
	"bittactical/internal/fixed"
	"bittactical/internal/sched"
)

// Magic identifies a WS image.
const Magic = "TCLW"

// Version of the layout.
const Version = 1

// Image is a decoded weight-scratchpad image header plus its schedule.
type Image struct {
	Lanes      int
	DenseSteps int
	Width      fixed.Width
	Pattern    sched.Pattern
	Schedule   *sched.Schedule
}

// selIndex maps a schedule entry to its mux input index under the pattern.
func selIndex(p sched.Pattern, e sched.Entry) (int, error) {
	if e.Dt == 0 && e.Dl == 0 {
		return 0, nil
	}
	for i, o := range p.Offsets {
		if o.Dt == int(e.Dt) && o.Dl == int(e.Dl) {
			return i + 1, nil
		}
	}
	return 0, fmt.Errorf("wsformat: promotion (%d,%d) not in pattern %s", e.Dt, e.Dl, p.Name)
}

func selBits(p sched.Pattern) int {
	b := 0
	for v := 1; v < p.MuxInputs(); v <<= 1 {
		b++
	}
	if b < 1 {
		b = 1
	}
	return b
}

func alcBits(p sched.Pattern) int {
	b := 0
	for v := 1; v < p.H+2; v <<= 1 {
		b++
	}
	if b < 3 {
		b = 3 // ALC also encodes long skips; keep a floor
	}
	return b
}

// Encode packs a verified schedule into a WS image. The pattern must be
// finite (the X bound has no hardware form).
func Encode(p sched.Pattern, s *sched.Schedule, w fixed.Width) ([]byte, error) {
	if p.Infinite {
		return nil, errors.New("wsformat: X<inf,15> has no WS image")
	}
	head := make([]byte, 0, 24)
	head = append(head, Magic...)
	head = append(head, byte(Version), byte(s.Lanes), byte(int(w)), byte(p.H))
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(s.DenseSteps))
	head = append(head, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(s.Columns)))
	head = append(head, u32[:]...)
	head = append(head, byte(p.MuxInputs()))
	head0 := 0
	if len(s.Columns) > 0 {
		head0 = s.Columns[0].Head
	}
	binary.LittleEndian.PutUint32(u32[:], uint32(head0))
	head = append(head, u32[:]...)

	bw := &compress.BitWriter{}
	sb, ab := selBits(p), alcBits(p)
	maxALC := (1 << uint(ab)) - 1
	for _, col := range s.Columns {
		// Long all-ineffectual skips overflow the compact ALC field; the
		// saturated value escapes to a 16-bit extension (rare: only the
		// final column of a mostly-empty schedule region).
		if col.Advance >= maxALC {
			bw.WriteBits(uint32(maxALC), ab)
			bw.WriteBits(uint32(col.Advance), 16)
		} else {
			bw.WriteBits(uint32(col.Advance), ab)
		}
		for _, e := range col.Entries {
			bw.WriteBits(uint32(e.Weight)&w.Mask(), int(w))
			sel := 0
			if e.Weight != 0 {
				var err error
				sel, err = selIndex(p, e)
				if err != nil {
					return nil, err
				}
			}
			bw.WriteBits(uint32(sel), sb)
		}
	}
	return append(head, bw.Bytes()...), nil
}

// Decode reconstructs the schedule from a WS image; the caller supplies the
// pattern the image was scheduled for (hardware configuration state).
func Decode(buf []byte, p sched.Pattern) (*Image, error) {
	if len(buf) < 21 {
		return nil, errors.New("wsformat: truncated header")
	}
	if string(buf[:4]) != Magic {
		return nil, errors.New("wsformat: bad magic")
	}
	if buf[4] != Version {
		return nil, fmt.Errorf("wsformat: version %d unsupported", buf[4])
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lanes := int(buf[5])
	w := fixed.Width(buf[6])
	if !w.Valid() {
		return nil, fmt.Errorf("wsformat: invalid width %d", buf[6])
	}
	h := int(buf[7])
	if h != p.H {
		return nil, fmt.Errorf("wsformat: image lookahead %d != pattern %s", h, p.Name)
	}
	steps := int(binary.LittleEndian.Uint32(buf[8:12]))
	cols := int(binary.LittleEndian.Uint32(buf[12:16]))
	if int(buf[16]) != p.MuxInputs() {
		return nil, fmt.Errorf("wsformat: image mux width %d != pattern %s", buf[16], p.Name)
	}

	br := compress.NewBitReader(buf[21:])
	sb, ab := selBits(p), alcBits(p)
	s := &sched.Schedule{Lanes: lanes, DenseSteps: steps}
	maxALC := uint32(1)<<uint(ab) - 1
	head := int(binary.LittleEndian.Uint32(buf[17:21]))
	for ci := 0; ci < cols; ci++ {
		adv, err := br.ReadBits(ab)
		if err != nil {
			return nil, err
		}
		if adv == maxALC {
			if adv, err = br.ReadBits(16); err != nil {
				return nil, err
			}
		}
		col := sched.Column{Head: head, Advance: int(adv), Entries: make([]sched.Entry, lanes)}
		for ln := 0; ln < lanes; ln++ {
			raw, err := br.ReadBits(int(w))
			if err != nil {
				return nil, err
			}
			sel, err := br.ReadBits(sb)
			if err != nil {
				return nil, err
			}
			weight := signExtend(raw, w)
			if weight == 0 {
				col.Entries[ln] = sched.Entry{}
				continue
			}
			e := sched.Entry{Weight: weight} // select 0: in place
			if sel != 0 {
				if int(sel) > len(p.Offsets) {
					return nil, fmt.Errorf("wsformat: select %d out of range", sel)
				}
				o := p.Offsets[sel-1]
				e.Dt, e.Dl = int16(o.Dt), int16(o.Dl)
			}
			col.Entries[ln] = e
		}
		s.Columns = append(s.Columns, col)
		head += col.Advance
	}
	return &Image{Lanes: lanes, DenseSteps: steps, Width: w, Pattern: p, Schedule: s}, nil
}

func signExtend(raw uint32, w fixed.Width) int32 {
	shift := 32 - uint(w)
	return int32(raw<<shift) >> shift
}

// RoundTrip encodes and decodes a schedule and verifies the reconstruction
// matches entry-for-entry (columns whose saturated ALC was repaired by the
// decoder's head tracking included). Whole entries compare: the image
// encodes exactly an entry's Weight, Dt and Dl.
func RoundTrip(p sched.Pattern, s *sched.Schedule, w fixed.Width) error {
	buf, err := Encode(p, s, w)
	if err != nil {
		return err
	}
	img, err := Decode(buf, p)
	if err != nil {
		return err
	}
	g := img.Schedule
	if g.Lanes != s.Lanes || g.DenseSteps != s.DenseSteps || len(g.Columns) != len(s.Columns) {
		return errors.New("wsformat: geometry mismatch after round trip")
	}
	for ci := range s.Columns {
		a, b := s.Columns[ci], g.Columns[ci]
		if a.Head != b.Head {
			return fmt.Errorf("wsformat: column %d head %d != %d", ci, b.Head, a.Head)
		}
		for ln := range a.Entries {
			ea, eb := a.Entries[ln], b.Entries[ln]
			if ea != eb {
				return fmt.Errorf("wsformat: column %d lane %d entry mismatch: %+v != %+v", ci, ln, eb, ea)
			}
		}
	}
	return nil
}

// SizeBits reports the exact image footprint, the number the §5.4
// discussion optimizes (weights + per-weight ws selects + ALC + header).
func SizeBits(p sched.Pattern, s *sched.Schedule, w fixed.Width) int64 {
	ab := alcBits(p)
	maxALC := 1<<uint(ab) - 1
	var bits int64 = 21 * 8
	for _, col := range s.Columns {
		bits += int64(ab)
		if col.Advance >= maxALC {
			bits += 16
		}
		bits += int64(s.Lanes) * (int64(w) + int64(selBits(p)))
	}
	return bits
}
