// SWAR window kernel. A Bit-Tactical tile broadcasts one weight column to
// all of its window columns at once; the simulator mirrors that by
// evaluating eight windows per machine word. Cost planes store each
// lane's costs window-innermost (costPlane), so one little-endian uint64
// load yields one lane's serial cost in eight consecutive windows, and the
// per-column quantities of the serial back-end become byte-parallel across
// windows:
//
//   - the column max — lanes within a PE are lockstep every schedule
//     column (they feed one adder tree), so the column lasts as long as
//     its slowest participating lane — is a byte-wise max (byteMax) folded
//     over the participating lanes' words and floored at 1: eight column
//     durations in one word, with no horizontal reduction;
//   - the lane census needs, per window, each lane class's cost sum and
//     its count of non-zero lanes, both word-wide adds over the lanes
//     (foldLanes, countLanes); evalWindows turns them into the Figure-9
//     buckets.
//
// Invariants:
//
//   - every cost byte is <= maxLaneCost (127): the word-parallel unsigned
//     compare borrows through bit 7 of each byte, so costs must leave the
//     high bit clear. newCostTable clamps accordingly; real costs never
//     exceed width+1 <= 17.
//   - at most arch.MaxLanes (255) lanes: per-window non-zero lane counts
//     accumulate in bytes, and widened cost sums (<= 254 per lane) in
//     16-bit fields.
//   - columnMax's cost slices are zero-padded to a whole number of 8-byte
//     words (padLanes), and its mask bytes are exactly 0x00 (lane
//     excluded) or 0xFF (lane participates); padding bytes are 0x00.
//
// columnMax, the lane-parallel column max (8 lanes of one window per
// word), is not on the engine path: it is the subject of the tclbench
// kernel suite (BENCH_kernel.json), pinned against columnMaxScalar by
// FuzzColumnMaxSWAR and TestColumnMaxMatchesScalar, and the reference
// walk in the tests calls it.
package sim

import "encoding/binary"

// maxLaneCost bounds the per-value serial cost stored in cost tables and
// activation cost planes, keeping bit 7 of every packed byte clear for the
// SWAR compare.
const maxLaneCost = 127

// laneWords returns the number of uint64 words that hold `lanes` packed
// byte costs.
func laneWords(lanes int) int { return (lanes + 7) / 8 }

// padLanes rounds a lane count up to a whole number of SWAR words, the
// required length of a cost buffer.
func padLanes(lanes int) int { return laneWords(lanes) * 8 }

// swarHigh selects bit 7 of every byte of a word.
const swarHigh = 0x8080808080808080

// byteMax returns the byte-wise unsigned max of two words, valid for byte
// values <= 127: (a|H)-b sets bit 7 of a byte exactly when that byte of a
// is >= the byte of b (no inter-byte borrow, since every minuend byte is >=
// 0x80 and every subtrahend byte <= 0x7F), and ge*0xFF spreads each
// resulting comparison bit into a full byte-select mask.
func byteMax(a, b uint64) uint64 {
	ge := (((a | swarHigh) - b) & swarHigh) >> 7
	m := ge * 0xff
	return (a & m) | (b &^ m)
}

// columnMax returns max(1, max cost over participating lanes): the cycles
// the PE spends on this schedule column. cost is a padLanes-sized buffer of
// per-lane serial costs; mask holds laneWords words with 0xFF bytes for
// participating lanes (effectual weights, or every lane when the config has
// no front-end to gate ineffectual ones) and 0x00 elsewhere. The floor of 1
// models the column issue slot: even a column whose every participating
// lane is zero-cost occupies the PE for a cycle.
func columnMax(cost []uint8, mask []uint64) int {
	var m uint64
	for i, w := range mask {
		m = byteMax(m, binary.LittleEndian.Uint64(cost[i*8:])&w)
	}
	m = byteMax(m, m>>32)
	m = byteMax(m, m>>16)
	m = byteMax(m, m>>8)
	if c := int(m & 0xff); c > 1 {
		return c
	}
	return 1
}

// columnMaxScalar is the reference column-max: the byte loop the engine ran
// before the SWAR kernel, kept as the executable specification the kernel
// is differentially tested against.
func columnMaxScalar(cost []uint8, mask []uint64) int {
	peMax := 1
	for ln := 0; ln < len(cost); ln++ {
		if mask[ln>>3]>>(8*uint(ln&7))&0xff != 0 && int(cost[ln]) > peMax {
			peMax = int(cost[ln])
		}
	}
	return peMax
}

// ColumnMax exposes the SWAR column-max to benchmark tooling outside the
// package; ColumnMaxScalar is its executable reference. Engine code calls
// the unexported kernels directly.
func ColumnMax(cost []uint8, mask []uint64) int       { return columnMax(cost, mask) }
func ColumnMaxScalar(cost []uint8, mask []uint64) int { return columnMaxScalar(cost, mask) }

// swarLow7 is 0x7F in every byte: added to a word of bytes <= 127 it sets
// bit 7 of exactly the non-zero bytes, with no carry between bytes.
const swarLow7 = 0x7f7f7f7f7f7f7f7f

// swarOnes is 0x01 in every byte: the column-max floor of one cycle in
// each of eight windows.
const swarOnes = 0x0101010101010101

// swarPairs selects the even bytes of a word as four 16-bit fields.
const swarPairs = 0x00ff00ff00ff00ff

// byteSum adds the eight bytes of a word of bytes <= 127. Eight such bytes
// can sum past 255, so the sum widens first: byte pairs fold into four
// 16-bit fields (each <= 254), and one multiply gathers their total (<=
// 1016, so no field overflows) into the top field.
func byteSum(x uint64) int {
	x = x&swarPairs + x>>8&swarPairs
	return int(x * 0x0001000100010001 >> 48)
}

// wideSum adds the four 16-bit fields of a word whatever their total:
// the fields pair into two 32-bit halves first.
func wideSum(x uint64) int {
	const halves = 0x0000ffff0000ffff
	x = x&halves + x>>16&halves
	return int(x&0xffffffff + x>>32)
}

// fieldDot is the dot product of the four 16-bit fields of a and b.
func fieldDot(a, b uint64) int {
	return int(a&0xffff)*int(b&0xffff) +
		int(a>>16&0xffff)*int(b>>16&0xffff) +
		int(a>>32&0xffff)*int(b>>32&0xffff) +
		int(a>>48)*int(b>>48)
}

// windowMask selects the low nw bytes of a word: the windows of an
// nw-window block (1 <= nw <= 8).
func windowMask(nw int) uint64 { return ^uint64(0) >> (64 - 8*uint(nw)) }

// loadWindows returns plane bytes [i, i+8) as a little-endian word, masked
// to the block's valid windows. A full block (valid all ones) lies inside
// its plane row; a partial block can reach past the row, and on the
// plane's last row past the plane itself — planes carry no load slack — so
// that word is assembled byte by byte.
func loadWindows(data []uint8, i int, valid uint64) uint64 {
	if valid == ^uint64(0) {
		return binary.LittleEndian.Uint64(data[i:])
	}
	if i+8 <= len(data) {
		return binary.LittleEndian.Uint64(data[i:]) & valid
	}
	var x uint64
	for k, c := range data[i:] {
		x |= uint64(c) << (8 * uint(k))
	}
	return x & valid
}

// foldLanes folds the eight-window block [w, w+8) of the lanes whose plane
// rows start at refs[i]*W into the running column max pm, and returns
// with it the lanes' total cost over the block and, per window byte, the
// number of lanes with non-zero cost.
func foldLanes(data []uint8, refs []int32, W, w int, valid, pm uint64) (uint64, int, uint64) {
	var s, nz uint64
	for _, r := range refs {
		c := loadWindows(data, int(r)*W+w, valid)
		pm = byteMax(pm, c)
		s += c&swarPairs + c>>8&swarPairs
		nz += (c + swarLow7) & swarHigh >> 7
	}
	return pm, wideSum(s), nz
}

// countLanes is foldLanes for lanes that stay out of the column max and
// whose cost no bucket needs: it returns only the per-window non-zero
// lane counts.
func countLanes(data []uint8, refs []int32, W, w int, valid uint64) uint64 {
	var nz uint64
	for _, r := range refs {
		nz += (loadWindows(data, int(r)*W+w, valid) + swarLow7) & swarHigh >> 7
	}
	return nz
}
